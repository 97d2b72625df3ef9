(** Shared types for the two partition-implementation search heuristics. *)

type stats = {
  implementation_trials : int;
      (** combinations of partition implementations examined
          ("Partitioning Imp. Trials" in the paper's Tables 4 and 6) *)
  integrations : int;  (** full system-integration predictions performed *)
  integrations_avoided : int;
      (** combinations rejected by {!Integration.quick_check} before any
          integration work (a subset of [implementation_trials]) *)
  feasible_trials : int;
}

type outcome = {
  feasible : Integration.system list;
      (** feasible and non-inferior global implementations, fastest first *)
  explored : Integration.system list;
      (** every integrated design, only populated in keep-all mode *)
  stats : stats;
}

val empty_stats : stats

(** Timing breakdown of one parallel search, filled in by {!Slice.run}
    when the caller asks for it (the engine's {i metrics} report). *)
type parallel_metrics = {
  search_wall_seconds : float;  (** wall clock of the slice fan-out *)
  search_busy_seconds : float;
      (** busy time summed across pool participants — exceeds the wall
          clock when parallelism pays off *)
  merge_wall_seconds : float;  (** wall clock of {!Slice.merge} *)
  worker_busy_seconds : float array;
      (** per-participant busy seconds (index 0 = calling domain) *)
  chunk_count : int;  (** pool chunks handed out during the search *)
}

val no_parallel_metrics : parallel_metrics
(** All-zero metrics — the value sequential searches report. *)

val to_csv : Integration.system list -> string
(** The explored design points as CSV
    ([ii_main,clock_ns,perf_ns,delay_cycles,delay_likely_ns,area_likely,feasible])
    for external plotting of Figures 7/8-style scatters. *)

val csv_row :
  Buffer.t -> int -> float -> float -> int -> float -> float -> bool -> unit
(** [csv_row buf ii clock perf delay_cycles delay area feasible] appends
    one {!to_csv} line: the bytes of
    [Printf.sprintf "%d,%.1f,%.1f,%d,%.1f,%.1f,%b\n"] of the same fields. *)

val finalize :
  keep_all:bool ->
  feasible:Integration.system list ->
  explored:Integration.system list ->
  stats ->
  outcome
(** Sorts feasible systems by (performance, delay) and prunes inferior ones
    (unless [keep_all] asked for the raw space). *)

(** {1 Parallel search slices}

    Both exhaustive heuristics (enumeration and branch-and-bound) split
    their search space into independent slices, one per first-level
    implementation choice, and hand them to {!Slice.run}, which runs them
    on a {!Chop_util.Pool} and recombines them in task order into exactly
    the lists the sequential search would have produced, making parallel
    runs bit-identical to sequential ones. *)

module Slice : sig
  type t
  (** One slice's private counters, local non-dominated front, and
      admitted and explored systems in the order it met them. *)

  val step : t -> unit
  (** Count a considered combination (or pruned stem) without integrating. *)

  val avoid : t -> unit
  (** Count a combination rejected by {!Integration.quick_check}: a trial,
      but neither an integration nor an explored design. *)

  val record : keep_all:bool -> t -> Integration.system -> unit
  (** Count an integration, append to the explored list when [keep_all],
      and admit the system into the slice-local front when feasible
      (paper, section 2.1: inferior designs are discarded immediately upon
      detection).  A feasible system's {!Integration.objectives} are
      computed here, once, and kept with it: the front compares stored
      vectors.  The front is unchanged when a member dominates the system;
      otherwise the system is prepended and the members it dominates are
      evicted. *)

  val run :
    keep_all:bool ->
    pool:Chop_util.Pool.t ->
    ?metrics:parallel_metrics ref ->
    Integration.context ->
    (t -> Integration.cache -> unit) array ->
    outcome
  (** [run ~keep_all ~pool ctx tasks] runs every task on [pool], each
      against a fresh slice and the running domain's
      {!Integration.domain_cache} for one new {!Integration.session} of
      [ctx], then merges the slices, in task order, into what {!finalize}
      returns.  The explored list is the task-order concatenation
      reversed, matching the sequential accumulator; the global front is
      rebuilt by replaying each slice's admissions, with their stored
      vectors, in order — sound because Pareto dominance makes local
      eviction imply global eviction.  [stats.feasible_trials] is the sum
      of the per-slice [feasible] counters, i.e. the number of feasible
      integrations, exactly as the sequential searches count it.
      [metrics], when given, receives the wall clock and summed busy time
      of the tasks, the wall clock of the merge, per-participant busy
      seconds and the chunk count. *)
end
