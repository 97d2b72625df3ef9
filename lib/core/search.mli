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
  cpu_seconds : float;
}

type outcome = {
  feasible : Integration.system list;
      (** feasible and non-inferior global implementations, fastest first *)
  explored : Integration.system list;
      (** every integrated design, only populated in keep-all mode *)
  stats : stats;
}

val empty_stats : stats

(** Timing breakdown of one parallel search, filled in by the enumeration
    and branch-and-bound heuristics when the caller asks for it (the
    engine's {i metrics} report). *)
type parallel_metrics = {
  search_wall_seconds : float;  (** wall clock of the slice fan-out *)
  search_busy_seconds : float;
      (** busy time summed across pool participants — exceeds the wall
          clock when parallelism pays off *)
  merge_wall_seconds : float;  (** wall clock of {!Slice.merge} *)
  worker_busy_seconds : float array;
      (** per-participant busy seconds (index 0 = calling domain) *)
  chunk_count : int;  (** pool chunks handed out during the search *)
  chip_cache_hits : int;
      (** per-chip report fragments served from the integration cache;
          depends on how slices land on domains, so it varies with [jobs] *)
}

val no_parallel_metrics : parallel_metrics
(** All-zero metrics — the value sequential searches report. *)

val to_csv : Integration.system list -> string
(** The explored design points as CSV
    ([ii_main,clock_ns,perf_ns,delay_cycles,delay_likely_ns,area_likely,feasible])
    for external plotting of Figures 7/8-style scatters. *)

val finalize :
  keep_all:bool ->
  feasible:Integration.system list ->
  explored:Integration.system list ->
  stats ->
  outcome
(** Sorts feasible systems by (performance, delay) and prunes inferior ones
    (unless [keep_all] asked for the raw space). *)

val admit :
  Integration.system ->
  Integration.system list ->
  Integration.system list * bool
(** [admit system front] inserts a system into a running non-dominated
    front (paper, section 2.1: inferior designs are discarded immediately
    upon detection).  Returns the updated front — unchanged when [system]
    is dominated by a member, otherwise [system] prepended with the members
    it dominates evicted — and whether the system was admitted. *)

(** {1 Parallel search slices}

    Both exhaustive heuristics (enumeration and branch-and-bound) split
    their search space into independent slices, one per first-level
    implementation choice, so a {!Chop_util.Pool} can run them on separate
    domains.  Each slice accumulates results privately; {!Slice.merge}
    recombines them in task order into exactly the lists the sequential
    search would have produced, making parallel runs bit-identical to
    sequential ones. *)

module Slice : sig
  type t
  (** One slice's private counters, local non-dominated front, and
      admitted and explored systems in the order it met them. *)

  val create : unit -> t

  val step : t -> unit
  (** Count a considered combination (or pruned stem) without integrating. *)

  val avoid : t -> unit
  (** Count a combination rejected by {!Integration.quick_check}: a trial,
      but neither an integration nor an explored design. *)

  val set_cache_hits : t -> int -> unit
  (** Attribute integration-cache chip hits to this slice (the delta of
      {!Integration.chip_cache_hits} across the slice's run). *)

  val cache_hit_total : t list -> int

  val record : keep_all:bool -> t -> Integration.system -> unit
  (** Count an integration, append to the explored list when [keep_all],
      and admit the system into the slice-local front when feasible. *)

  val merge : keep_all:bool -> cpu_seconds:float -> t list -> outcome
  (** Recombine slices (given in first-level task order) and {!finalize}.
      The explored list is the task-order concatenation reversed, matching
      the sequential accumulator; the global front is rebuilt by replaying
      each slice's admissions through {!admit} in order — sound because
      Pareto dominance makes local eviction imply global eviction.
      [stats.feasible_trials] is the sum of the per-slice [feasible]
      counters, i.e. the number of feasible integrations, exactly as the
      sequential searches count it. *)
end
