(** System-integration prediction (paper, section 2.5).

    Given one predicted implementation per partition, CHOP predicts the
    data-transfer-module characteristics and the overall system performance
    and delay: transfer bandwidths under the hard pin-count constraints,
    urgency scheduling of all tasks over shared chip pins and memory ports,
    buffer sizes [B = D * (ceil(W/l) + X/l)], data-transfer-module
    controller PLAs, pin-multiplexing overhead, the adjusted clock cycle and
    per-chip area feasibility.

    The work is staged: everything derivable from the spec alone (transfer
    bandwidths and durations, scheduler resources, pin-mux and memory
    areas, bonded pins) is computed once when the {!context} is built;
    per-combination work that many combinations share (the urgency
    schedule and everything derived from it, buffer sizes at a given
    interval) is memoized in a {!cache}.  Each chip's report is computed
    afresh for every combination. *)

type combination = (string * Chop_bad.Prediction.t) list
(** One chosen prediction per partition label. *)

type context
(** Precomputed per-spec structure (transfer tasks, pin budgets, scheduler
    resources, per-chip constants); build once and reuse across the many
    combinations a search explores. *)

val context : Spec.t -> context
val spec_of : context -> Spec.t
val tasks_of : context -> Transfer.task list

val data_pins : context -> string -> int
(** Shared data pins available on the chip after infrastructure
    reservations; may be 0 (the chip cannot transfer data). *)

type dtm = {
  task : Transfer.task;
  bandwidth : int;  (** bits moved per data-transfer cycle *)
  transfer_main : int;  (** X: transfer duration in main-clock cycles *)
  wait_main : int;  (** W: wait before pins were available, main cycles *)
  buffer_bits : int;  (** B, from the paper's buffer formula *)
  ctrl_shape : Chop_tech.Pla.shape;  (** controller of each module *)
}

type chip_report = {
  instance : Spec.chip_instance;
  partition_labels : string list;
  signal_pins : int;  (** bonded signal pins: data + control + memory *)
  pin_mux_area : Chop_util.Units.mil2;
  dtm_area : Chop_util.Units.mil2;
  buffer_area : Chop_util.Units.mil2;
  memory_area : Chop_util.Units.mil2;
  area_parts : Chop_util.Triplet.t list;  (** all contributors *)
  available : Chop_util.Units.mil2;
  area_verdict : Chop_bad.Feasibility.verdict;
  power : float;
}

type failure =
  | No_failure
  | Rate_mismatch of string list
      (** pipelined partitions whose data rates disagree *)
  | Area_violation of string list  (** partitions on over-full chips *)
  | Data_clash  (** a transfer outlasts the initiation interval *)
  | Too_slow  (** the performance constraint is violated *)
  | Delay_exceeded  (** the system-delay constraint is violated *)
  | Structural of string  (** pin exhaustion, memory overload, ... *)

type system = {
  combination : combination;
  ii_main : int;  (** global initiation interval, main cycles *)
  clock : Chop_util.Units.ns;  (** adjusted global clock *)
  perf_ns : Chop_util.Units.ns;
  delay_cycles : int;  (** urgency-schedule makespan, main cycles *)
  delay : Chop_util.Triplet.t;  (** system delay prediction, ns *)
  dtms : dtm list;
  chip_reports : chip_report list;
  task_schedule : Chop_sched.Urgency.result option;
  verdict : Chop_bad.Feasibility.verdict;
  failure : failure;  (** structured cause behind an [Infeasible] verdict *)
}

val feasible : system -> bool

val integrate : context -> ?ii_target:int -> combination -> system
(** Runs the full integration prediction.  [ii_target] forces the candidate
    initiation interval (the iterative heuristic explores one [l] at a
    time); otherwise the smallest consistent interval is used.  An
    infeasible rate mix, pin exhaustion or a data clash yields a [system]
    with an [Infeasible] verdict and whatever was computed up to that
    point.  @raise Invalid_argument when the combination does not cover the
    partitioning exactly.

    Equivalent to [integrate_cached (cache ctx)] — a search integrating
    many combinations should hold on to one {!cache} instead. *)

val objectives : system -> float array
(** [| perf_ns; likely delay; likely total area |] for inferiority pruning
    and design-space scatter plots. *)

val total_area : system -> Chop_util.Triplet.t

(** {1 Memoized integration}

    A cache memoizes the two stages of the integration that combinations
    share: the urgency schedule (keyed by each partition's latency and
    memory demands) and buffer sizing (schedule x interval).  Results are
    bit-identical to {!integrate}.  A cache is single-domain mutable
    state — do not share one across domains; see {!session}. *)

type cache

val cache : context -> cache
(** A fresh, empty cache for this context. *)

val integrate_cached : cache -> ?ii_target:int -> combination -> system
(** As {!integrate}, reusing and filling [cache]. *)

val quick_check : cache -> combination -> bool
(** [quick_check cache comb] is [true] when the combination is provably
    infeasible without running the integration: the optimistic
    interval-times-clock lower bound already violates the performance
    constraint, the rate mix is mismatched, or some chip cannot fit even
    the optimistic (low) areas of its picks.  Sound only for the default
    interval derivation — never consult it when forcing [ii_target].
    [false] means the full integration must decide. *)

(** {2 Per-domain caches}

    Parallel searches run slices on a pool of domains.  A [session]
    identifies one search over one context; {!domain_cache} returns a
    cache private to the calling domain, created on first use and reused
    across all of that domain's slices of the same session. *)

type session

val session : context -> session

val domain_cache : session -> cache
(** The calling domain's cache for this session.  Entering a new session
    drops the domain's previous cache. *)
