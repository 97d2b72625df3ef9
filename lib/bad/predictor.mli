(** BAD — the Behavioral Area-Delay Predictor.

    Given a behavioral (sub-)specification, BAD enumerates predicted
    implementations across design styles (pipelined / non-pipelined), all
    module-set combinations and serial-parallel allocations, and predicts
    for each: schedule timing, register and multiplexer allocation,
    PLA controller area/delay, standard-cell routing area, the clock-cycle
    stretch, and memory bandwidth requirements (paper, section 2.4). *)

type scheduler =
  | List_based
      (** enumerate functional-unit allocations; critical-path list
          scheduling per allocation (the default) *)
  | Force_directed
      (** enumerate schedule lengths; Paulin–Knight force-directed
          scheduling derives the minimal allocation per length [9] *)

type config = {
  library : Chop_tech.Component.library;
  memories : Chop_tech.Memory.t list;
      (** memory blocks the partition's memory operations may access *)
  clocks : Chop_tech.Clocking.t;
  style : Chop_tech.Style.t;
  alloc_cap : int;  (** per-class enumeration cap (default 8) *)
  max_pipelined_iis : int;
      (** initiation-interval options enumerated per pipelined design *)
  testability_overhead : float;
      (** fractional scan-path area overhead, 0.0 disables (paper §5) *)
  scheduler : scheduler;
  chaining : bool;
      (** single-cycle style only: chain dependent operations
          combinationally within the long data-path cycle, as
          contemporary synthesis tools did *)
}

val config :
  ?alloc_cap:int ->
  ?max_pipelined_iis:int ->
  ?testability_overhead:float ->
  ?memories:Chop_tech.Memory.t list ->
  ?scheduler:scheduler ->
  ?chaining:bool ->
  library:Chop_tech.Component.library ->
  clocks:Chop_tech.Clocking.t ->
  style:Chop_tech.Style.t ->
  unit ->
  config
(** Defaults: cap 8, 8 II options, no testability overhead, no memories,
    list-based scheduling, no chaining. *)

val latency_function :
  config ->
  module_set:Chop_tech.Component.t list ->
  Chop_dfg.Graph.node ->
  int
(** The per-operation latency (data-path cycles) BAD schedules with, for
    the given module set: 1 in the single-cycle style; the module delay
    plus nominal register/mux overhead divided by the data-path cycle in
    the multi-cycle style; memory accesses per their block's access time.
    Exposed so downstream synthesis ({!module:Chop_rtl}-style backends) can
    rebuild exactly the schedule a prediction describes. *)

val predict : config -> label:string -> Chop_dfg.Graph.t -> Prediction.t list
(** Every enumerated predicted implementation of the given behavioral graph
    (no feasibility pruning: that is CHOP's job).  The result is empty when
    the library does not cover the graph's functional classes.
    @raise Invalid_argument when the graph has memory operations that
    reference blocks absent from [memories]. *)

val prune :
  config ->
  criteria:Feasibility.criteria ->
  chip_area:Chop_util.Units.mil2 ->
  Prediction.t list ->
  Prediction.t list
(** First-level pruning (paper, section 2.1): discard predictions that are
    infeasible in isolation on the target chip, then discard inferior
    (Pareto-dominated) ones. *)
