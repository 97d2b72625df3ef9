(** Resource-constrained list scheduling.

    Critical-path list scheduling: ready operations are issued in order of
    decreasing urgency (longest dependence chain to any sink, the measure of
    Sehwa [8]), limited by the functional-unit allocation.  Functional units
    are not internally pipelined: a multi-cycle operation occupies its unit
    for its whole latency. *)

exception No_progress of { graph : string; ops : int; bound : int }
(** The scheduler's stall guard tripped: more than [bound] loop iterations
    without retiring every operation.  [bound] scales with
    [ops x max latency], so this cannot fire on a well-formed graph of any
    size — it indicates an internal invariant violation.  [graph] is the
    (sub)graph name, which carries the partition label for partition
    subgraphs, so servers can report which partition stalled. *)

type prepared
(** A graph under one latency function — the per-node latencies,
    functional classes, predecessor counts and urgencies — ready to be
    scheduled under any number of allocations.  Immutable: {!schedule}
    works on copies of its mutable state. *)

val prepare :
  latency:(Chop_dfg.Graph.node -> int) -> Chop_dfg.Graph.t -> prepared
(** @raise Invalid_argument when [latency] returns < 1 for a computational
    node. *)

val schedule : prepared -> alloc:Schedule.alloc -> Schedule.t
(** @raise Invalid_argument when the allocation misses a class the graph
    needs, repeats a class or gives a non-positive count.
    @raise No_progress when the internal stall guard trips (never on a
    well-formed graph). *)

val run :
  latency:(Chop_dfg.Graph.node -> int) ->
  alloc:Schedule.alloc ->
  Chop_dfg.Graph.t ->
  Schedule.t
(** [schedule (prepare ~latency g) ~alloc].
    @raise Invalid_argument when the allocation misses a class the graph
    needs, gives a non-positive count, or [latency] returns < 1 for a
    computational node.
    @raise No_progress when the internal stall guard trips (never on a
    well-formed graph). *)

val minimal_alloc : Chop_dfg.Graph.t -> Schedule.alloc
(** One unit per functional class used by the graph — the most serial
    allocation. *)

val maximal_useful_alloc :
  ?latency:(Chop_dfg.Graph.node -> int) -> Chop_dfg.Graph.t -> Schedule.alloc
(** Per class, the peak number of simultaneously-ready operations in the
    ASAP schedule — allocating more units can never improve the schedule. *)
