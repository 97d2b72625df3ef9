(** Operation schedules.

    A schedule assigns each computational node of a DFG a start step (in
    data-path cycles) under a functional-unit allocation: a number of unit
    instances per functional class. *)

type alloc = (string * int) list
(** Functional-unit allocation: [(class, instances)], each count >= 1,
    classes unique. *)

val alloc_get : alloc -> string -> int
(** Instances allocated to a class; 0 when absent. *)

val validate_alloc : alloc -> unit
(** @raise Invalid_argument on duplicate classes or non-positive counts. *)

type t = {
  graph : Chop_dfg.Graph.t;
  alloc : alloc;
  starts : (Chop_dfg.Graph.node_id * int) list;
      (** start step per computational node *)
  latencies : (Chop_dfg.Graph.node_id * int) list;
      (** steps each computational node occupies (>= 1) *)
  length : int;  (** schedule length: max finish step *)
}

val start : t -> Chop_dfg.Graph.node_id -> int
(** @raise Not_found for nodes without a start (boundary nodes). *)

val finish : t -> Chop_dfg.Graph.node_id -> int

type dense = private {
  sched : t;
  start_at : int array;
      (** start step by node id; -1 on nodes without a start *)
  latency_of : int array;  (** steps by node id; 0 on nodes without a start *)
  busy : int array array;
      (** per allocation class, in [sched.alloc] order: the class's
          {!busy_profile} *)
}
(** A schedule with its per-node facts in arrays, computed once and shared
    by every analysis of the schedule (register lifetimes, initiation
    intervals, memory bandwidth). *)

val dense : t -> dense

val check : t -> (unit, string) result
(** Verifies precedence (every operation starts no earlier than each
    predecessor's finish) and per-step resource usage within the
    allocation.  Returns [Error reason] on the first violation. *)

val busy_profile : t -> cls:string -> int array
(** [busy_profile s ~cls].(step) = units of [cls] busy at [step]; length
    equals [s.length]. *)

val pp : Format.formatter -> t -> unit
