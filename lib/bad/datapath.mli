(** Data-path resource prediction: register bits, multiplexer count, net
    count and area roll-up for a scheduled partition.

    The estimate is built in three stages, so that BAD, which prices many
    schedules of one graph and several initiation intervals of each
    schedule, does each piece of work once: {!facts} per graph, {!units}
    per module set and allocation, {!roll_up} per design point.
    {!estimate} is their composition. *)

type estimate = {
  register_bits : int;
  peak_values : int;
  mux_count : int;  (** equivalent 1-bit 2:1 multiplexers *)
  nets : int;  (** point-to-point nets, for the wiring model *)
  fu_area : Chop_util.Units.mil2;
  register_area : Chop_util.Units.mil2;
  mux_area : Chop_util.Units.mil2;
  mux_select_delay : Chop_util.Units.ns;
      (** worst mux-tree delay in front of a functional unit *)
}

type facts = {
  profile : (string * int) list;  (** {!Chop_dfg.Graph.op_profile} *)
  values : int;  (** operations plus primary inputs *)
  edges : int;
}

val facts : Chop_dfg.Graph.t -> facts

type units
(** Functional-unit input steering, area and mux-tree delay under one
    module set and allocation. *)

val units :
  facts ->
  module_set:Chop_tech.Component.t list ->
  alloc:Chop_sched.Schedule.alloc ->
  units

val roll_up : facts -> units -> Chop_sched.Lifetime.demand -> estimate
(** Adds register-file input steering for the given register demand. *)

val estimate :
  module_set:Chop_tech.Component.t list ->
  ?ii:int ->
  Chop_sched.Schedule.t ->
  estimate
(** [ii] folds register lifetimes for pipelined designs.  The multiplexer
    count combines functional-unit input steering (operations sharing a
    unit) with register-file input steering (values sharing a register). *)
