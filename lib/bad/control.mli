(** PLA-based controller prediction for processing units.

    The controller sequences the schedule: one state per control step
    (the initiation interval for pipelined designs, since the control loop
    wraps at [ii]), with status inputs from comparison operations and the
    distributed-control handshake, and control outputs driving functional
    units, multiplexer select trees and register loads. *)

val comparisons : Chop_dfg.Graph.t -> int
(** The graph's [Compare] operations, each a status input. *)

val controller :
  comparisons:int ->
  sched:Chop_sched.Schedule.t ->
  est:Datapath.estimate ->
  ii:int ->
  pipelined:bool ->
  Chop_tech.Pla.shape
(** {!shape} with the schedule's graph's {!comparisons} given, so a caller
    pricing many design points of one graph counts them once. *)

val shape :
  sched:Chop_sched.Schedule.t ->
  est:Datapath.estimate ->
  ii:int ->
  pipelined:bool ->
  Chop_tech.Pla.shape

val area : Chop_tech.Pla.shape -> Chop_util.Units.mil2
val delay : Chop_tech.Pla.shape -> Chop_util.Units.ns
