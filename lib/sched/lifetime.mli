(** Value-lifetime analysis for register prediction.

    A value is live from the step its producer finishes until the last step
    a consumer starts; primary-input values are live from step 0, values
    feeding primary outputs stay live until the schedule ends.  Register
    demand is the peak number of live bits.  For pipelined designs the
    lifetimes are folded modulo the initiation interval, since [stage_count]
    problem instances are simultaneously in flight.

    The analysis runs in three stages so that a caller deriving many
    demands can do each piece of work once: {!values} per graph, {!live}
    per schedule and {!demand} per initiation interval.  {!analyze} is
    their composition. *)

type demand = {
  register_bits : int;  (** peak live bits = predicted data-path register bits *)
  peak_values : int;  (** number of values live at the peak step *)
}

type values
(** The graph's values that can be live, with their widths, consumers and
    primary-output uses. *)

val values : Chop_dfg.Graph.t -> values

type live
(** Live bits and live values per step of one schedule, unfolded. *)

val live : values -> Schedule.dense -> live
(** [values] must come from the schedule's graph. *)

val demand : ?ii:int -> live -> demand
(** [ii] folds lifetimes for a pipelined design; omit it for non-pipelined.
    @raise Invalid_argument when [ii < 1]. *)

val analyze : ?ii:int -> Schedule.t -> demand
(** [demand ?ii (live (values s.graph) (Schedule.dense s))].
    @raise Invalid_argument when [ii < 1]. *)
