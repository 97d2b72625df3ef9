(** Designer guidelines.

    "When CHOP determines the feasibility of an implementation, it outputs
    the design decisions and prediction results.  This provides a guideline
    for the designer to synthesize the predicted implementation" (paper,
    sections 2.1 and 3.1). *)

val guideline : Spec.t -> Integration.system -> string
(** Full human-readable report for one feasible global implementation: the
    system timing, then per-partition design decisions (style, stages,
    module set, unit counts, register bits, multiplexers) and per
    data-transfer module its bandwidth, transfer/wait times, buffer size
    and controller PLA. *)

val summary_row : Spec.t -> Integration.system -> string list
(** [initiation interval; delay (cycles); clock (ns)] cells as in the
    paper's result tables. *)

val timeline : Integration.system -> string
(** ASCII Gantt chart of the urgency-scheduled tasks (processing units and
    data transfers), in main-clock cycles; empty systems render a
    placeholder. *)
