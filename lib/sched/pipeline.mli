(** Pipelined-design initiation-interval analysis (Sehwa-style [8]).

    Given a resource-constrained schedule, successive problem instances may
    be initiated every [ii] steps provided no functional class is
    oversubscribed when the schedule is overlapped with itself modulo [ii].
    The resynchronization (pipe-flushing) rate is assumed to be zero (paper,
    section 2.3). *)

val feasible_ii : Schedule.t -> ii:int -> bool
(** Can the schedule sustain one initiation every [ii] steps?
    @raise Invalid_argument when [ii < 1]. *)

val min_ii : Schedule.t -> int
(** Smallest feasible initiation interval; at most the schedule length
    (which is always feasible), at least the resource-bound
    [ceil (work_c / alloc_c)] over classes [c]. *)

val first_feasible : Schedule.dense -> int
(** [min_ii] of the dense form's schedule: [min_ii s] is
    [first_feasible (Schedule.dense s)].  A caller that derives several
    facts from one schedule builds its dense form once. *)

val stage_count : Schedule.t -> ii:int -> int
(** Number of pipeline stages when initiating every [ii] steps:
    [ceil (length / ii)]. *)
