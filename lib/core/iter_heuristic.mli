(** The iterative search heuristic ("I" in the paper's result tables) —
    Figure 5 of the paper.

    For each feasible initiation interval [l], start every partition at its
    fastest rate-compatible predicted implementation and iteratively
    serialize partitions residing on chips whose area constraint is
    violated, choosing at each step the serialization with the smallest
    expected system delay (found by urgency scheduling).  This favors
    serializing off-critical-path partitions. *)

val candidate_intervals :
  Integration.context -> (string * Chop_bad.Prediction.t list) list -> int list
(** The feasible initiation intervals to explore: the distinct
    partition-implementation rates (in main-clock cycles) that do not
    already violate the performance constraint at the nominal clock,
    ascending. *)

val run :
  ?keep_all:bool ->
  Integration.context ->
  (string * Chop_bad.Prediction.t list) list ->
  Search.outcome
(** Sequential; one integration cache is reused across the whole walk
    (each serialization step changes a single pick, so the staged
    integration shares nearly everything). *)
