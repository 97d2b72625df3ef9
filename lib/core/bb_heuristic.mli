(** Branch-and-bound combination search (an extension heuristic, "B").

    The paper ships two heuristics and notes that "neither ... can be
    claimed to be better than the other"; this third one is exact on the
    pruned prediction lists: a depth-first search over partitions with
    admissible bounds — a partial combination is abandoned when its
    performance lower bound (the slowest partition chosen so far at the
    cheapest possible clock) already violates the constraint, or when the
    partitions already placed on one chip cannot fit it even with the
    smallest possible remaining areas.  The bounds are admissible, so the
    result matches the enumeration heuristic's best designs exactly; on
    first-level-pruned prediction lists the bounds rarely fire (the pruning
    already removed what they would cut), which is itself evidence for the
    paper's claim that pruning carries the search. *)

val run :
  ?keep_all:bool ->
  ?pool:Chop_util.Pool.t ->
  ?metrics:Search.parallel_metrics ref ->
  Integration.context ->
  (string * Chop_bad.Prediction.t list) list ->
  Search.outcome
(** [pool] (default sequential) searches root subtrees — one per
    implementation of the first partition — on separate domains, each with
    private bound bookkeeping; results are merged deterministically, so the
    outcome is identical to the sequential one.  Outside keep-all mode,
    leaves that {!Integration.quick_check} proves infeasible are counted
    as trials but not integrated.  [metrics], when given, receives the
    search/merge timing breakdown of this run. *)
