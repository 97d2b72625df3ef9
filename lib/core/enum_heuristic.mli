(** The explicit-enumeration search heuristic ("E" in the paper's result
    tables).

    "The heuristic searches all possible combinations of implementing the
    global design ... given the predicted implementations of individual
    partitions" — [N = prod N_i] combinations, assuming the performance of a
    combination is set by the slowest partition implementation (paper,
    section 2.4). *)

val run :
  ?keep_all:bool ->
  ?pool:Chop_util.Pool.t ->
  ?metrics:Search.parallel_metrics ref ->
  Integration.context ->
  (string * Chop_bad.Prediction.t list) list ->
  Search.outcome
(** [run ctx per_partition] enumerates the cartesian product of the
    prediction lists.  Combinations whose slowest-partition performance
    bound already violates the performance constraint are counted as trials
    but not integrated, and — outside keep-all mode — so are combinations
    {!Integration.quick_check} proves infeasible ([stats.integrations_avoided]);
    [keep_all] records every integrated design to expose the full design
    space, so there the quick check is bypassed.  [pool] (default
    sequential) searches the product in parallel, one slice per
    implementation of the first partition, with deterministic merging: the
    outcome is identical to the sequential one.  [metrics], when given,
    receives the search/merge timing breakdown of this run. *)
