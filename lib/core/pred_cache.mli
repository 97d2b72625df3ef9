(** Memoized BAD prediction results.

    The exploration engine predicts each partition of a spec independently;
    advisor what-if probes, {!Sensitivity} sweeps and repeated runs over the
    same spec re-predict the same subgraphs over and over.  This cache
    memoizes those predictions behind keys built from exactly what the
    predictor reads (see {!Key.raw}), so the expensive
    {!Chop_bad.Predictor.predict} enumeration runs once per distinct
    (id-ordered subgraph, predictor input) pair, process-wide: warm hits
    flow across [Spec.update] edits, [Explore.Session] instances, server
    engine keys and concurrent clients sharing {!shared}, and a hit always
    returns what a fresh prediction would.

    Two layers are kept:

    - the {e raw} layer maps {!Key.raw} (subgraph signature, model
      identity) to the unpruned prediction list — it survives changes to
      feasibility criteria or chip packages, so a sensitivity sweep that
      only moves a constraint still reuses the enumeration;
    - the {e full} layer keys on {!Key.full} (the raw key extended with
      the chip package and the feasibility criteria) and stores the derived
      per-partition results (feasible count and pruned list), skipping even
      the filtering work when an identical exploration repeats.

    All operations are thread-safe: a single mutex guards both tables,
    the LRU stamps {e and} the {!counters}, so concurrent speculative
    writers ({!Explore.Session.speculate} probes racing on one shared
    cache) can never lose a counter update or observe a torn entry —
    lookups and insertions sum exactly across any interleaving.  Callers
    are expected to compute predictions {e outside} the lock and insert
    afterwards, accepting the occasional duplicated computation on a race
    (two probes that both miss on the same fresh subgraph each run the
    predictor; both insertions store the identical value, so only the
    hit/miss split — never a cached value — depends on timing).  Cached
    predictions carry the partition label of the run that populated the
    entry — retrieve with {!Chop_bad.Prediction.relabel}-style copying if
    labels matter (the engine does). *)

type t

type entry = {
  raw : Chop_bad.Prediction.t list;  (** unpruned predictor output *)
  feasible_count : int;  (** predictions feasible in isolation on the chip *)
  kept : Chop_bad.Prediction.t list;  (** after first-level pruning *)
}

(** {1 Keys}

    Typed, spec-independent cache keys, compared structurally: a hit
    needs an equal subgraph encoding {e and} an equal model identity, chip
    and criteria, not equal digests of them. *)

module Key : sig
  type raw
  (** Identity of one prediction enumeration: the subgraph's
      {!Chop_dfg.Graph.signature} (its id-ordered encoding itself, so no
      hit rests on a digest match) plus the model identity — the
      {!Chop_bad.Predictor.config} itself for hardware, the processor and
      the clocks for software. *)

  type full
  (** A {!raw} key extended with the chip package and feasibility criteria
      (pruning depends on both). *)

  val raw :
    sub:Chop_dfg.Graph.t ->
    cfg:Chop_bad.Predictor.config ->
    model:Model.t ->
    raw
  (** The key rests on one premise: equal keys give equal predictions.
      BAD and {!Chop_model_sw.Sw_predict} read a subgraph's ids, operations,
      widths and edges, and never its node or graph names.  They read each
      node's predecessor list only in order-insensitive ways — counts,
      maxima and checks ([List_sched]'s computational-operand count,
      [Chain_sched]'s latest-operand fold, [Force_directed]'s ASAP
      bound) — while {!Chop_dfg.Graph.signature} covers the rest: node ids
      in topological order and each node's successors in order.  The same
      structure numbered differently gets a different key, because the
      schedulers break ties by node id.  Hardware and software identities
      are different constructors, so predictions never cross models; two
      software partitions share entries exactly when their processors and
      clocks are equal. *)

  val full :
    raw:raw ->
    chip:Chop_tech.Chip.t ->
    criteria:Chop_bad.Feasibility.criteria ->
    full
end

val create : ?capacity:int -> unit -> t
(** A fresh, empty cache.  [capacity] bounds the total entry count across
    both layers (default: unbounded); see {!set_capacity}. *)

val shared : t
(** The process-wide cache used by default by [Explore.Session].  Bounded
    at {!default_shared_capacity} entries so long-running sessions
    (advisor loops, sweeps over many specs) cannot grow it without
    limit. *)

val default_shared_capacity : int
(** The entry bound {!shared} is created with. *)

val clear : t -> unit

val length : t -> int
(** Number of entries across both layers. *)

val set_capacity : t -> int option -> unit
(** Bounds (or, with [None], unbounds) the total entry count.  When a
    bound is in force, inserting beyond it evicts the least-recently-used
    entries — both layers compete for the same budget.  Every [find_*]
    hit refreshes its entry's age, and a full-layer hit additionally
    refreshes the raw entry its key extends, so repeated derived lookups
    (sensitivity sweeps, criteria edits) keep their raw working set
    alive. *)

val capacity : t -> int option
(** The current entry bound. *)

(** {1 Counters} *)

type counters = {
  hits : int;  (** [find_*] lookups that found their entry *)
  misses : int;  (** [find_*] lookups that came back empty *)
  evictions : int;  (** entries dropped by the capacity bound *)
}

val counters : t -> counters
(** Cumulative over the cache's lifetime (never reset, not even by
    {!clear}).  Counts {e lookups}, not partitions: the engine probes the
    full layer and then, on a miss, the raw layer, so one cold partition
    contributes two misses here but one miss to
    [Explore.Metrics.cache_misses].  A partition an [Explore.Session]
    serves from the entry it carried over from its last run makes no
    lookup at all, so a warm engine re-running its spec adds nothing
    here.  The eviction counter is what the per-run [Explore.Metrics]
    delta is built from; the server's [stats] request reports all
    three. *)

(** {1 Lookup and insertion} *)

val find_raw : t -> Key.raw -> Chop_bad.Prediction.t list option
val add_raw : t -> Key.raw -> Chop_bad.Prediction.t list -> unit
val find_full : t -> Key.full -> entry option
val add_full : t -> Key.full -> entry -> unit
