(** Memoized BAD prediction results, content-addressed.

    The exploration engine predicts each partition of a spec independently;
    advisor what-if probes, {!Sensitivity} sweeps and repeated runs over the
    same spec re-predict structurally identical subgraphs over and over.
    This cache memoizes those predictions behind {e structural} keys — the
    canonical digest of {!Chop_dfg.Canon} rather than the per-construction
    {!Chop_dfg.Graph.signature} — so the expensive
    {!Chop_bad.Predictor.predict} enumeration runs once per distinct
    (subgraph structure, predictor config) pair, process-wide: warm hits
    flow across [Spec.update] edits, [Explore.Session] instances, server
    engine keys and concurrent clients sharing {!shared}, however each of
    them happened to construct its graph.

    Two layers are kept:

    - the {e raw} layer maps {!Key.raw} (canonical-subgraph digest,
      predictor-config digest) to the unpruned prediction list — it
      survives changes to feasibility criteria or chip packages, so a
      sensitivity sweep that only moves a constraint still reuses the
      enumeration;
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

    Typed, spec-independent cache keys.  The former stringly
    [raw_key]/[full_key] entry points are gone: every caller builds a
    {!Key.raw} from the subgraph and predictor config (which also interns
    the subgraph into the {!Chop_dfg.Canon} sharing table) and extends it
    to a {!Key.full} per chip package and criteria. *)

module Key : sig
  type raw
  (** Identity of one BAD enumeration: canonical structural digest of the
      subgraph + predictor-config digest.  Also carries the subgraph's
      per-construction {!Chop_dfg.Graph.signature}, used only to classify
      hits as structural (see {!counters}). *)

  type full
  (** A {!raw} key extended with the chip package and feasibility criteria
      (pruning depends on both). *)

  val raw :
    sub:Chop_dfg.Graph.t ->
    cfg:Chop_bad.Predictor.config ->
    model:Model.t ->
    raw
  (** The model's {!Model.predictor_signature} joins the digest: hardware
      keys are byte-identical to the pre-model keys, software keys live in
      a disjoint space, so predictions never cross models. *)

  val full :
    raw:raw ->
    chip:Chop_tech.Chip.t ->
    criteria:Chop_bad.Feasibility.criteria ->
    full

  val raw_of_full : full -> raw
  (** The raw key a full key was built from — the entry whose age a
      full-layer hit refreshes. *)

  val raw_id : raw -> string
  (** The underlying digest string (diagnostics; stable across processes). *)

  val full_id : full -> string
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
  structural_hits : int;
      (** the subset of [hits] whose entry was created under a {e
          different} graph construction (the probe's
          {!Chop_dfg.Graph.signature} differs from the creator's) — hits
          that per-construction identity keying would have missed.  The
          measure of cross-session / cross-spec reuse. *)
}

val counters : t -> counters
(** Cumulative over the cache's lifetime (never reset, not even by
    {!clear}).  Counts {e lookups}, not partitions: the engine probes the
    full layer and then, on a miss, the raw layer, so one cold partition
    contributes two misses here but one miss to
    [Explore.Metrics.cache_misses].  A partition an [Explore.Session]
    serves from the entry it carried over from its last run makes no
    lookup at all, so a warm engine re-running its spec adds nothing
    here.  The eviction and structural-hit counters are what the per-run
    [Explore.Metrics] deltas and the server's [stats] request are built
    from. *)

(** {1 Lookup and insertion} *)

val find_raw : t -> Key.raw -> Chop_bad.Prediction.t list option
val add_raw : t -> Key.raw -> Chop_bad.Prediction.t list -> unit
val find_full : t -> Key.full -> entry option
val add_full : t -> Key.full -> entry -> unit
