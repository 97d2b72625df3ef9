(** The CHOP exploration driver: BAD predictions per partition, two-level
    pruning, heuristic search and result collection (paper, Figure 1).

    The API is organised around two values:

    - {!Config.t} gathers every knob of an exploration — heuristic,
      pruning, keep-all, parallelism and caching — in one record;
    - {!Session.t} binds a configuration to a spec that evolves by edits:
      it owns the domain pool, the prediction-cache handle and the
      integration context.  {!Session.edit} applies a {!Spec.edit} list and
      records the dirty partitions; the next {!Session.run} derives only
      those, through the prediction cache, and serves every other
      partition from the entry the session kept from its last prediction
      pass.

    A one-shot exploration is a session with zero edits: {!with_engine}.

    The session's worker domains are spawned once at {!Session.create} and
    parked between runs; call {!Session.close} when done (or use
    {!with_engine}, which closes for you) to join them.  Sessions dropped
    without closing are caught by the pool's [Gc.finalise] backstop, so
    pre-lifecycle callers don't leak running domains. *)

type heuristic =
  | Enumeration  (** the paper's "E" *)
  | Iterative  (** the paper's "I" (Figure 5) *)
  | Branch_bound
      (** extension: exact DFS with admissible performance/area bounds
          ({!module:Bb_heuristic}); finds the enumeration heuristic's best
          designs with no more integrations *)

exception Cancelled
(** Raised out of {!Session.run_interruptible} when its interrupt callback
    fires — the serving layer's deadline-cancellation signal. *)

type bad_stats = {
  label : string;
  total_predictions : int;  (** all implementations BAD enumerated *)
  feasible_predictions : int;  (** feasible in isolation on the target chip *)
  kept : int;  (** after first-level pruning (feasible + non-inferior) *)
}

(** {1 Configuration} *)

module Config : sig
  type cache_scope =
    | Shared  (** the process-wide {!Pred_cache.shared} (the default) *)
    | Off  (** always re-predict *)
    | Custom of Pred_cache.t  (** a caller-owned cache *)

  type t = {
    heuristic : heuristic;
    keep_all : bool;
        (** record every integrated design — the mode behind the paper's
            Figures 7 and 8.  A search prunes its prediction lists at the
            first level exactly when [keep_all] is off; bare prediction
            queries ({!Session.predictions}) follow the spec's
            [discard_inferior] instead. *)
    pre_prune : bool;
        (** dominance pre-pruning of the search lists (default [true]):
            before an exhaustive search (enumeration or branch-and-bound),
            drop implementations dominated by an interchangeable sibling
            ({!module:Prune}).  Provably preserves the best feasible design
            and the feasible Pareto front; keep-all dumps lose only
            combinations built from dominated picks.  The iterative
            heuristic is never pre-pruned.  [chop explore --no-prune]
            sets this to [false]. *)
    jobs : int;  (** domain-pool size; 1 = fully sequential *)
    cache : cache_scope;
  }

  val default : t
  (** Iterative heuristic, no keep-all, pre-pruning on, [jobs = 1],
      shared cache. *)

  val make :
    ?heuristic:heuristic ->
    ?keep_all:bool ->
    ?pre_prune:bool ->
    ?jobs:int ->
    ?cache:cache_scope ->
    unit ->
    t
  (** {!default} with the given fields replaced.
      @raise Invalid_argument when [jobs < 1]. *)
end

(** {1 Metrics}

    The per-phase timing breakdown of one {!Session.run}.  {e Wall} seconds
    are elapsed time on the calling domain; {e busy} seconds are summed
    across pool participants, so busy exceeding wall is the signature of
    parallelism actually paying off, while wall far exceeding busy points
    at scheduling overhead.  Printed by [chop explore --stats] and written
    into [BENCH_explore.json] by the bench harness. *)

module Metrics : sig
  type phase = { wall_seconds : float; busy_seconds : float }

  type t = {
    predict : phase;  (** per-partition BAD prediction fan-out *)
    search : phase;
        (** the combination search (enumeration / B&B slices, or the
            sequential iterative scan, whose busy equals its wall) *)
    merge_wall_seconds : float;
        (** deterministic slice recombination ({!Search.Slice.merge}) *)
    worker_busy_seconds : float array;
        (** per-participant busy seconds across both parallel phases;
            index 0 is the calling domain *)
    chunk_count : int;  (** pool work chunks handed out across phases *)
    cache_hits : int;
        (** partitions served without running BAD: the session's carried
            entries (see {!Session.pending_dirty}) and cache hits *)
    cache_misses : int;  (** partitions that ran the BAD enumeration *)
    cache_evictions : int;
        (** prediction-cache entries evicted by its capacity bound while
            this run's predict phase executed ({!Pred_cache.counters}
            delta).  Under concurrent runs sharing one cache — the
            serving layer — evictions triggered by a neighbour's inserts
            can land in this run's delta. *)
    pruned_impls : int;
        (** implementations dropped by dominance pre-pruning before the
            search ({!Config.t}[.pre_prune]) *)
    integrations_avoided : int;
        (** combinations rejected by {!Integration.quick_check} without
            any integration work *)
    chip_cache_hits : int;
        (** per-chip report fragments served by the staged integration
            cache; varies with [jobs] (each domain fills its own cache) *)
  }

  val zero : t

  val summary : t -> string
  (** A small human-readable table of the breakdown. *)
end

(** {1 Reports} *)

type report = {
  heuristic : heuristic;
  bad : bad_stats list;
  outcome : Search.outcome;
  jobs : int;  (** pool size the exploration ran with *)
  metrics : Metrics.t;  (** the full per-phase timing breakdown *)
}

(** {1 Sessions}

    The paper's interactive loop (section 2.2): open a session on a spec,
    apply edits, re-run, repeat.  Edits are validated by {!Spec.update};
    a rejected edit list leaves the session untouched. *)

module Session : sig
  type t

  val create : ?pool:Chop_util.Pool.t -> ?history:int -> Config.t -> Spec.t -> t
  (** Binds a configuration to a spec.  The integration context is built
      eagerly and rebuilt after every edit, and the domain pool's
      workers are spawned here, once — see {!close}.  [pool] borrows an
      existing pool instead (the serving layer runs every request session
      over one shared pool): the session then ignores [config.jobs] for
      pool sizing, and {!close} leaves the borrowed pool running — its
      owner shuts it down.  [history] (default 32) bounds the undo stack:
      each successful {!edit} pushes the pre-edit spec, the oldest entry
      falling off beyond the bound; [0] disables undo entirely.
      @raise Invalid_argument when [history < 0]. *)

  val close : t -> unit
  (** Joins the session's worker domains (when the session owns them — a
      pool borrowed at {!create} is left untouched).  Idempotent.
      Subsequent {!run}, {!edit} or {!predictions} calls raise
      [Invalid_argument]. *)

  val config : t -> Config.t
  val spec : t -> Spec.t
  (** The current spec — the result of every edit applied so far. *)

  val context : t -> Integration.context

  val revision : t -> int
  (** Number of successful {!edit} calls so far. *)

  val pending_dirty : t -> string list
  (** Labels of partitions whose predictions must be recomputed by the next
      {!run}: every partition before the first run, then the accumulated
      [repredict] and [rederive] sets of edits applied since the last run.
      Sorted; cleared by a completed run.  The session keeps each
      partition's entry (raw list, feasible count, kept list) from its
      last completed prediction pass, and a pass serves every label not
      pending from that entry — with no subgraph, key or cache lookup.
      A label without an entry (a new or restored session, a label a
      split just created) is looked up in the cache.  An interrupted pass
      stores nothing. *)

  val jobs : t -> int
  (** Effective parallelism of the session's pool (participants, including
      the calling domain) — after the core-count clamp, so it may be lower
      than [config.jobs]. *)

  val fork : t -> t
  (** A cheap speculative copy of the session: it shares the parent's
      configuration, prediction cache and pool (borrowed — {!close} on a
      fork never shuts the pool down) and snapshots the parent's current
      spec, context, dirty set and carried entries, so a fork's run
      derives only what its own edits dirtied.  Edits and runs on the fork leave the
      parent untouched, while predictions the fork computes land in the
      shared cache — so committing the same edit on the parent afterwards
      re-serves them as cache hits.  Forks hold no resources of their own;
      closing them is optional. *)

  val speculate : t -> (t -> 'a) array -> 'a array * Chop_util.Pool.run_stats
  (** [speculate e fs] evaluates each [f] in [fs] over a private {!fork}
      of [e], concurrently on [e]'s pool, and returns the results in input
      order plus the batch's pool statistics.  The parent session is never
      mutated.  If a task raises, the batch drains fully and the
      lowest-indexed exception is re-raised here ({!Chop_util.Pool.run}
      semantics); the session and the pool both remain usable.  Nested
      pool submissions from a fork's {!run} fall back to inline execution,
      so probes cannot deadlock the shared pool. *)

  val edit : t -> Spec.edit list -> (Spec.dirty, Spec.update_error) result
  (** Apply edits to the session's spec ({!Spec.update} semantics: all or
      nothing, never raises).  On [Ok] the session's spec and integration
      context are replaced and the dirty partitions recorded, so the next
      {!run} derives only those and serves the others from their carried
      entries.  On [Error]
      the session is unchanged.  A successful edit also pushes the
      pre-edit spec onto the bounded undo stack and clears the redo
      stack. *)

  val undo : t -> (Spec.dirty, string) result
  (** Step back to the most recent pre-edit spec.  Specs are immutable, so
      this is a pointer swap plus a context rebuild; the dirty set is
      {!Spec.diff} between the two specs, folded into the pending set
      exactly as an edit's would be, and the revision counter advances (a
      revision counts spec mutations, in whichever direction).  The undone
      spec moves to the redo stack.  [Error] when the undo stack is
      empty. *)

  val redo : t -> (Spec.dirty, string) result
  (** Inverse of {!undo}: replay the most recently undone spec.  [Error]
      when the redo stack is empty (any successful {!edit} clears it). *)

  val undo_depth : t -> int
  val redo_depth : t -> int

  val run : t -> report
  (** Predict every partition (in parallel: pending ones through the
      cache, the others from their carried entries) and search the
      combinations.  For a given spec and configuration the outcome is
      deterministic: any [jobs] value produces the same report apart from
      the timing and cache-counter fields. *)

  val run_interruptible : interrupt:(unit -> bool) -> t -> report
  (** {!run} with cooperative cancellation: [interrupt] is polled at the
      run's phase boundaries and at the start of every per-partition
      prediction task; once it returns [true] the run raises {!Cancelled}
      (after the in-flight prediction batch drains, so the pool is left
      clean).  The search phase itself runs to completion — cancellation
      granularity is one phase, which the serving layer pairs with
      queue-time deadline checks. *)

  val predictions :
    t -> (string * Chop_bad.Prediction.t list) list * bad_stats list
  (** The per-partition prediction lists a search would consume, with
      per-partition BAD statistics — without searching.  First-level
      pruning follows the spec's [discard_inferior]; statistics always
      report both raw and pruned counts. *)

  (** {2 Durability}

      The serving layer persists sessions across process restarts: a
      {!state} is the durable projection — spec, revision, pending set and
      the undo/redo chains — and {!restore} resurrects it elsewhere.  The
      snapshot text format itself lives in {!module:Snapshot}. *)

  type state = {
    st_spec : Spec.t;
    st_revision : int;
    st_pending : string list;
    st_undo : Spec.t list;  (** most recent first *)
    st_redo : Spec.t list;
  }

  val state : t -> state
  (** Specs are immutable: the state shares them with the live session. *)

  val restore : ?pool:Chop_util.Pool.t -> ?history:int -> Config.t -> state -> t
  (** {!create} on the state's spec, then revision, pending and the
      undo/redo chains reinstated (the undo chain truncated to [history]).
      The pool, cache handle and integration context are rebuilt fresh and
      no entries are carried, so the first {!run} looks every partition up
      in the cache.  A spec restored in the process that saved it hits the
      entries its last run left there; a spec re-parsed elsewhere is keyed
      by its own node numbering, and predicts afresh where that differs. *)

  (** {2 Distributed slices}

      A front process (the gateway) can split an exhaustive search across
      backends: each backend runs {!run_slice} over the first-axis slices
      congruent to its index, ships the raw per-slice counters and
      admitted/explored rows, and the front replays every admission in
      global task order — {!Search.Slice.merge} at {!Search.Row} granularity
      — reproducing the single-process outcome byte for byte. *)

  type slice_run = {
    slice_bad : bad_stats list;
    first_total : int;
        (** first-axis choices in the full search (1 for the degenerate
            empty product, owned by index 0) *)
    slice_indices : int list;  (** global indices, aligned with [slices] *)
    slices : Search.Slice.t list;
  }

  val run_slice : index:int -> count:int -> t -> slice_run
  (** Predict (in full, through the cache) and search only the first-axis
      slices assigned to [index] of [count].  Slice-private bound
      bookkeeping makes each returned slice identical to the same slice of
      a full run.  The pending set is left untouched — a partial run is
      not a run.  Only the exhaustive heuristics slice; the iterative
      heuristic raises [Invalid_argument]. *)
end

val with_engine :
  ?pool:Chop_util.Pool.t -> Config.t -> Spec.t -> (Session.t -> 'a) -> 'a
(** [with_engine config spec f] runs [f] over a fresh session and
    {!Session.close}s it afterwards, whether [f] returns or raises.
    [pool] is passed through to {!Session.create}. *)

(** {1 Helpers} *)

val predictor_config : Spec.t -> label:string -> Chop_bad.Predictor.config
(** The BAD configuration CHOP derives from the spec for one partition
    (its memory blocks, the global clocks/style and the design params). *)

val partition_chip_area : Spec.t -> label:string -> Chop_util.Units.mil2
(** Usable area of the partition's assigned chip, pads deducted — the
    first-level pruning target. *)

val unique_designs : Integration.system list -> int
(** Distinct (initiation interval, delay cycles, likely area) design points
    among the explored systems — the "unique designs" count of Figures 7
    and 8. *)

val pp_heuristic : Format.formatter -> heuristic -> unit
