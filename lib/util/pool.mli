(** A persistent fixed-size worker pool built on OCaml 5 domains.

    Worker domains are spawned once at {!create} and parked on a condition
    variable between fork-join calls, so a pool stored in long-lived
    session state (the exploration engine) pays the domain-spawn cost once
    instead of on every batch.  Work is distributed in contiguous index
    chunks of [max 1 (n / (8 * jobs))] tasks drawn from a single atomic
    cursor — coarse enough to keep cursor contention negligible, fine
    enough to balance uneven task costs — and results are stored back by
    index, so {!run} and {!map_list} always return results in task order
    regardless of which domain ran which chunk: callers get deterministic
    output for deterministic tasks.

    A pool with [jobs = 1] (see {!sequential}) executes everything inline
    on the calling domain with no spawning at all.

    Lifecycle: call {!shutdown} when done with a pool (idempotent; joins
    the worker domains).  Pools dropped without shutdown are caught by a
    [Gc.finalise] backstop that asks the parked workers to exit, so
    pre-lifecycle callers don't leak running domains.

    One pool can be shared by several submitting threads (the serving
    layer runs every request engine over a single pool): the helper
    domains serve one batch at a time, and a submitter that finds them
    busy — including a nested submission from inside a task — executes
    its batch inline on its own thread instead of blocking.  Results are
    identical either way; only the reported parallelism differs. *)

type t

(** Per-batch execution statistics, as returned by {!run_timed}. *)
type run_stats = {
  worker_busy : float array;
      (** seconds each participant spent executing tasks; index 0 is the
          calling domain, indices 1.. the helper workers.  A participant
          that executed no task reports 0. *)
  chunk_count : int;  (** number of index chunks handed out *)
}

val sequential : t
(** The single-job pool: every call runs inline on the caller's domain. *)

val create : ?oversubscribe:bool -> jobs:int -> unit -> t
(** A pool of at most [jobs] concurrent domains (including the caller's).
    Helper domains are spawned immediately and parked until work arrives;
    their count is [min jobs (Domain.recommended_domain_count ()) - 1]:
    OCaml 5 minor collections are stop-the-world barriers across every
    running domain, so spawning more domains than the host has cores
    multiplies wall time rather than hiding latency — a [--jobs 4] run on
    a single-core host executes inline, within noise of [--jobs 1].
    [oversubscribe] (default [false]) disables the clamp and spawns
    [jobs - 1] helpers unconditionally (used by the pool's own stress
    tests; rarely what production callers want).
    @raise Invalid_argument when [jobs < 1]. *)

val jobs : t -> int
(** The parallelism budget the pool was created with — the requested
    [jobs], even when the core-count clamp spawned fewer helpers. *)

val shutdown : t -> unit
(** Wakes the parked helper domains, asks them to exit and joins them.
    Idempotent; a no-op on single-job pools.  Subsequent {!run} calls on a
    shut-down multi-job pool raise [Invalid_argument]. *)

val default_jobs : unit -> int
(** The [CHOP_JOBS] environment variable when set to a positive integer,
    otherwise [Domain.recommended_domain_count ()].  A malformed
    [CHOP_JOBS] value falls back to the core count and warns once on
    stderr. *)

val run : t -> (unit -> 'a) array -> 'a array
(** [run t tasks] executes every task and returns their results in task
    order.  At most [jobs t] domains run concurrently.  If a task raises,
    the batch still drains completely (every task executes) and then the
    exception of the lowest-indexed failing task is re-raised on the
    caller's domain with its backtrace.
    @raise Invalid_argument when the pool has been {!shutdown}. *)

val run_timed : t -> (unit -> 'a) array -> 'a array * run_stats
(** {!run} plus per-participant busy times and the chunk count — the raw
    material of the engine's timing breakdown. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list t f xs] is [List.map f xs] evaluated on the pool. *)
