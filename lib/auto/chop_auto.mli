(** Automatic constraint-driven partitioning.

    The paper's thesis — and the [chop_baseline] KL port's empirical
    result — is that min-cut cost does not correlate with behavioral
    feasibility.  This module therefore optimizes the partitioning with
    BAD prediction itself as the gain function: a multilevel
    coarsen–refine loop (heavy-edge matching on transfer bits, in the
    TritonPart / RePart style) whose refinement moves are evaluated
    through {!Chop.Explore.Session} forks — one [Spec.edit] per candidate
    move on a private speculative fork, scoped re-prediction of the two
    touched partitions, and cache-served predictions for everything else.
    Probes of a wave score concurrently on the session's domain pool; a
    rejected probe costs nothing to undo (the session was never touched),
    and the predictions it computed stay in the shared cache, so the
    committed winner's run re-serves them as hits.

    The loop:

    + the spec's own partitioning (typically an {!Chop_baseline.Autopart}
      strategy such as [Min_cut]) is the initial k-way split;
    + the DFG is coarsened inside each part by heavy-edge matching on
      transfer bits, never contracting a pair whose merge would create a
      cycle in the cluster quotient, down to roughly [coarse_target]
      clusters;
    + at each uncoarsening level, FM/KL-style passes move boundary
      clusters between parts in descending cut-gain order, accepting a
      move only when the BAD-predicted score strictly improves:
      feasibility first, then best-design performance, then likely area,
      then delay (for infeasible states: BAD per-partition feasible
      counts, then cut bits);
    + when the spec declares software processors ({!Chop.Spec.processors}),
      every pass also weighs implementation-model flips — rebinding a whole
      partition to a processor, or back to hardware — against the same
      score, so refinement explores the HW/SW co-design space jointly with
      the cut.  Hardware-only specs generate no flip candidates and behave
      exactly as before.

    Constraints: [pin op part] fixes an operation to a partition (the
    cluster containing it never moves); [together op,op,...] keeps a
    community of operations in one partition (they coarsen into one
    cluster and only move as a unit).  Communities are transitively
    closed over sandwiched operations (any op on a dependence path
    between two members is pulled in), since a non-convex community could
    never legally move as a unit anyway.

    Runs are deterministic for a given seed: candidate ordering breaks
    ties by a seeded hash, and session runs are deterministic. *)

type constraints = {
  pins : (Chop_dfg.Graph.node_id * string) list;
      (** operation -> partition label it must end in *)
  communities : Chop_dfg.Graph.node_id list list;
      (** groups of operations that must share a partition *)
}

val no_constraints : constraints

exception Invalid_constraints of string
(** A pin names an unknown operation or partition, a community member is
    unknown, pins inside one (closed) community disagree, or the
    constraints cannot be established on the seed partitioning by any
    sequence of legal moves. *)

type outcome = {
  spec : Chop.Spec.t;  (** the optimized spec (also the session's spec) *)
  report : Chop.Explore.report;
      (** exploration report of the final accepted state *)
  seed_report : Chop.Explore.report;
      (** exploration report of the seed partitioning, after constraint
          fix-up edits *)
  levels : int;  (** refinement levels (1 = no coarsening happened) *)
  coarse_clusters : int;  (** cluster count at the coarsest level *)
  moves_tried : int;
      (** candidate moves evaluated (speculative probe runs plus
          memo-served re-evaluations) *)
  moves_accepted : int;
  impl_flips : int;
      (** accepted moves that rebound a partition's implementation model
          (hardware to a processor or back).  Flip candidates are only
          generated when the spec declares processors, so hardware-only
          runs behave exactly as before and report [0]. *)
  speculative_runs : int;
      (** probe evaluations actually run on session forks (memo hits and
          illegal moves excluded) *)
  batch_rounds : int;  (** speculative waves dispatched to the pool *)
  spec_wall_seconds : float;
      (** wall time spent inside speculative waves, summed over rounds *)
  spec_busy_seconds : float;
      (** pool-participant busy time inside speculative waves, summed over
          rounds — [spec_busy / spec_wall] is the effective parallelism *)
  jobs : int;  (** effective pool parallelism (after the core clamp) *)
  cache_hits : int;  (** prediction-cache hits across refinement runs *)
  cache_misses : int;  (** prediction-cache misses across refinement runs *)
  cache_structural_hits : int;
      (** always 0: the prediction cache keys on the id-ordered subgraph,
          so no hit crosses graph constructions.  Kept only because the
          benchmark's auto-cold workload reads it, until a benchmark
          change retires it. *)
  interrupted : bool;
      (** the move/time budget or [interrupt] stopped refinement early;
          the outcome is still the best state found *)
  wall_seconds : float;
}

val refine :
  ?seed:int ->
  ?constraints:constraints ->
  ?max_moves:int ->
  ?time_limit_s:float ->
  ?coarse_target:int ->
  ?interrupt:(unit -> bool) ->
  Chop.Explore.Session.t ->
  outcome
(** Optimize the partitioning of an open session in place.  On return the
    session's spec is the outcome's spec (candidates are evaluated on
    speculative session forks, so only committed moves ever touch the
    session).  Defaults: [seed = 1], no constraints, [max_moves = 1024],
    no time limit.  [coarse_target] absent or [<= 0] means automatic —
    [max (2 * parts) 8] — so multilevel coarsening actually engages on
    realistic graph sizes; an explicit positive value is honored as
    before.

    Candidate moves are scored in waves of speculative probes run
    concurrently on the session's pool.  Wave composition, probe-score
    memoization and the commit rule (lowest-indexed improving candidate)
    depend only on the current state and [seed], never on the job count,
    so for a given seed the outcome — spec, report, levels, move and
    round counters — is byte-identical at any [jobs]; only timing and
    cache-counter fields vary.  [max_moves] is checked between waves, so
    a full wave may finish past the budget (deterministically).

    [interrupt] is polled between waves and passed through to
    {!Chop.Explore.Session.run_interruptible} for every probe and commit
    run, so a serving deadline cancels mid-prediction; a cancelled wave
    discards its probes, a cancelled commit is reverted, and refinement
    stops cleanly with [interrupted = true].  Exception: if the {e seed}
    run itself is cancelled there is no state to fall back to, and
    {!Chop.Explore.Cancelled} propagates.

    @raise Invalid_constraints (see above).
    @raise Chop.Explore.Cancelled when [interrupt] fires during the seed
    run. *)

val run :
  ?seed:int ->
  ?constraints:constraints ->
  ?max_moves:int ->
  ?time_limit_s:float ->
  ?coarse_target:int ->
  ?interrupt:(unit -> bool) ->
  ?pool:Chop_util.Pool.t ->
  config:Chop.Explore.Config.t ->
  Chop.Spec.t ->
  outcome
(** {!refine} over a fresh session on [spec], closed on return. *)
