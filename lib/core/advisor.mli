(** System-level advising: the four partitioning-modification groups of the
    paper's section 2.7, each returning a fresh specification, plus fast
    what-if feedback so "the designer can easily check the effects of
    system-level decisions in real time" (section 4). *)

exception Rejected of string
(** A modification that violates the spec invariants (e.g. moving an
    operation would create mutual data dependency between partitions). *)

val move_operation :
  Spec.t -> op:Chop_dfg.Graph.node_id -> to_partition:string -> Spec.t
(** Behavioral-partition modification: migrate one operation.
    @raise Rejected when the quotient graph would become cyclic, the
    source partition would become empty, or the target does not exist. *)

val move_partition : Spec.t -> partition:string -> to_chip:string -> Spec.t
(** Migrate a partition to another chip. *)

val rehost_memory : Spec.t -> block:string -> to_chip:string -> Spec.t
(** Memory-block modification: change an on-chip block's host.
    @raise Rejected for off-chip blocks. *)

val swap_package : Spec.t -> chip:string -> Chop_tech.Chip.t -> Spec.t
(** Target-chip-set modification: replace a chip's package. *)

val set_constraints :
  Spec.t -> criteria:Chop_bad.Feasibility.criteria -> Spec.t
(** Constraint modification. *)

type judgement = {
  spec : Spec.t;
  feasible : bool;
  best : Integration.system option;  (** fastest feasible implementation *)
  advice : string;
}

val judge : Spec.t -> Explore.report -> judgement
(** The judgement an exploration report supports — {!what_if} without the
    exploration.  Callers holding a warm {!Explore.Session} (the serving
    layer) run the engine themselves and judge the report, keeping the
    advice text identical to {!what_if}'s by construction. *)

val what_if : ?config:Explore.Config.t -> Spec.t -> judgement
(** Quick feasibility probe: {!judge} over a fresh engine's run.  [config]
    defaults to {!Explore.Config.default} (iterative heuristic, single
    job, shared prediction cache) — repeated probes over related specs
    reuse cached BAD predictions for the partitions the modification did
    not touch. *)

val optimize_memory_hosts :
  ?config:Explore.Config.t -> Spec.t -> Spec.t * judgement
(** Automates the memory/behavior interleaving the paper leaves to the
    designer ("designers interleave iterations of memory and behavioral
    partitioning, a step we intend to automate in the future",
    section 2.2): tries every host chip for every on-chip memory block,
    judges each placement with {!what_if}, and returns the spec whose best
    implementation has the lowest performance (then delay) — the original
    placement when nothing beats it.  Exhaustive over
    [chips ^ on-chip blocks]; intended for the small chip sets CHOP
    targets. *)

val compare_specs : ?config:Explore.Config.t -> Spec.t -> Spec.t -> string
(** One-paragraph comparison of two specs' what-if judgements (before vs
    after a modification). *)
