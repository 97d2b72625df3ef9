(** Behavioral transformations applied before partitioning.

    The behavioral specification must be free of inner loops; loops with
    determinate iteration counts are unrolled so that the resulting DFG is
    acyclic (paper, section 2.3, following Park [7] and Paulin–Knight [9]). *)

type loop = {
  body : Graph.t;
  trip_count : int;  (** determinate iteration count, >= 1 *)
  carried : (string * string) list;
      (** loop-carried dependencies as [(output_name, input_name)] pairs of
          the body: each iteration's named output feeds the next iteration's
          named input *)
}

val unroll : ?name:string -> loop -> Graph.t
(** Fully unrolls [loop] into an acyclic DFG.  Iteration 0 keeps the body's
    carried inputs as primary inputs (initial values); the final iteration's
    carried outputs remain primary outputs.  Non-carried inputs are
    replicated per iteration (streaming inputs).
    @raise Invalid_argument when [trip_count < 1] or a carried name does not
    exist in the body. *)

val common_subexpression_elimination : Graph.t -> Graph.t
(** Merges computational nodes with the same operation and the same operand
    list (order-sensitive: [Sub]/[Select] operands do not commute; [Add],
    [Mult], [Logic] and [Compare]-free commutative operations match under
    operand reordering).  Memory operations are never merged — reads may
    alias intervening writes.  Semantics-preserving (property-tested
    against {!Eval}). *)

val balance_associative : Graph.t -> Graph.t
(** Tree-height reduction: rebuilds maximal chains of same-operation
    associative nodes ([Add], [Mult], [Logic]) whose intermediate values
    have no other consumers into balanced trees, shortening the critical
    path without changing the operation count — one of the "high-level
    transformations" whose system-level effect the paper proposes CHOP to
    study (section 4). *)

val dead_node_elimination : Graph.t -> Graph.t
(** Removes computational nodes and constants whose values can never reach a
    primary output or a memory write. *)

val rename : string -> Graph.t -> Graph.t
(** Copy of the graph under a new name (ids are renumbered compactly). *)

val renumber : ?seed:int -> Graph.t -> Graph.t
(** An isomorphic copy with node ids assigned in a deterministically
    shuffled order ([seed] selects the permutation).  Models the same
    behavior arriving from a different frontend construction order:
    {!Graph.signature} changes, and so may BAD's predictions, whose
    tie-breaks follow node ids.  The prediction cache keys on the
    signature, so a renumbered twin never shares the original's entries. *)
