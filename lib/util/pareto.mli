(** Pareto-domination pruning.

    CHOP discards "inferior" predicted designs: designs dominated on every
    objective by some other design.  Objectives are minimized.  Objective
    vectors are never NaN: every caller's objectives are finite or
    infinite, and dominance and the lexicographic order below are only
    consistent on such values. *)

val dominates : float array -> float array -> bool
(** [dominates a b] holds when [a] is no worse than [b] on every objective
    and strictly better on at least one.  @raise Invalid_argument on length
    mismatch. *)

val frontier : objectives:('a -> float array) -> 'a list -> 'a list
(** [frontier ~objectives xs] keeps the non-dominated elements of [xs],
    preserving their original order.  When two elements have identical
    objective vectors, both are kept.  [objectives] is applied once per
    element; the points are compared in lexicographic order against the
    survivors so far, O(n log n + n f) for a frontier of f.
    @raise Invalid_argument when two vectors differ in length. *)

val reduce : objectives:('a -> float array) -> 'a list -> 'a list * int
(** [reduce ~objectives xs] keeps the non-dominated elements of [xs] in
    their original order, like {!frontier}, but additionally collapses
    elements with identical objective vectors to the first occurrence.
    Returns the kept list and the number of elements dropped. *)
