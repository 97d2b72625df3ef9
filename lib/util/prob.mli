(** Probabilistic feasibility analysis over prediction triplets.

    Singleton predictions use the exact triangular CDF; sums of many
    independent predictions use a moment-matched normal approximation (CLT)
    clipped to the summed support.  This mirrors the probabilistic
    feasibility analysis of BAD (paper, section 2.6). *)

val normal_cdf : mean:float -> std:float -> float -> float
(** Standard normal CDF evaluated via the Abramowitz–Stegun erf
    approximation (absolute error < 1.5e-7). *)

val of_sum : Triplet.t list -> float -> float
(** [of_sum parts bound] is [P(sum parts <= bound)].  An empty list is the
    constant 0; a single part uses its exact triangular CDF; two or more
    parts use the clipped normal approximation. *)

val prob_le : Triplet.t -> float -> float
(** Exact triangular [P(X <= bound)] (re-export of {!Triplet.prob_le}). *)

val meets : prob:float -> Triplet.t -> float -> bool
(** [meets ~prob t bound] holds when [P(t <= bound) >= prob].  [prob] must be
    in [[0, 1]]. *)
