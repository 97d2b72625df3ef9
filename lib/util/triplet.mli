(** Prediction triplets.

    Every quantity predicted by BAD and CHOP is stored as a triplet
    [(low, likely, high)]: a lower bound, a most-likely value and an upper
    bound.  The triplet is interpreted as a triangular probability
    distribution with support [[low, high]] and mode [likely], following the
    "statistical environment" of the BAD predictor (paper, section 2.6). *)

type t = private {
  low : float;  (** lower bound of the predicted quantity *)
  likely : float;  (** most likely value (mode) *)
  high : float;  (** upper bound *)
}

val make : low:float -> likely:float -> high:float -> t
(** [make ~low ~likely ~high] builds a triplet.  @raise Invalid_argument if
    the ordering [low <= likely <= high] is violated or any component is not
    finite. *)

val exact : float -> t
(** [exact v] is the degenerate triplet [(v, v, v)] — a known quantity. *)

val spread : ?down:float -> ?up:float -> float -> t
(** [spread ~down ~up v] is [(v*(1-down), v, v*(1+up))].  [down] and [up]
    default to [0.1].  [v] must be non-negative. *)

val zero : t

val is_exact : t -> bool

val add : t -> t -> t
(** Component-wise sum; the exact distribution of a sum is not triangular,
    so consumers needing probabilities should use {!Prob.of_sum}. *)

val sum : t list -> t

val scale : float -> t -> t
(** [scale k t] multiplies every component by [k >= 0]. *)

val max2 : t -> t -> t
(** Component-wise maximum — a conservative envelope for [max X Y]. *)

val mean : t -> float
(** Mean of the triangular distribution: [(low + likely + high) / 3]. *)

val variance : t -> float
(** Variance of the triangular distribution. *)

val cdf : t -> float -> float
(** [cdf t x] is [P(X <= x)] for the triangular distribution [t].  Degenerate
    triplets give a step function. *)

val prob_le : t -> float -> float
(** [prob_le t bound] = [cdf t bound]: probability the predicted quantity
    satisfies an upper-bound constraint. *)

val compare : t -> t -> int
(** Ordered by [likely], then [low], then [high]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
