(** Physical units used throughout CHOP.

    Dimensions follow the paper's experimental setup: areas in square mils
    (3µ technology), lengths in mils, delays in nanoseconds, data sizes in
    bits. *)

type mil2 = float
(** Area in square mils. *)

type mil = float
(** Length in mils. *)

type ns = float
(** Delay / time in nanoseconds. *)

type bits = int
(** Data size in bits. *)

val mil2_of_dims : width:mil -> height:mil -> mil2
(** Project area of a rectangular die. *)

val pp_mil2 : Format.formatter -> mil2 -> unit
val pp_ns : Format.formatter -> ns -> unit

val ceil_div : int -> int -> int
(** [ceil_div a b] is [ceil (a / b)] on positive integers.
    @raise Invalid_argument if [b <= 0] or [a < 0]. *)

val ceil_div_ns : ns -> ns -> int
(** [ceil_div_ns d cycle] is the number of whole clock cycles of length
    [cycle] needed to cover duration [d] (at least 1 for positive [d]).
    @raise Invalid_argument if [cycle <= 0.] or [d < 0.]. *)
