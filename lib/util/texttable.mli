(** Plain-text tables for experiment reports.

    Every bench and example prints its results with this renderer so that
    the reproduction tables visually match the paper's layout. *)

type align = Left | Right | Center

type t

val create : ?title:string -> (string * align) list -> t
(** [create ~title headers] starts a table with the given column headers. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument when the row width differs from the header. *)

val add_separator : t -> unit
(** Insert a horizontal rule between row groups.  Separators after the
    last row render as nothing: the bottom rule closes the table. *)

val render : t -> string
val print : t -> unit

val cell_int : int -> string
val cell_float : ?decimals:int -> float -> string
