(** A minimal JSON codec: values, a recursive-descent parser and a compact
    printer, with no dependencies outside the stdlib.

    Written for the serving layer's newline-delimited request protocol, so
    the design goals are: total round-tripping ([parse (print v)] yields
    [v] for every printable value), byte-level predictability (objects
    print their fields in the order given; no whitespace is emitted), and
    small, positional error messages on malformed input.

    Numbers keep the integer/float distinction: a literal without a
    fraction or exponent parses as {!Int}; everything else parses as
    {!Float}.  Floats print with the shortest decimal representation that
    reads back to the identical bit pattern, suffixed to stay a float on
    re-parse, so the distinction survives a round trip.  Non-finite floats
    have no JSON representation — {!print} raises on them.

    Strings are treated as byte sequences: bytes outside the ASCII control
    range pass through the printer untouched (a UTF-8 string stays UTF-8),
    control bytes are escaped, and [\uXXXX] escapes (including surrogate
    pairs) decode to UTF-8 on parse.

    Cost: both directions work on runs of plain bytes (neither a quote, a
    backslash nor a control byte), so a string costs one tight scan plus
    one copy per run and one step per escape.  A parsed string with no
    escape is one [String.sub]; the others share one buffer per {!parse}
    call, never one shared across calls or threads. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Array of t list
  | Object of (string * t) list
      (** fields in printing order; duplicate names are preserved by the
          parser (lookup helpers return the first) *)

(** {1 Printing} *)

val print : t -> string
(** Compact rendering — no spaces, no newlines.
    @raise Invalid_argument on a non-finite {!Float}. *)

val print_hum : t -> string
(** Two-space-indented rendering, for logs and files meant for people.
    @raise Invalid_argument on a non-finite {!Float}. *)

val shortest_float : float -> string
(** The shortest of [%.15g], [%.16g] and [%.17g] that reads back to the
    identical float, with nothing appended: ["0.1"], ["20000"],
    ["4029.273"].  {!print} writes a {!Float} this way, adding [".0"]
    when there is neither a fraction nor an exponent.  Also the number
    format of the keys and text files that must not merge or lose
    distinct values (a warm engine's key, a chopspec).  Total: non-finite
    values print as [%g] does.  An integral value below [1e15] in
    magnitude, other than [-0.0], is printed by [string_of_int] with no
    trial printing: the same bytes as [%.15g], at a fraction of the
    cost. *)

(** {1 Parsing} *)

val parse : string -> (t, string) result
(** Parses one JSON value spanning the whole input (surrounding
    whitespace allowed).  Errors carry the byte offset:
    ["offset 12: expected ':' after object key"]. *)

val parse_exn : string -> t
(** @raise Failure with the {!parse} error message. *)

(** {1 Access helpers}

    Total accessors for decoding requests: each returns [None] on a
    shape mismatch instead of raising. *)

val member : string -> t -> t option
(** First field of that name, when the value is an {!Object}.  Names are
    compared with [String.equal], field by field in order, so a lookup
    costs the fields before the match. *)

val to_string_opt : t -> string option
val to_bool_opt : t -> bool option

val to_int_opt : t -> int option
(** Accepts {!Int}, and any {!Float} that is exactly integral. *)

val to_float_opt : t -> float option
(** Accepts {!Float} and {!Int}. *)

val to_list_opt : t -> t list option
