(** Versioned, durable session snapshots.

    The persistence face of {!Explore.Session.state}: a line-oriented text
    format ([# chopsession v1]) carrying the revision counter, the pending
    dirty labels, opaque [meta] key/value lines for the owning layer, and
    the current spec plus every undo/redo entry as embedded {!Specfile}
    blocks.  The serving layer writes one on shutdown or eviction and
    restores it on [session/open]; the gateway migrates sessions between
    backends through the same format.

    Round-tripping re-parses the chopspec blocks, which rebuilds each
    graph in its written construction order, so node ids come back as they
    were.  The prediction store keys on the id-ordered subgraph
    ({!Pred_cache.Key.raw}), so a session restored in the process that
    saved it runs BAD on nothing the saved session already predicted. *)

exception Parse_error of string

type t = {
  spec : Spec.t;
  revision : int;
  pending : string list;
  undo : Spec.t list;  (** most recent first, like the live undo stack *)
  redo : Spec.t list;
  meta : (string * string) list;
      (** opaque single-line annotations, owner-defined (the server stores
          the session's open parameters here) *)
  unknown : string list;
      (** statements (and whole [<<< ... >>>] blocks) this binary does not
          understand, verbatim in file order.  A snapshot written by a
          newer format revision parses here instead of failing, and
          {!print} re-emits the lines unchanged — forward fields survive a
          round-trip through an older binary; only {!to_state} drops them
          (the live session has no slot for them). *)
}

val of_state : ?meta:(string * string) list -> Explore.Session.state -> t
(** @raise Invalid_argument when a meta key is not a single token or a
    meta value spans lines. *)

val to_state : t -> Explore.Session.state

val print : t -> string

val parse : string -> t
(** Inverse of {!print}.
    @raise Parse_error on malformed snapshots (including chopspec errors
    inside embedded blocks, with the block and line identified). *)

val save : string -> t -> unit
(** [save path s] writes atomically (temp file + rename): a crash
    mid-write never leaves a torn snapshot.  A failed write (a full disk)
    raises [Sys_error], removes the temp file and leaves the previous
    snapshot at [path] in place. *)

val load : string -> t
(** @raise Parse_error on malformed contents; [Sys_error] on I/O. *)
