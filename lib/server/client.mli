(** A small blocking client for the {!Server} protocol — the engine room
    of [chop request], the gateway's backend connections and perfbench's
    serving workloads. *)

type t

val connect : string -> t
(** Connects to a server's Unix-domain socket, after {!ignore_sigpipe}.
    Fails with [Unix.Unix_error] when nobody is listening. *)

val ignore_sigpipe : unit -> unit
(** Ignores SIGPIPE for the whole process, so that a write to a peer
    that has shut its socket down fails with [EPIPE] instead of killing
    the process: OCaml's [Unix] has no [MSG_NOSIGNAL].  Every socket
    owner calls it: {!connect} and [Listener.create]. *)

val close : t -> unit
(** Idempotent. *)

val send : t -> Chop_util.Json.t -> unit
(** Writes one request line.  Pipelining is fine: send several requests,
    then {!recv} the responses (they may arrive in any order — match on
    the [id]). *)

val send_line : t -> string -> unit
(** Writes one raw, already-encoded request line verbatim.  The gateway
    forwards client bytes with this so proxied responses stay
    byte-identical to a direct connection. *)

val recv_line : t -> string option
(** Reads one raw response line without parsing it; [None] on a closed
    connection, and when the peer closed it partway through a line — a
    line is whole only with its newline.  The verbatim counterpart of
    {!recv}. *)

val recv : t -> (Chop_util.Json.t option, string) result
(** Reads one response line.  [Ok None] on a cleanly closed connection;
    [Error] when the peer sent bytes that are not valid JSON, or closed
    the connection partway through a line (["connection closed in the
    middle of a response"], whatever the bytes so far parse to) — a
    transport failure the caller reports structurally (the [chop request]
    CLI exits 2), never an exception. *)

val rpc : t -> Chop_util.Json.t -> (Chop_util.Json.t, string) result
(** [send] then [recv]: one request, its response.  [Error] on a closed
    connection, a response cut off partway, or an unparseable reply. *)

(** {1 Retries} *)

val backoff_delays : seed:int -> attempts:int -> float list
(** The deterministic backoff schedule behind {!rpc_retrying}: attempt
    [i] sleeps [min (0.05 * 2^i) 2.0] seconds, scaled by a factor in
    [[0.5, 1.0)] drawn from an LCG seeded with [seed].  A pure function —
    same seed, same delays — so tests pin the schedule exactly. *)

val rpc_retrying :
  ?sleep:(float -> unit) ->
  ?retries:int ->
  ?seed:int ->
  socket:string ->
  Chop_util.Json.t ->
  (Chop_util.Json.t, string) result
(** One connect–rpc–close cycle, retried up to [retries] extra times on
    the structured [overloaded] rejection and on transient transport
    failures (connection refused, socket file missing, peer closing
    before answering — a backend restarting).  Permanent failures and
    every other response return immediately — a response cut off partway
    among them, since the request it answers ran — and when the budget
    runs out the last outcome is returned as-is — so callers' exit-code
    mapping is unchanged by retrying.  [sleep] (default [Unix.sleepf])
    is injected for fake-clock tests. *)
