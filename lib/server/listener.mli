(** The serving transport shared by [chop serve] and [chop gateway]:
    the Unix-domain socket (or stdin/stdout), the accept and read loops,
    the set of open connections, shutdown signals and the timestamped
    log.  A process supplies only what to do with a connection's lines.

    Shutdown has two steps so the owner can drain in between: {!run}
    returns once accepting has stopped, with every connection still
    open, and {!close} then ends the connections and removes the
    socket. *)

type t

type handler = send:(string -> unit) -> (string -> unit) * (unit -> unit)
(** Called once per accepted connection, or once for stdin/stdout, with
    that connection's [send]; returns the callback for each request line
    and the hook run once the connection's input ends.  Both run on the
    connection's reading thread.  [send] writes one response line and
    may be called from any thread, at any time: writes to one connection
    are serialized, and once the connection is closed (the peer hung up,
    or {!close}) the line is dropped — never written to whatever client
    later receives the same descriptor number.  A socket connection is
    already closed when its hook runs. *)

val create : socket_path:string option -> log:out_channel option -> t
(** Binds and listens on [socket_path] when given, so clients may
    connect before {!run} starts.  A stale socket file at the path is
    replaced; any other file is left alone and [create] fails with
    [Unix.Unix_error (EEXIST, _, path)].  [None] serves stdin/stdout.
    [log] receives {!logf} lines; [None] is silent.  Ignores SIGPIPE
    ({!Client.ignore_sigpipe}): a write to a client that has gone away
    fails with [EPIPE] and never kills the process. *)

val run : signals:bool -> t -> handler -> unit
(** Accepts connections (or reads stdin) until {!stop} — or, on stdio,
    end of input.  With [signals], SIGINT and SIGTERM call {!stop}.
    Returns once accepting has stopped; open connections stay open, so
    pending responses can still be sent. *)

val stop : t -> unit
(** Asks {!run} to return.  Safe from a signal handler or another
    thread; returns immediately. *)

val stopping : t -> bool
(** Whether {!stop} has been called. *)

val close : t -> unit
(** Ends every open connection, then closes and unlinks the socket.
    Later sends on an ended connection are dropped.  Its reading thread
    is woken even while the peer stays connected: it closes the
    descriptor and runs the connection's close hook shortly after
    [close] returns. *)

val logf : t -> ('a, unit, string, unit) format4 -> 'a
(** Writes one ["TIMESTAMP message"] line to the log and flushes it;
    lines from concurrent threads never interleave. *)

val timestamp : float -> string
(** UTC ISO-8601 with whole milliseconds, truncated:
    [timestamp 1700000039.9996 = "2023-11-14T22:13:59.999Z"]. *)
