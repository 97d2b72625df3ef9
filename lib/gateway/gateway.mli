(** The cluster front process behind [chop gateway]: one socket fronting
    N backend [chop serve] processes.

    The gateway speaks the exact {!Chop_server.Protocol} wire format on
    both sides and forwards request and response lines verbatim, so a
    client cannot tell a gateway from a single backend by the bytes it
    receives.  Routing is deterministic:

    - stateless ops (explore, predict, advise, sensitivity) go to the
      backend owning their {!Chop_server.Ops.engine_key} on a
      consistent-hash {!Ring}, so repeat requests hit the same warm
      engine;
    - [session/*] ops stick to the backend that opened the session; the
      gateway allocates session ids itself so they are unique across the
      cluster;
    - [session/list] fans out to every backend and merges the
      inventories through the shared {!Chop_server.Ops.render_sessions};
    - [gateway/migrate] moves a session between backends through the
      snapshot format ([session/save close] on the source, restoring
      [session/open] on the target) — the backends must share a
      [--state-dir].

    When a backend dies, stateless ops fail over to the next backend on
    the ring; session ops fail over by restoring the session's snapshot
    on the next backend (sessions survive a backend SIGTERM because the
    backend snapshots its sessions on shutdown).  With
    [health_interval_s], a prober thread pings every backend
    periodically and marks failures dead ahead of time: routing prefers
    live backends, and a session op whose owner is marked dead fails over
    preemptively instead of waiting for its own request to time out. *)

type config = {
  socket_path : string option;
      (** listen here; [None] reads requests from stdin (tests, CI) *)
  backends : string list;  (** backend serve sockets, at least one *)
  vnodes : int;  (** virtual ring points per backend *)
  log : out_channel option;
  handle_signals : bool;
      (** SIGTERM/SIGINT trigger a clean stop.  SIGPIPE is ignored
          either way, so a write to a backend or client that has gone
          away fails with [EPIPE] instead of killing the process *)
  health_interval_s : float option;
      (** ping every backend this often (seconds) and maintain the dead
          set; [None] (or a non-positive value) disables the prober and
          routing behaves exactly as before *)
}

type t

val create : config -> t
(** Validates the configuration and binds the listening socket; does not
    contact the backends ([connect]ions are opened lazily, per client
    connection).  The socket path is handled as by
    {!Chop_server.Server.create}.
    @raise Invalid_argument on an empty or duplicated backend list. *)

val serve : t -> unit
(** Accepts connections (or reads stdin) through a
    {!Chop_server.Listener} until {!stop}; then closes every connection,
    removes the socket, joins the health prober and returns. *)

val stop : t -> unit
(** Asks {!serve} to return; callable from a signal handler or another
    thread. *)

val handle_line : t -> string -> string
(** One request line in, one response line out, synchronously — the test
    harness's transport, routing exactly as a socket request would
    (backend connections are cached on [t] across calls). *)

val check_health : t -> string list
(** One synchronous health sweep: ping every backend, update the dead
    set, and return the backends currently marked dead (sorted).  What
    the [health_interval_s] prober runs periodically; exposed so tests
    and operators can force a sweep. *)
