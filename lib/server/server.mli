(** The [chop serve] daemon: a long-running exploration service answering
    newline-delimited JSON requests ({!Protocol}) from persistent warm
    engines.

    One {!t} owns one shared domain pool; every request engine borrows it
    ({!Chop.Explore.Session.create}[ ?pool]) and all engines share the
    process-wide prediction cache, so a request repeating an earlier
    request's parameters reuses both the engine (integration context,
    staged caches) and the cached BAD predictions — the warm path
    perfbench's explore-gateway workload measures.

    Requests flow through a {!Scheduler}: bounded queue, fixed
    concurrency, per-request deadlines, and a structured [overloaded]
    rejection past the bound.  [stats] and [ping] requests bypass the
    queue so the service stays observable under saturation.

    Interactive sessions ([session/open] … [session/close]) each own a
    {!Chop.Explore.Session}: [session/edit] applies incremental spec
    edits and reports the dirty partitions; [session/run] re-predicts
    only those, everything else coming from the shared cache.  Sessions
    idle past [session_ttl_s] are evicted, and opening past
    [max_sessions] evicts the least-recently-used idle session; a
    session busy in a run is never evicted mid-run.

    Shutdown is drain-then-exit: on SIGINT/SIGTERM (or {!stop}) the
    {!Listener} stops accepting, in-flight and queued requests finish and
    their responses are written, then connections and the socket close
    and the sessions, engines and pool are torn down. *)

type config = {
  socket_path : string option;
      (** Unix-domain socket to listen on; [None] serves stdin/stdout
          (one client, responses on stdout, log on stderr) *)
  concurrency : int;  (** scheduler worker threads *)
  queue : int;  (** bounded queue length *)
  jobs : int;  (** shared domain-pool size *)
  default_deadline_ms : float option;
      (** applied to requests that carry no [deadline_ms] *)
  log : out_channel option;  (** access log; [None] is silent *)
  handle_signals : bool;
      (** install SIGINT/SIGTERM handlers that {!stop} the server;
          tests running a server in-process leave this off.  SIGPIPE is
          ignored either way, so a write to a client that has gone away
          fails with [EPIPE] instead of killing the process *)
  session_ttl_s : float;
      (** idle time after which an interactive session is evicted (checked
          on every [session/open]) *)
  max_sessions : int;
      (** cap on concurrently open interactive sessions; opening past it
          evicts the least-recently-used idle session *)
  state_dir : string option;
      (** directory for durable session snapshots ({!Chop.Snapshot}):
          written on shutdown, eviction and [session/save], restored by
          [session/open] naming a snapshotted id.  [None] (the default)
          keeps sessions purely in-memory.  The directory is created if
          missing; several servers may create it at once. *)
}

val default_config : config
(** Stdio transport, concurrency 2, queue 8, single-job pool, no default
    deadline, log on stderr, signals handled, 600 s session TTL, 32
    sessions at most, no state dir. *)

type t

val create : config -> t
(** Binds the listener (when [socket_path] is set) and starts the
    scheduler workers.  A stale socket file at the path is replaced; any
    other file is left alone.  Fails with [Unix.Unix_error] when the
    socket cannot be bound — [EEXIST] for a file that is not a socket —
    or the state dir cannot be created — [ENOTDIR] for a path that is
    not a directory. *)

val stop : t -> unit
(** Requests shutdown: the serve loop stops accepting and begins its
    drain.  Callable from a signal handler or another thread; returns
    immediately. *)

val serve : t -> unit
(** Runs the accept/read loop until {!stop}, a signal (when
    [handle_signals]), or — in stdio mode — end of input; then drains
    the scheduler, closes every connection and tears down engines and
    pool.  Blocks for the server's whole life. *)

val describe_exn : exn -> string
(** The message given to a structured [internal] error when an operation
    raises: typed engine failures (e.g.
    {!Chop_sched.List_sched.No_progress}) render their context — graph,
    operation count, iteration bound — instead of a bare [Failure] text.
    Exposed so tests can pin the mapping. *)

val handle_line : t -> string -> string
(** One request line through the full pipeline — parse, admission,
    scheduling, execution, rendering — waiting for the response and
    returning it without its newline.  The transport layer is bypassed;
    everything else (deadlines, backpressure, counters, the access log)
    behaves exactly as over a socket.  Exposed for tests and tooling. *)
