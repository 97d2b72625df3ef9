(* The [chop serve] daemon.  See server.mli for the architecture; the
   short version: one shared domain pool, a cache of warm engines keyed
   by request parameters, a bounded scheduler fed by the {!Listener}
   transport, and a drain-then-exit shutdown. *)

module Json = Chop_util.Json
module Session = Chop.Explore.Session

type config = {
  socket_path : string option;
  concurrency : int;
  queue : int;
  jobs : int;
  default_deadline_ms : float option;
  log : out_channel option;
  handle_signals : bool;
  session_ttl_s : float;
  max_sessions : int;
  state_dir : string option;
      (** directory for durable session snapshots: written on shutdown,
          eviction and [session/save]; read back by [session/open] *)
}

let default_config =
  {
    socket_path = None;
    concurrency = 2;
    queue = 8;
    jobs = 1;
    default_deadline_ms = None;
    log = Some stderr;
    handle_signals = true;
    session_ttl_s = 600.;
    max_sessions = 32;
    state_dir = None;
  }

type counters = {
  mutable ok : int;
  mutable bad_request : int;
  mutable overloaded : int;
  mutable deadline : int;
  mutable shutting_down : int;
  mutable internal : int;
}

(* A warm engine and the mutex serialising runs on it: one engine serves
   one (spec, config) identity, and concurrent requests for the same
   identity queue on the mutex rather than duplicating the engine. *)
type engine_slot = { engine : Session.t; mu : Mutex.t }

type t = {
  cfg : config;
  pool : Chop_util.Pool.t;
  sched : Scheduler.t;
  engines : (string, engine_slot) Hashtbl.t;
  engines_mu : Mutex.t;
  sessions : Session_table.t;
  counters_mu : Mutex.t;
  counters : counters;
  listener : Listener.t;
  started : float;
}

let create cfg =
  if cfg.concurrency < 1 then invalid_arg "Server.create: concurrency must be >= 1";
  if cfg.queue < 0 then invalid_arg "Server.create: queue must be >= 0";
  if cfg.jobs < 1 then invalid_arg "Server.create: jobs must be >= 1";
  if cfg.max_sessions < 1 then
    invalid_arg "Server.create: max_sessions must be >= 1";
  if cfg.session_ttl_s <= 0. then
    invalid_arg "Server.create: session_ttl_s must be positive";
  (match cfg.state_dir with
  | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
  | _ -> ());
  let listener = Listener.create ~socket_path:cfg.socket_path ~log:cfg.log in
  {
    cfg;
    pool = Chop_util.Pool.create ~jobs:cfg.jobs ();
    sched = Scheduler.create ~queue:cfg.queue ~concurrency:cfg.concurrency;
    engines = Hashtbl.create 16;
    engines_mu = Mutex.create ();
    sessions =
      Session_table.create ~ttl_s:cfg.session_ttl_s
        ~max_sessions:cfg.max_sessions;
    counters_mu = Mutex.create ();
    counters =
      {
        ok = 0;
        bad_request = 0;
        overloaded = 0;
        deadline = 0;
        shutting_down = 0;
        internal = 0;
      };
    listener;
    started = Unix.gettimeofday ();
  }

let stop t = Listener.stop t.listener

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)

let logf t fmt = Listener.logf t.listener fmt

let access_log ?(client = "") t ~id ~op ~status ~(timing : Protocol.timing)
    ~verdict =
  logf t
    "id=%s op=%s status=%s queue_ms=%.1f run_ms=%.1f predict_ms=%.1f \
     search_ms=%.1f merge_ms=%.1f cache=%dh/%dm/%de verdict=%s%s"
    id op status timing.Protocol.queue_ms timing.Protocol.run_ms
    timing.Protocol.predict_ms timing.Protocol.search_ms
    timing.Protocol.merge_ms timing.Protocol.cache_hits
    timing.Protocol.cache_misses timing.Protocol.cache_evictions verdict
    (* per-client attribution: who performed the op, e.g. which of a
       session's clients made an edit *)
    (if client = "" then "" else " client=" ^ client)

let bump t (code : [ `Ok | `Err of Protocol.error_code ]) =
  Mutex.lock t.counters_mu;
  (match code with
  | `Ok -> t.counters.ok <- t.counters.ok + 1
  | `Err Protocol.Bad_request -> t.counters.bad_request <- t.counters.bad_request + 1
  | `Err Protocol.Overloaded -> t.counters.overloaded <- t.counters.overloaded + 1
  | `Err Protocol.Deadline -> t.counters.deadline <- t.counters.deadline + 1
  | `Err Protocol.Shutting_down ->
      t.counters.shutting_down <- t.counters.shutting_down + 1
  | `Err Protocol.Internal -> t.counters.internal <- t.counters.internal + 1);
  Mutex.unlock t.counters_mu

(* ------------------------------------------------------------------ *)
(* Engines                                                             *)

(* Runs [f] on the warm engine for the request's identity, creating the
   engine on first use. *)
let with_engine t (req : Protocol.request) config spec f =
  let key = Ops.engine_key ~op:req.Protocol.op req.Protocol.params in
  Mutex.lock t.engines_mu;
  let slot =
    match Hashtbl.find_opt t.engines key with
    | Some s -> s
    | None ->
        (* created under the table lock so a burst of identical requests
           builds the integration context once, not once per request *)
        let engine = Session.create ~pool:t.pool config spec in
        let s = { engine; mu = Mutex.create () } in
        Hashtbl.add t.engines key s;
        s
  in
  Mutex.unlock t.engines_mu;
  Mutex.lock slot.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock slot.mu)
    (fun () -> f slot.engine)

let close_engines t =
  Mutex.lock t.engines_mu;
  Hashtbl.iter (fun _ s -> Session.close s.engine) t.engines;
  Hashtbl.reset t.engines;
  Mutex.unlock t.engines_mu

(* ------------------------------------------------------------------ *)
(* Interactive sessions: membership in {!Session_table}, durability in
   {!Chop.Snapshot}.  A session is snapshotted whenever it leaves the
   table with a state dir configured — eviction, session/save, shutdown —
   and session/open resurrects the snapshot, so a restart or a gateway
   migration loses no interactive state. *)

let snapshot_path t sid =
  Option.map
    (fun dir -> Filename.concat dir (sid ^ ".chopsession"))
    t.cfg.state_dir

(* The session's open parameters ride in the snapshot's meta section (as
   one request line), so a restore — in this process, after a restart, or
   on another backend — renders session/run exactly as the original open
   would have. *)
let snapshot_meta (p : Protocol.params) =
  let req =
    { Protocol.id = "-"; op = Protocol.Session_open; deadline_ms = None;
      params = p }
  in
  [ ("open", Json.print (Protocol.request_to_json req)) ]

(* caller holds the slot's mutex (or is past any concurrency: shutdown) *)
let save_session t sid (slot : Session_table.slot) =
  match snapshot_path t sid with
  | None -> Ok false
  | Some path -> (
      let st = Session.state slot.Session_table.session in
      let snap =
        Chop.Snapshot.of_state
          ~meta:(snapshot_meta slot.Session_table.open_params)
          st
      in
      try
        Chop.Snapshot.save path snap;
        Ok true
      with Sys_error m -> Error m)

let drop_snapshot t sid =
  match snapshot_path t sid with
  | Some path when Sys.file_exists path -> (
      try Sys.remove path with Sys_error _ -> ())
  | _ -> ()

let evict_session t ~reason sid (slot : Session_table.slot) =
  let saved =
    match save_session t sid slot with
    | Ok saved -> saved
    | Error m ->
        logf t "serve: session %s snapshot failed: %s" sid m;
        false
  in
  Session.close slot.Session_table.session;
  logf t "serve: session %s evicted (%s%s)" sid reason
    (if saved then ", snapshotted" else "")

let prune_sessions t ~now =
  Session_table.prune t.sessions ~now ~room_for:1
    ~on_evict:(fun ~reason sid slot -> evict_session t ~reason sid slot)

let ( let* ) r f = Result.bind r f

(* session/open with an id names an existing snapshot to resurrect;
   [restore] makes its absence an error instead of a fresh open. *)
let restore_session t ~sid (p : Protocol.params) =
  match snapshot_path t sid with
  | None ->
      if p.Protocol.restore then
        Error "session restore requires the server to run with --state-dir"
      else Ok None
  | Some path ->
      if not (Sys.file_exists path) then
        if p.Protocol.restore then
          Error (Printf.sprintf "no snapshot for session %S" sid)
        else Ok None
      else begin
        match Chop.Snapshot.load path with
        | exception Chop.Snapshot.Parse_error m ->
            Error (Printf.sprintf "snapshot for %S is unreadable: %s" sid m)
        | exception Sys_error m -> Error m
        | snap ->
            let open_params =
              match List.assoc_opt "open" snap.Chop.Snapshot.meta with
              | Some line -> (
                  match Protocol.parse_request line with
                  | Ok req -> req.Protocol.params
                  | Error _ -> p)
              | None -> p
            in
            let* config = Ops.config_of_params ~jobs:t.cfg.jobs open_params in
            let session =
              Session.restore ~pool:t.pool config
                (Chop.Snapshot.to_state snap)
            in
            Ok (Some (session, open_params))
      end

let close_sessions t =
  Session_table.drain t.sessions (fun sid slot ->
      (match save_session t sid slot with
      | Ok true -> logf t "serve: session %s snapshotted" sid
      | Ok false -> ()
      | Error m -> logf t "serve: session %s snapshot failed: %s" sid m);
      Session.close slot.Session_table.session)

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)

let scheduler_stats_json t =
  let s = Scheduler.stats t.sched in
  Json.Object
    [
      ("accepted", Json.Int s.Scheduler.accepted);
      ("rejected", Json.Int s.Scheduler.rejected);
      ("completed", Json.Int s.Scheduler.completed);
      ("expired", Json.Int s.Scheduler.expired);
      ("failed", Json.Int s.Scheduler.failed);
      ("queued", Json.Int (Scheduler.queued t.sched));
      ("in_flight", Json.Int (Scheduler.in_flight t.sched));
      ("max_queued", Json.Int s.Scheduler.max_queued);
      ("max_in_flight", Json.Int s.Scheduler.max_in_flight);
    ]

let stats_fields t =
  let c = t.counters in
  Mutex.lock t.counters_mu;
  let requests =
    Json.Object
      [
        ("ok", Json.Int c.ok);
        ("bad_request", Json.Int c.bad_request);
        ("overloaded", Json.Int c.overloaded);
        ("deadline", Json.Int c.deadline);
        ("shutting_down", Json.Int c.shutting_down);
        ("internal", Json.Int c.internal);
      ]
  in
  Mutex.unlock t.counters_mu;
  let cache = Chop.Pred_cache.counters Chop.Pred_cache.shared in
  Mutex.lock t.engines_mu;
  let engines = Hashtbl.length t.engines in
  Mutex.unlock t.engines_mu;
  let sessions = Session_table.length t.sessions in
  let lookups = cache.Chop.Pred_cache.hits + cache.Chop.Pred_cache.misses in
  let hit_rate =
    if lookups = 0 then 0.
    else float_of_int cache.Chop.Pred_cache.hits /. float_of_int lookups
  in
  let uptime = Unix.gettimeofday () -. t.started in
  let text =
    Printf.sprintf
      "uptime: %.1f s, engines: %d, sessions: %d\n\
       cache: %d hit(s) / %d miss(es) / %d eviction(s), hit rate %.1f%%\n"
      uptime engines sessions cache.Chop.Pred_cache.hits
      cache.Chop.Pred_cache.misses cache.Chop.Pred_cache.evictions
      (100. *. hit_rate)
  in
  [
    ("uptime_s", Json.Float uptime);
    ("engines", Json.Int engines);
    ("sessions", Json.Int sessions);
    ("scheduler", scheduler_stats_json t);
    ("requests", requests);
    ("cache",
     Json.Object
       [
         ("hits", Json.Int cache.Chop.Pred_cache.hits);
         ("misses", Json.Int cache.Chop.Pred_cache.misses);
         ("evictions", Json.Int cache.Chop.Pred_cache.evictions);
         (* always 0 (no hit crosses graph constructions); kept only
            because the benchmark's session-serve workload reads it,
            until a benchmark change retires it *)
         ("structural_hits", Json.Int 0);
         ("hit_rate", Json.Float hit_rate);
       ]);
    ("text", Json.String text);
  ]

(* Typed scheduler failures carry their context into the structured
   [internal] error message instead of a bare [Failure] text; everything
   else falls back to [Printexc]. *)
let describe_exn = function
  | Chop_sched.List_sched.No_progress { graph; ops; bound } ->
      Printf.sprintf
        "scheduler stalled on %S (%d ops, %d-iteration bound): internal \
         invariant violation"
        graph ops bound
  | exn -> Printexc.to_string exn

(* What backs a response's [timing] block: a single engine run's report,
   a whole optimize outcome (counters aggregated across its refinement
   runs), or nothing. *)
type timing_source =
  | No_timing
  | Of_report of Chop.Explore.report
  | Of_auto of Chop_auto.outcome

let verdict feasible = if feasible then "feasible" else "infeasible"

(* The four engine runs — explore, advise, session/run, session/optimize
   — poll the request's deadline; a run it cancels answers [deadline]. *)
let cancellable f =
  match f () with
  | v -> Ok v
  | exception Chop.Explore.Cancelled ->
      Error (Protocol.Deadline, "deadline exceeded during the run")

(* The result of an explore or session/run: rendered exactly as the CLI
   would, with the session id first for session/run. *)
let explore_result ?session spec (p : Protocol.params) report =
  let feasible = Ops.explore_feasible_count report in
  ( (match session with
    | Some sid -> [ ("session", Json.String sid) ]
    | None -> [])
    @ [
        ("text",
         Json.String
           (Ops.render_explore spec ~keep_all:p.Protocol.keep_all
              ~csv:p.Protocol.csv ~verbose:p.Protocol.verbose report));
        ("feasible", Json.Bool (feasible > 0));
        ("feasible_count", Json.Int feasible);
        ("trials",
         Json.Int
           report.Chop.Explore.outcome.Chop.Search.stats
             .Chop.Search.implementation_trials);
      ],
    Of_report report,
    verdict (feasible > 0) )

(* How a session op may touch its session.  Only the client that opened
   (or restored) a session may write it — [Write], or [Edit] for a write
   that changes the spec; attached observers and strangers [Read]. *)
type access = Read | Write | Edit

(* The frame of every op on an open session: find it, hold its mutex,
   check the writer, run [f slot session], and on success mark the
   session used (all but [Write]) and count the edit. *)
let on_session t (p : Protocol.params) access f =
  match Session_table.find t.sessions p.Protocol.session with
  | None ->
      Error
        ( Protocol.Bad_request,
          Printf.sprintf "unknown session %S (closed or evicted?)"
            p.Protocol.session )
  | Some slot ->
      Mutex.lock slot.Session_table.smu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock slot.Session_table.smu)
        (fun () ->
          let writer = slot.Session_table.writer in
          let r =
            if access <> Read && writer <> p.Protocol.client then
              Error
                ( Protocol.Bad_request,
                  Printf.sprintf
                    "client %S is not this session's writer (%s); read-only \
                     clients may session/run and session/attach"
                    p.Protocol.client
                    (if writer = "" then "opened anonymously"
                     else Printf.sprintf "writer %S" writer) )
            else f slot slot.Session_table.session
          in
          if Result.is_ok r then begin
            if access <> Write then
              slot.Session_table.last_used <- Unix.gettimeofday ();
            if access = Edit then
              slot.Session_table.edits <- slot.Session_table.edits + 1
          end;
          r)

(* One operation, already admitted: returns the result fields, the
   timing source (when an engine ran) and the verdict shown in the
   access log. *)
let exec_op t (req : Protocol.request) ~interrupt :
    ( (string * Json.t) list * timing_source * string,
      Protocol.error_code * string )
    result =
  let p = req.Protocol.params in
  let sid = p.Protocol.session in
  let ( let* ) r f =
    match r with Ok v -> f v | Error e -> Error (Protocol.Bad_request, e)
  in
  match req.Protocol.op with
  | Protocol.Ping -> Ok ([ ("pong", Json.Bool true) ], No_timing, "-")
  | Protocol.Stats -> Ok (stats_fields t, No_timing, "-")
  | Protocol.Explore ->
      let* spec = Ops.spec_of_params p in
      let* config = Ops.config_of_params ~jobs:t.cfg.jobs p in
      Result.map (explore_result spec p)
        (cancellable (fun () ->
             with_engine t req config spec
               (Session.run_interruptible ~interrupt)))
  | Protocol.Predict ->
      let* spec = Ops.spec_of_params p in
      let config = Chop.Explore.Config.make ~jobs:t.cfg.jobs () in
      let per_partition, stats =
        with_engine t req config spec Session.predictions
      in
      let text =
        Ops.render_predict spec ~index:p.Protocol.index ~top:p.Protocol.top
          per_partition stats
      in
      Ok ([ ("text", Json.String text) ], No_timing, "-")
  | Protocol.Advise -> (
      let* spec = Ops.spec_of_params p in
      let* config = Ops.config_of_params ~jobs:t.cfg.jobs p in
      match
        cancellable (fun () ->
            with_engine t req config spec
              (Session.run_interruptible ~interrupt))
      with
      | Error _ as e -> e
      | Ok report ->
          let j = Chop.Advisor.judge spec report in
          Ok
            ( [
                ("text", Json.String (Ops.render_advice j));
                ("feasible", Json.Bool j.Chop.Advisor.feasible);
              ],
              Of_report report,
              verdict j.Chop.Advisor.feasible ))
  | Protocol.Explore_slice -> (
      let* spec = Ops.spec_of_params p in
      let* config = Ops.config_of_params ~jobs:t.cfg.jobs p in
      match
        with_engine t req config spec
          (Session.run_slice ~index:p.Protocol.slice_index
             ~count:p.Protocol.slice_count)
      with
      | exception Invalid_argument m -> Error (Protocol.Bad_request, m)
      | sr -> Ok (Ops.slice_payload_fields sr, No_timing, "-"))
  | Protocol.Sensitivity ->
      let* spec = Ops.spec_of_params p in
      (* per-point what-if probes build their own single-job engines; the
         shared prediction cache is what keeps repeat sweeps warm *)
      let config = Chop.Explore.Config.make ~jobs:1 () in
      let* sweep = Ops.run_sensitivity ~config spec p in
      let cliff =
        match Chop.Sensitivity.cliff sweep with
        | Some v -> Json.Float v
        | None -> Json.Null
      in
      Ok
        ( [
            ("text", Json.String (Ops.render_sensitivity sweep));
            ("cliff", cliff);
          ],
          No_timing,
          "-" )
  | Protocol.Gateway_migrate ->
      Error
        ( Protocol.Bad_request,
          "gateway/migrate is a gateway operation; this is a backend" )
  | Protocol.Session_open -> (
      let now = Unix.gettimeofday () in
      prune_sessions t ~now;
      let* restored =
        if sid = "" then
          if p.Protocol.restore then
            Error "session/open with restore requires a session id"
          else Ok None
        else restore_session t ~sid p
      in
      let* session, open_params, restored_flag =
        match restored with
        | Some (session, open_params) -> Ok (session, open_params, true)
        | None ->
            Result.bind (Ops.spec_of_params p) (fun spec ->
                Result.bind (Ops.config_of_params ~jobs:t.cfg.jobs p)
                  (fun config ->
                    Ok
                      ( Session.create ~pool:t.pool config spec,
                        p, false )))
      in
      let sid = if sid = "" then Session_table.fresh_id t.sessions else sid in
      let slot =
        {
          Session_table.session;
          smu = Mutex.create ();
          last_used = now;
          open_params;
          writer = p.Protocol.client;
          observers = [];
          edits = 0;
        }
      in
      match Session_table.add t.sessions sid slot with
      | Error m ->
          Session.close session;
          Error (Protocol.Bad_request, m)
      | Ok () ->
          Ok
            ( [
                ("session", Json.String sid);
                ("restored", Json.Bool restored_flag);
                ("revision", Json.Int (Session.revision session));
                ("text",
                 Json.String
                   (Ops.render_parts (Session.spec session)));
              ],
              No_timing,
              if restored_flag then "restored" else "-" ))
  | Protocol.Session_list ->
      let now = Unix.gettimeofday () in
      let lines =
        List.map
          (fun (sid, (slot : Session_table.slot)) ->
            {
              Ops.ses_id = sid;
              ses_revision = Session.revision slot.Session_table.session;
              ses_age_s = Float.max 0. (now -. slot.Session_table.last_used);
              ses_writer = slot.Session_table.writer;
              ses_observers = List.length slot.Session_table.observers;
            })
          (Session_table.entries t.sessions)
      in
      Ok
        ( [
            ("sessions", Json.Array (List.map Ops.session_line_to_json lines));
            ("text", Json.String (Ops.render_sessions lines));
          ],
          No_timing,
          "-" )
  | Protocol.Session_edit ->
      on_session t p Edit (fun _ session ->
          let* edits =
            Ops.parse_edits (Session.spec session) p.Protocol.edits
          in
          match Session.edit session edits with
          | Error e ->
              Error
                ( Protocol.Bad_request,
                  Format.asprintf "%a" Chop.Spec.pp_update_error e )
          | Ok dirty ->
              let labels ls =
                Json.Array (List.map (fun l -> Json.String l) ls)
              in
              Ok
                ( [
                    ("session", Json.String sid);
                    ("text", Json.String (Ops.render_dirty dirty));
                    ("repredict", labels dirty.Chop.Spec.repredict);
                    ("rederive", labels dirty.Chop.Spec.rederive);
                    ("removed", labels dirty.Chop.Spec.removed);
                    ("revision", Json.Int (Session.revision session));
                  ],
                  No_timing,
                  "-" ))
  | (Protocol.Session_undo | Protocol.Session_redo) as op ->
      on_session t p Edit (fun _ session ->
          let step =
            if op = Protocol.Session_undo then Session.undo else Session.redo
          in
          let* dirty = step session in
          Ok
            ( [
                ("session", Json.String sid);
                ("text", Json.String (Ops.render_dirty dirty));
                ("revision", Json.Int (Session.revision session));
                ("undo_depth", Json.Int (Session.undo_depth session));
                ("redo_depth", Json.Int (Session.redo_depth session));
              ],
              No_timing,
              "-" ))
  | Protocol.Session_attach ->
      on_session t p Read (fun slot _ ->
          let client = p.Protocol.client in
          if client = "" then
            Error
              ( Protocol.Bad_request,
                "session/attach requires a client identity" )
          else if client = slot.Session_table.writer then
            Error
              ( Protocol.Bad_request,
                Printf.sprintf "client %S is already the writer" client )
          else if List.mem client slot.Session_table.observers then
            Error
              ( Protocol.Bad_request,
                Printf.sprintf "client %S is already attached" client )
          else begin
            slot.Session_table.observers <-
              client :: slot.Session_table.observers;
            Ok
              ( [
                  ("session", Json.String sid);
                  ("observers",
                   Json.Int (List.length slot.Session_table.observers));
                  ("text",
                   Json.String
                     (Printf.sprintf
                        "attached to session %s as observer (writer %s)\n" sid
                        (match slot.Session_table.writer with
                        | "" -> "-"
                        | w -> w)));
                ],
                No_timing,
                "-" )
          end)
  | Protocol.Session_detach ->
      on_session t p Read (fun slot _ ->
          let client = p.Protocol.client in
          if not (List.mem client slot.Session_table.observers) then
            Error
              ( Protocol.Bad_request,
                Printf.sprintf "client %S is not attached to session %s" client
                  sid )
          else begin
            slot.Session_table.observers <-
              List.filter (fun c -> c <> client) slot.Session_table.observers;
            Ok
              ( [
                  ("session", Json.String sid);
                  ("observers",
                   Json.Int (List.length slot.Session_table.observers));
                  ("text",
                   Json.String
                     (Printf.sprintf "detached from session %s\n" sid));
                ],
                No_timing,
                "-" )
          end)
  | Protocol.Session_run ->
      on_session t p Read (fun slot session ->
          Result.map
            (explore_result ~session:sid (Session.spec session)
               slot.Session_table.open_params)
            (cancellable (fun () ->
                 Session.run_interruptible ~interrupt session)))
  | Protocol.Session_optimize ->
      on_session t p Edit (fun _ session ->
          let* constraints =
            Ops.constraints_of_params (Session.spec session) p
          in
          let time_limit_s =
            if p.Protocol.time_limit_ms > 0. then
              Some (p.Protocol.time_limit_ms /. 1000.)
            else None
          in
          match
            cancellable (fun () ->
                Chop_auto.refine ~seed:p.Protocol.seed ~constraints
                  ~max_moves:p.Protocol.max_moves ?time_limit_s
                  ?coarse_target:
                    (if p.Protocol.coarse > 0 then Some p.Protocol.coarse
                     else None)
                  ~interrupt session)
          with
          | exception Chop_auto.Invalid_constraints m ->
              Error (Protocol.Bad_request, m)
          | Error _ as e -> e
          | Ok o ->
              let feasible = Ops.explore_feasible_count o.Chop_auto.report in
              Ok
                ( [
                    ("session", Json.String sid);
                    ("text",
                     Json.String (Ops.render_auto (Session.spec session) o));
                    ("feasible", Json.Bool (feasible > 0));
                    ("feasible_count", Json.Int feasible);
                    ("levels", Json.Int o.Chop_auto.levels);
                    ("moves_tried", Json.Int o.Chop_auto.moves_tried);
                    ("moves_accepted", Json.Int o.Chop_auto.moves_accepted);
                    ("impl_flips", Json.Int o.Chop_auto.impl_flips);
                    ("interrupted", Json.Bool o.Chop_auto.interrupted);
                  ],
                  Of_auto o,
                  verdict (feasible > 0) ))
  | Protocol.Session_save ->
      on_session t p Write (fun slot session ->
          if t.cfg.state_dir = None then
            Error
              ( Protocol.Bad_request,
                "session/save requires the server to run with --state-dir" )
          else
            match save_session t sid slot with
            | Error m -> Error (Protocol.Internal, m)
            | Ok _ ->
                let closing = p.Protocol.close in
                if closing then begin
                  (* the migration handoff: persist, then free the slot so
                     the target backend owns the session *)
                  ignore (Session_table.remove t.sessions sid);
                  Session.close session
                end;
                Ok
                  ( [
                      ("session", Json.String sid);
                      ("saved", Json.Bool true);
                      ("closed", Json.Bool closing);
                      ("text",
                       Json.String
                         (Printf.sprintf "session %s saved\n" sid
                         ^
                         if closing then Ops.render_session_closed sid
                         else ""));
                    ],
                    No_timing,
                    "-" ))
  | Protocol.Session_close ->
      on_session t p Write (fun _ session ->
          (* re-check under the session mutex: a concurrent close or
             migration may have emptied the slot already *)
          match Session_table.remove t.sessions sid with
          | None ->
              Error
                ( Protocol.Bad_request,
                  Printf.sprintf "unknown session %S (closed or evicted?)" sid )
          | Some _ ->
              Session.close session;
              (* an explicit close discards durable state too — only
                 eviction, shutdown and session/save keep snapshots *)
              drop_snapshot t sid;
              Ok
                ( [
                    ("closed", Json.Bool true);
                    ("text", Json.String (Ops.render_session_closed sid));
                  ],
                  No_timing,
                  "-" ))

(* The full pipeline for one admitted request: execute, time, count,
   log, render the response object. *)
let execute t (req : Protocol.request) ~queue_seconds ~interrupt =
  let t0 = Unix.gettimeofday () in
  let queue_ms = queue_seconds *. 1000. in
  let op_name = Protocol.op_to_string req.Protocol.op in
  let result =
    try exec_op t req ~interrupt
    with exn -> Error (Protocol.Internal, describe_exn exn)
  in
  let run_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  match result with
  | Ok (fields, report, verdict) ->
      let timing =
        match report with
        | Of_report r -> Protocol.timing_of_report ~queue_ms ~run_ms r
        | Of_auto o -> Protocol.optimize_timing ~queue_ms ~run_ms o
        | No_timing -> Protocol.no_engine_timing ~queue_ms ~run_ms
      in
      bump t `Ok;
      access_log t ~client:req.Protocol.params.Protocol.client
        ~id:req.Protocol.id ~op:op_name ~status:"ok" ~timing ~verdict;
      Protocol.ok_response ~id:req.Protocol.id ~op:req.Protocol.op ~timing fields
  | Error (code, msg) ->
      let timing = Protocol.no_engine_timing ~queue_ms ~run_ms in
      bump t (`Err code);
      access_log t ~client:req.Protocol.params.Protocol.client
        ~id:req.Protocol.id ~op:op_name
        ~status:(Protocol.error_code_to_string code)
        ~timing ~verdict:"-";
      Protocol.error_response ~id:req.Protocol.id ~code msg

(* Rejections that never execute still get a counter bump and a log
   line, so the access log accounts for every request seen. *)
let reject t ~id ~op ~code ~queue_seconds msg =
  let timing =
    Protocol.no_engine_timing ~queue_ms:(queue_seconds *. 1000.) ~run_ms:0.
  in
  bump t (`Err code);
  access_log t ~id ~op ~status:(Protocol.error_code_to_string code) ~timing
    ~verdict:"-";
  Protocol.error_response ~id ~code msg

let effective_deadline t (req : Protocol.request) ~now =
  match
    (match req.Protocol.deadline_ms with
    | Some _ as d -> d
    | None -> t.cfg.default_deadline_ms)
  with
  | None -> None
  | Some ms -> Some (now +. (ms /. 1000.))

(* Parse + dispatch for one request line; [send] delivers each response
   line (possibly from a scheduler thread, later). *)
let dispatch_line t ~send line =
  match Protocol.parse_request line with
  | Error msg ->
      send
        (Json.print
           (reject t ~id:"-" ~op:"-" ~code:Protocol.Bad_request ~queue_seconds:0.
              msg))
  | Ok req -> (
      let id = req.Protocol.id in
      let op = Protocol.op_to_string req.Protocol.op in
      match req.Protocol.op with
      | Protocol.Stats | Protocol.Ping ->
          (* answered inline, bypassing the queue: the service stays
             observable when the scheduler is saturated *)
          send
            (Json.print
               (execute t req ~queue_seconds:0. ~interrupt:(fun () -> false)))
      | _ -> (
          let deadline = effective_deadline t req ~now:(Unix.gettimeofday ()) in
          let outcome =
            Scheduler.submit t.sched ?deadline
              ~expired:(fun ~queue_seconds ->
                send
                  (Json.print
                     (reject t ~id ~op ~code:Protocol.Deadline ~queue_seconds
                        "deadline exceeded while queued")))
              ~run:(fun ~interrupt ~queue_seconds ->
                send (Json.print (execute t req ~queue_seconds ~interrupt)))
              ()
          in
          match outcome with
          | Scheduler.Accepted -> ()
          | Scheduler.Overloaded ->
              send
                (Json.print
                   (reject t ~id ~op ~code:Protocol.Overloaded ~queue_seconds:0.
                      (Printf.sprintf
                         "queue full (%d queued + %d running); retry later"
                         t.cfg.queue t.cfg.concurrency)))
          | Scheduler.Draining ->
              send
                (Json.print
                   (reject t ~id ~op ~code:Protocol.Shutting_down
                      ~queue_seconds:0. "server is draining"))))

let handle_line t line =
  let buf = Buffer.create 256 in
  (* synchronous path: every send lands before dispatch_line returns
     because stats/ping run inline and this caller is expected to be
     used without the scheduler racing (tests, the CLI parity check) —
     scheduled sends block on the buffer mutex-free single thread. *)
  let done_mu = Mutex.create () in
  let done_cv = Condition.create () in
  let got = ref false in
  let send s =
    Mutex.lock done_mu;
    Buffer.add_string buf s;
    got := true;
    Condition.signal done_cv;
    Mutex.unlock done_mu
  in
  dispatch_line t ~send line;
  Mutex.lock done_mu;
  while not !got do
    Condition.wait done_cv done_mu
  done;
  Mutex.unlock done_mu;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Serving                                                             *)

let serve t =
  (match t.cfg.socket_path with
  | Some path ->
      logf t "serve: listening on %s (concurrency %d, queue %d, jobs %d)" path
        t.cfg.concurrency t.cfg.queue t.cfg.jobs
  | None ->
      logf t
        "serve: reading requests from stdin (concurrency %d, queue %d, jobs %d)"
        t.cfg.concurrency t.cfg.queue t.cfg.jobs);
  (* each line goes to the scheduler; its response is sent later, from a
     worker thread *)
  Listener.run ~signals:t.cfg.handle_signals t.listener (fun ~send ->
      (dispatch_line t ~send, ignore));
  (* drain-then-exit: finish and answer everything admitted, then close *)
  logf t
    "serve: shutdown requested, draining %d queued + %d in-flight request(s)"
    (Scheduler.queued t.sched)
    (Scheduler.in_flight t.sched);
  Scheduler.drain t.sched;
  Listener.close t.listener;
  close_sessions t;
  close_engines t;
  Chop_util.Pool.shutdown t.pool;
  let s = Scheduler.stats t.sched in
  logf t "serve: drained; %d completed, %d expired, %d rejected, %d failed"
    s.Scheduler.completed s.Scheduler.expired s.Scheduler.rejected
    s.Scheduler.failed
