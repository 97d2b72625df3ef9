(* The [chop serve] daemon.  See server.mli for the architecture; the
   short version: one shared domain pool, one table of warm engines and
   sessions ({!Session_table}), a bounded scheduler fed by the
   {!Listener} transport, and a drain-then-exit shutdown. *)

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
    max_sessions = 64;
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

type t = {
  cfg : config;
  pool : Chop_util.Pool.t;
  sched : Scheduler.t;
  table : Session_table.t;
  counters_mu : Mutex.t;
  counters : counters;
  listener : Listener.t;
  started : float;
}

let create cfg =
  if cfg.concurrency < 1 then invalid_arg "Server.create: concurrency must be >= 1";
  if cfg.queue < 0 then invalid_arg "Server.create: queue must be >= 0";
  if cfg.jobs < 1 then invalid_arg "Server.create: jobs must be >= 1";
  (* validates the TTL and the cap, before anything is bound *)
  let table =
    Session_table.create ~ttl_s:cfg.session_ttl_s ~max_sessions:cfg.max_sessions
  in
  (* mkdir first and inspect only on EEXIST: backends started together on
     one fresh shared directory race to create it, and each must win *)
  Option.iter
    (fun dir ->
      try Unix.mkdir dir 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) ->
        if (Unix.stat dir).Unix.st_kind <> Unix.S_DIR then
          raise (Unix.Unix_error (Unix.ENOTDIR, "mkdir", dir)))
    cfg.state_dir;
  let listener = Listener.create ~socket_path:cfg.socket_path ~log:cfg.log in
  {
    cfg;
    pool = Chop_util.Pool.create ~jobs:cfg.jobs ();
    sched = Scheduler.create ~queue:cfg.queue ~concurrency:cfg.concurrency;
    table;
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
(* Stored answers                                                      *)

(* Only an edit changes what a run renders, so a repeat of the last op
   and params at the same revision gets the stored bytes back, and
   nothing runs.  The caller holds the slot's mutex. *)
let reuse (slot : Session_table.slot) (req : Protocol.request) ~hit run =
  let revision = Session.revision slot.Session_table.session in
  match slot.Session_table.answer with
  | Some a
    when a.Session_table.revision = revision
         && a.Session_table.op = req.Protocol.op
         && a.Session_table.params = req.Protocol.params ->
      Ok (a.Session_table.result, hit, a.Session_table.verdict)
  | _ ->
      let r = run () in
      Result.iter
        (fun (result, _, verdict) ->
          slot.Session_table.answer <-
            Some
              {
                Session_table.revision;
                op = req.Protocol.op;
                params = req.Protocol.params;
                result;
                verdict;
              })
        r;
      r

(* ------------------------------------------------------------------ *)
(* The table: warm engines and interactive sessions in one
   {!Session_table}, durability in {!Chop.Snapshot}.  A session is
   snapshotted whenever it leaves the table with a state dir configured —
   eviction, session/save, shutdown — and session/open resurrects the
   snapshot, so a restart or a gateway migration loses no interactive
   state.  An engine rebuilds from its key, so it is closed and never
   snapshotted. *)

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

(* Closes a slot that left the table by eviction ([reason]) or at
   shutdown, snapshotting a session first. *)
let retire t ?reason key (slot : Session_table.slot) =
  let what, saved =
    match key with
    | Session_table.Engine k -> ("engine " ^ k, false)
    | Session_table.Session sid -> (
        ( "session " ^ sid,
          match save_session t sid slot with
          | Ok saved -> saved
          | Error m ->
              logf t "serve: session %s snapshot failed: %s" sid m;
              false ))
  in
  Session.close slot.Session_table.session;
  match reason with
  | Some r ->
      logf t "serve: %s evicted (%s%s)" what r
        (if saved then ", snapshotted" else "")
  | None -> if saved then logf t "serve: %s snapshotted" what

(* makes room for one new slot *)
let prune t =
  Session_table.prune t.table ~now:(Unix.gettimeofday ()) ~room_for:1
    ~on_evict:(fun ~reason -> retire t ~reason)

(* a new engine or session on [p]'s spec *)
let new_session t (p : Protocol.params) config =
  Result.bind (Ops.spec_of_params p) (fun spec ->
      Result.map (fun c -> Session.create ~pool:t.pool c spec) (config ()))

let new_slot session ~writer open_params =
  {
    Session_table.session;
    smu = Mutex.create ();
    last_used = Unix.gettimeofday ();
    open_params;
    writer;
    observers = [];
    answer = None;
  }

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
  let engines, sessions = Session_table.counts t.table in
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

(* a response's [result] object, printed *)
let obj fields = Json.print (Json.Object fields)

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
  ( obj
      ((match session with
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
        ]),
    Of_report report,
    verdict (feasible > 0) )

(* Answers explore, advise and predict on the warm engine for the
   request's identity, built on first use (outside the table lock) from
   the request's spec and [config ()]; later requests render against
   [Session.spec engine], since {!Ops.engine_key} is injective.  A request
   that loses the race to add its key answers from the winner's slot, and
   one that loses its slot between lookup and lock builds a new one.
   [run spec engine] answers a new request. *)
let with_engine t (req : Protocol.request) ~config run =
  let p = req.Protocol.params in
  let key = Session_table.Engine (Ops.engine_key ~op:req.Protocol.op p) in
  let use (slot : Session_table.slot) =
    slot.Session_table.last_used <- Unix.gettimeofday ();
    let engine = slot.Session_table.session in
    reuse slot req ~hit:No_timing (fun () -> run (Session.spec engine) engine)
  in
  let rec go () =
    match Session_table.with_slot t.table key use with
    | Some r -> r
    | None -> (
        match new_session t p config with
        | Error m -> Error (Protocol.Bad_request, m)
        | Ok engine ->
            prune t;
            if not (Session_table.add t.table key (new_slot engine ~writer:"" p))
            then Session.close engine;
            go ())
  in
  go ()

(* How a session op may touch its session.  Only the client that opened
   (or restored) a session may write it — [Write], or [Edit] for a write
   that changes the spec; attached observers and strangers [Read]. *)
type access = Read | Write | Edit

(* The frame of every op on an open session: find it and hold its mutex
   ({!Session_table.with_slot}: a session evicted or closed before the
   lock is unknown), check the writer, run [f slot session], and on
   success mark the session used (all but [Write]). *)
let on_session t (p : Protocol.params) access f =
  let sid = p.Protocol.session in
  Session_table.with_slot t.table (Session_table.Session sid) (fun slot ->
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
      if Result.is_ok r && access <> Write then
        slot.Session_table.last_used <- Unix.gettimeofday ();
      r)
  |> Option.value
       ~default:
         (Error
            ( Protocol.Bad_request,
              Printf.sprintf "unknown session %S (closed or evicted?)" sid ))

(* One operation, already admitted: returns the printed result object,
   the timing source (when an engine ran) and the verdict shown in the
   access log. *)
let exec_op t (req : Protocol.request) ~interrupt :
    (string * timing_source * string, Protocol.error_code * string) result =
  let p = req.Protocol.params in
  let sid = p.Protocol.session in
  let ( let* ) r f =
    match r with Ok v -> f v | Error e -> Error (Protocol.Bad_request, e)
  in
  let explore_config () = Ops.config_of_params ~jobs:t.cfg.jobs p in
  let explore engine =
    cancellable (fun () -> Session.run_interruptible ~interrupt engine)
  in
  match req.Protocol.op with
  | Protocol.Ping -> Ok (obj [ ("pong", Json.Bool true) ], No_timing, "-")
  | Protocol.Stats -> Ok (obj (stats_fields t), No_timing, "-")
  | Protocol.Explore ->
      with_engine t req ~config:explore_config (fun spec engine ->
          Result.map (explore_result spec p) (explore engine))
  | Protocol.Predict ->
      with_engine t req
        ~config:(fun () -> Ok (Chop.Explore.Config.make ~jobs:t.cfg.jobs ()))
        (fun spec engine ->
          let per_partition, stats = Session.predictions engine in
          let text =
            Ops.render_predict spec ~index:p.Protocol.index
              ~top:p.Protocol.top per_partition stats
          in
          Ok (obj [ ("text", Json.String text) ], No_timing, "-"))
  | Protocol.Advise ->
      with_engine t req ~config:explore_config (fun spec engine ->
          Result.map
            (fun report ->
              let j = Chop.Advisor.judge spec report in
              ( obj
                  [
                    ("text", Json.String (Ops.render_advice j));
                    ("feasible", Json.Bool j.Chop.Advisor.feasible);
                  ],
                Of_report report,
                verdict j.Chop.Advisor.feasible ))
            (explore engine))
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
        ( obj [
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
      prune t;
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
            Result.map
              (fun session -> (session, p, false))
              (new_session t p explore_config)
      in
      let sid = if sid = "" then Session_table.fresh_id t.table else sid in
      let slot = new_slot session ~writer:p.Protocol.client open_params in
      match Session_table.add t.table (Session_table.Session sid) slot with
      | false ->
          Session.close session;
          Error
            (Protocol.Bad_request, Printf.sprintf "session %S is already open" sid)
      | true ->
          Ok
            ( obj [
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
          (Session_table.sessions t.table)
      in
      Ok (obj (Ops.session_list_result lines), No_timing, "-")
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
                ( obj [
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
            ( obj [
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
              ( obj [
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
              ( obj [
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
          (* the run renders with the open parameters, whichever client
             asks: key its answer by them *)
          let opened = slot.Session_table.open_params in
          reuse slot { req with Protocol.params = opened } ~hit:No_timing (fun () ->
              Result.map
                (explore_result ~session:sid (Session.spec session) opened)
                (explore session)))
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
                ( obj [
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
                  Session_table.remove t.table (Session_table.Session sid);
                  Session.close session
                end;
                Ok
                  ( obj [
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
          Session_table.remove t.table (Session_table.Session sid);
          Session.close session;
          (* an explicit close discards durable state too — only
             eviction, shutdown and session/save keep snapshots *)
          drop_snapshot t sid;
          Ok
            ( obj [
                ("closed", Json.Bool true);
                ("text", Json.String (Ops.render_session_closed sid));
              ],
              No_timing,
              "-" ))

(* The full pipeline for one admitted request: execute, time, count,
   log, and the response line's pieces ({!Protocol.ok_pieces}). *)
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
  | Ok (result, source, verdict) ->
      let timing =
        match source with
        | Of_report r -> Protocol.timing_of_report ~queue_ms ~run_ms r
        | Of_auto o -> Protocol.optimize_timing ~queue_ms ~run_ms o
        | No_timing -> Protocol.no_engine_timing ~queue_ms ~run_ms
      in
      bump t `Ok;
      access_log t ~client:req.Protocol.params.Protocol.client
        ~id:req.Protocol.id ~op:op_name ~status:"ok" ~timing ~verdict;
      Protocol.ok_pieces ~id:req.Protocol.id ~op:req.Protocol.op ~timing result
  | Error (code, msg) ->
      let timing = Protocol.no_engine_timing ~queue_ms ~run_ms in
      bump t (`Err code);
      access_log t ~client:req.Protocol.params.Protocol.client
        ~id:req.Protocol.id ~op:op_name
        ~status:(Protocol.error_code_to_string code)
        ~timing ~verdict:"-";
      [ Json.print (Protocol.error_response ~id:req.Protocol.id ~code msg) ]

(* Rejections that never execute still get a counter bump and a log
   line, so the access log accounts for every request seen. *)
let reject t ~id ~op ~code ~queue_seconds msg =
  let timing =
    Protocol.no_engine_timing ~queue_ms:(queue_seconds *. 1000.) ~run_ms:0.
  in
  bump t (`Err code);
  access_log t ~id ~op ~status:(Protocol.error_code_to_string code) ~timing
    ~verdict:"-";
  [ Json.print (Protocol.error_response ~id ~code msg) ]

let effective_deadline t (req : Protocol.request) ~now =
  match
    (match req.Protocol.deadline_ms with
    | Some _ as d -> d
    | None -> t.cfg.default_deadline_ms)
  with
  | None -> None
  | Some ms -> Some (now +. (ms /. 1000.))

(* Parse + dispatch for one request line; [send] delivers each response
   line's pieces (possibly from a scheduler thread, later). *)
let dispatch_line t ~send line =
  match Protocol.parse_request line with
  | Error msg ->
      send
        (reject t ~id:"-" ~op:"-" ~code:Protocol.Bad_request ~queue_seconds:0.
           msg)
  | Ok req -> (
      let id = req.Protocol.id in
      let op = Protocol.op_to_string req.Protocol.op in
      match req.Protocol.op with
      | Protocol.Stats | Protocol.Ping ->
          (* answered inline, bypassing the queue: the service stays
             observable when the scheduler is saturated *)
          send (execute t req ~queue_seconds:0. ~interrupt:(fun () -> false))
      | _ -> (
          let deadline = effective_deadline t req ~now:(Unix.gettimeofday ()) in
          let outcome =
            Scheduler.submit t.sched ?deadline
              ~expired:(fun ~queue_seconds ->
                send
                  (reject t ~id ~op ~code:Protocol.Deadline ~queue_seconds
                     "deadline exceeded while queued"))
              ~run:(fun ~interrupt ~queue_seconds ->
                send (execute t req ~queue_seconds ~interrupt))
              ()
          in
          match outcome with
          | Scheduler.Accepted -> ()
          | Scheduler.Overloaded ->
              send
                (reject t ~id ~op ~code:Protocol.Overloaded ~queue_seconds:0.
                   (Printf.sprintf
                      "queue full (%d queued + %d running); retry later"
                      t.cfg.queue t.cfg.concurrency))
          | Scheduler.Draining ->
              send
                (reject t ~id ~op ~code:Protocol.Shutting_down
                   ~queue_seconds:0. "server is draining")))

let handle_line t line =
  let buf = Buffer.create 256 in
  (* synchronous path: every send lands before dispatch_line returns
     because stats/ping run inline and this caller is expected to be
     used without the scheduler racing (tests, the CLI parity check) —
     scheduled sends block on the buffer mutex-free single thread. *)
  let done_mu = Mutex.create () in
  let done_cv = Condition.create () in
  let got = ref false in
  let send pieces =
    Mutex.lock done_mu;
    List.iter (Buffer.add_string buf) pieces;
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
  Session_table.drain t.table (retire t);
  Chop_util.Pool.shutdown t.pool;
  let s = Scheduler.stats t.sched in
  logf t "serve: drained; %d completed, %d expired, %d rejected, %d failed"
    s.Scheduler.completed s.Scheduler.expired s.Scheduler.rejected
    s.Scheduler.failed
