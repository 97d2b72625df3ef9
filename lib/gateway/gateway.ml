(* The sharding front process: consistent-hash routing over backend
   [chop serve] sockets, verbatim line forwarding, and snapshot-based
   session migration and failover.  See gateway.mli for the contract. *)

module Json = Chop_util.Json
module P = Chop_server.Protocol
module Ops = Chop_server.Ops
module Client = Chop_server.Client
module Listener = Chop_server.Listener

type config = {
  socket_path : string option;
  backends : string list;
  vnodes : int;
  log : out_channel option;
  handle_signals : bool;
  health_interval_s : float option;
}

type counters = {
  mutable forwarded : int;
  mutable migrations : int;
  mutable failovers : int;
  mutable errors : int;  (* requests answered with a gateway-made error *)
}

(* Per-client-connection backend connections: each gateway connection
   thread keeps its own, so concurrent clients reach a backend over
   separate connections (the backend scheduler interleaves them) and no
   two threads ever share a send/recv pair. *)
type pconn = (string, Client.t) Hashtbl.t

type t = {
  cfg : config;
  ring : Ring.t;
  mu : Mutex.t;  (* routes, writers, seq *)
  routes : (string, string) Hashtbl.t;  (* session id -> backend *)
  writers : (string, string) Hashtbl.t;  (* session id -> writer client *)
  mutable seq : int;
  counters : counters;
  counters_mu : Mutex.t;
  listener : Listener.t;
  test_pc : pconn;  (* handle_line's cached backend connections *)
  test_mu : Mutex.t;
  (* backends whose last health ping failed; routing prefers live
     backends and session ops fail over preemptively.  Only the prober
     (or an explicit [check_health]) mutates it, under [dead_mu]. *)
  dead : (string, unit) Hashtbl.t;
  dead_mu : Mutex.t;
  health_pc : pconn;  (* the prober's private backend connections *)
}

let create cfg =
  let ring = Ring.create ~vnodes:cfg.vnodes cfg.backends in
  {
    cfg;
    ring;
    mu = Mutex.create ();
    routes = Hashtbl.create 16;
    writers = Hashtbl.create 16;
    seq = 0;
    counters = { forwarded = 0; migrations = 0; failovers = 0; errors = 0 };
    counters_mu = Mutex.create ();
    listener = Listener.create ~socket_path:cfg.socket_path ~log:cfg.log;
    test_pc = Hashtbl.create 4;
    test_mu = Mutex.create ();
    dead = Hashtbl.create 4;
    dead_mu = Mutex.create ();
    health_pc = Hashtbl.create 4;
  }

let stop t = Listener.stop t.listener

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)

let logf t fmt = Listener.logf t.listener ("gateway: " ^^ fmt)

let counted t f =
  Mutex.lock t.counters_mu;
  f t.counters;
  Mutex.unlock t.counters_mu

(* ------------------------------------------------------------------ *)
(* Backend transport                                                   *)

let conn_of pc backend =
  match Hashtbl.find_opt pc backend with
  | Some c -> Ok c
  | None -> (
      match Client.connect backend with
      | c ->
          Hashtbl.add pc backend c;
          Ok c
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "backend %s: %s" backend (Unix.error_message e)))

let drop_conn pc backend =
  match Hashtbl.find_opt pc backend with
  | Some c ->
      Client.close c;
      Hashtbl.remove pc backend
  | None -> ()

let close_pconn pc =
  Hashtbl.iter (fun _ c -> Client.close c) pc;
  Hashtbl.reset pc

(* One request line to one backend, one response line back.  Transport
   failures drop the cached connection (the next use reconnects) and
   surface as [Error] so callers can fail over. *)
let rpc_backend pc backend line =
  match conn_of pc backend with
  | Error _ as e -> e
  | Ok c -> (
      match
        Client.send_line c line;
        Client.recv_line c
      with
      | Some resp -> Ok resp
      | None ->
          drop_conn pc backend;
          Error (Printf.sprintf "backend %s closed the connection" backend)
      | exception (Sys_error m | Failure m) ->
          drop_conn pc backend;
          Error (Printf.sprintf "backend %s: %s" backend m)
      | exception Unix.Unix_error (e, _, _) ->
          drop_conn pc backend;
          Error
            (Printf.sprintf "backend %s: %s" backend (Unix.error_message e)))

(* ------------------------------------------------------------------ *)
(* Backend health

   A periodic prober pings every backend over its own connections and
   maintains the dead set; routing then prefers live backends and
   session ops fail over preemptively instead of discovering a dead
   owner one timed-out request at a time.  Without [health_interval_s]
   no prober runs, the dead set stays empty and routing behaves exactly
   as before. *)

let is_dead t b =
  Mutex.lock t.dead_mu;
  let d = Hashtbl.mem t.dead b in
  Mutex.unlock t.dead_mu;
  d

(* Live backends first, in the given (ring-preference) order; dead ones
   keep their order at the tail as a last resort, so a fully-dead
   marking still attempts every backend rather than failing outright. *)
let prefer_live t backends =
  let live, dead = List.partition (fun b -> not (is_dead t b)) backends in
  live @ dead

let health_ping_line = {|{"id":"gw-health","op":"ping"}|}

let check_health t =
  List.iter
    (fun b ->
      let ok =
        match rpc_backend t.health_pc b health_ping_line with
        | Ok resp -> (
            match Json.parse resp with
            | Ok j -> P.response_ok j = Some true
            | Error _ -> false)
        | Error _ -> false
      in
      Mutex.lock t.dead_mu;
      let was_dead = Hashtbl.mem t.dead b in
      if ok then Hashtbl.remove t.dead b else Hashtbl.replace t.dead b ();
      Mutex.unlock t.dead_mu;
      if ok && was_dead then logf t "backend %s is back, marked live" b
      else if (not ok) && not was_dead then
        logf t "backend %s failed its health ping, marked dead" b)
    (Ring.nodes t.ring);
  Mutex.lock t.dead_mu;
  let dead = Hashtbl.fold (fun b () acc -> b :: acc) t.dead [] in
  Mutex.unlock t.dead_mu;
  List.sort String.compare dead

let health_loop t interval =
  (* sleep in short slices so stop is honoured promptly *)
  let rec pause left =
    if left > 0. && not (Listener.stopping t.listener) then begin
      let s = Float.min 0.25 left in
      Thread.delay s;
      pause (left -. s)
    end
  in
  while not (Listener.stopping t.listener) do
    ignore (check_health t);
    pause interval
  done;
  close_pconn t.health_pc

(* Response-line introspection (the line itself is always forwarded
   verbatim; these only steer bookkeeping). *)
let line_json line =
  match Json.parse line with Ok j -> Some j | Error _ -> None

let line_ok line =
  match line_json line with
  | Some j -> P.response_ok j = Some true
  | None -> false

let line_error_message line =
  match
    Option.bind (line_json line) (fun j ->
        Option.bind (Json.member "error" j) (fun e ->
            Option.bind (Json.member "message" e) Json.to_string_opt))
  with
  | Some m -> m
  | None -> line

(* ------------------------------------------------------------------ *)
(* Routing state                                                       *)

let route_of t sid =
  Mutex.lock t.mu;
  let r = Hashtbl.find_opt t.routes sid in
  Mutex.unlock t.mu;
  r

let owner_of t sid =
  match route_of t sid with
  | Some b -> b
  | None -> (
      (* unrouted (gateway restart, or an id opened out of band): the
         ring's home backend is the deterministic guess *)
      match Ring.lookup t.ring sid with
      | Some b -> b
      | None -> assert false (* ring is never empty *))

let set_route t sid backend ~writer =
  Mutex.lock t.mu;
  Hashtbl.replace t.routes sid backend;
  Hashtbl.replace t.writers sid writer;
  Mutex.unlock t.mu

let del_route t sid =
  Mutex.lock t.mu;
  Hashtbl.remove t.routes sid;
  Hashtbl.remove t.writers sid;
  Mutex.unlock t.mu

let writer_of t sid =
  Mutex.lock t.mu;
  let w = Hashtbl.find_opt t.writers sid in
  Mutex.unlock t.mu;
  Option.value ~default:"" w

let fresh_sid t =
  Mutex.lock t.mu;
  let rec next () =
    t.seq <- t.seq + 1;
    let sid = Printf.sprintf "s%d" t.seq in
    if Hashtbl.mem t.routes sid then next () else sid
  in
  let sid = next () in
  Mutex.unlock t.mu;
  sid

(* ------------------------------------------------------------------ *)
(* Stateless ops: route by engine key, fail over along the ring        *)

let forward_stateless t pc (req : P.request) line =
  let key = Ops.engine_key ~op:req.P.op req.P.params in
  let rec go last = function
    | [] -> Error last
    | b :: rest -> (
        match rpc_backend pc b line with
        | Ok resp ->
            counted t (fun c -> c.forwarded <- c.forwarded + 1);
            Ok resp
        | Error e -> go e rest)
  in
  go "no backend configured" (prefer_live t (Ring.spread t.ring key))

(* ------------------------------------------------------------------ *)
(* Session ops: sticky routing, snapshot failover, migration           *)

(* Bookkeeping driven by the backend's answer: opens pin a route,
   closes (and migration handoffs) release it. *)
let note_session_response t (req : P.request) ~backend resp =
  if line_ok resp then
    let sid = req.P.params.P.session in
    match req.P.op with
    | P.Session_open -> set_route t sid backend ~writer:req.P.params.P.client
    | P.Session_close -> del_route t sid
    | P.Session_save when req.P.params.P.close -> del_route t sid
    | _ -> ()

let restore_request ~id ~sid ~writer =
  Json.print
    (P.request_to_json
       {
         P.id;
         op = P.Session_open;
         deadline_ms = None;
         params =
           { P.default_params with P.session = sid; restore = true;
             client = writer };
       })

(* The owning backend is gone: restore the session from its snapshot on
   the next backend the ring prefers, then replay the original request
   there.  Works because backends snapshot sessions on shutdown and
   eviction into the shared state dir. *)
let failover_session t pc (req : P.request) line ~sid ~dead =
  counted t (fun c -> c.failovers <- c.failovers + 1);
  match Ring.lookup ~avoid:[ dead ] t.ring sid with
  | None ->
      Json.print
        (P.error_response ~id:req.P.id ~code:P.Internal
           (Printf.sprintf "backend %s is unreachable and no other backend \
                            is configured" dead))
  | Some target -> (
      let writer = writer_of t sid in
      let oline =
        restore_request ~id:(req.P.id ^ ":failover") ~sid ~writer
      in
      match rpc_backend pc target oline with
      | Error e ->
          Json.print (P.error_response ~id:req.P.id ~code:P.Internal e)
      | Ok oresp when not (line_ok oresp) ->
          Json.print
            (P.error_response ~id:req.P.id ~code:P.Internal
               (Printf.sprintf
                  "backend %s died and session %s could not be restored on \
                   %s: %s"
                  dead sid target (line_error_message oresp)))
      | Ok _ -> (
          set_route t sid target ~writer;
          logf t "session %s failed over %s -> %s" sid dead target;
          match rpc_backend pc target line with
          | Ok resp ->
              note_session_response t req ~backend:target resp;
              resp
          | Error e ->
              Json.print (P.error_response ~id:req.P.id ~code:P.Internal e)))

let session_op t pc (req : P.request) line =
  let sid = req.P.params.P.session in
  let owner = owner_of t sid in
  (* a health-marked owner fails over preemptively — no need to wait for
     this request's rpc to time out against a dead socket *)
  if is_dead t owner then failover_session t pc req line ~sid ~dead:owner
  else
    match rpc_backend pc owner line with
    | Ok resp ->
        counted t (fun c -> c.forwarded <- c.forwarded + 1);
        note_session_response t req ~backend:owner resp;
        resp
    | Error _ -> failover_session t pc req line ~sid ~dead:owner

(* session/open routes by the (gateway-allocated) session id and sticks;
   a dead preferred backend just moves the open down the ring — no
   snapshot dance needed unless the open itself is a restore, and then
   the state dir is shared anyway. *)
let open_session t pc (req : P.request) =
  let sid =
    match req.P.params.P.session with "" -> fresh_sid t | sid -> sid
  in
  let req =
    { req with P.params = { req.P.params with P.session = sid } }
  in
  let line = Json.print (P.request_to_json req) in
  let rec go last = function
    | [] ->
        Json.print (P.error_response ~id:req.P.id ~code:P.Internal last)
    | b :: rest -> (
        match rpc_backend pc b line with
        | Ok resp ->
            counted t (fun c -> c.forwarded <- c.forwarded + 1);
            note_session_response t req ~backend:b resp;
            resp
        | Error e -> go e rest)
  in
  go "no backend configured" (prefer_live t (Ring.spread t.ring sid))

(* session/list is an inventory: ask every reachable backend, merge the
   structured lines, render through the one shared renderer. *)
let list_sessions t pc (req : P.request) line =
  let t0 = Unix.gettimeofday () in
  let resps =
    List.filter_map
      (fun b -> Result.to_option (rpc_backend pc b line))
      (Ring.nodes t.ring)
  in
  if resps = [] then
    Json.print
      (P.error_response ~id:req.P.id ~code:P.Internal "no backend reachable")
  else
    match List.find_opt (fun l -> not (line_ok l)) resps with
    | Some err -> err
    | None ->
        let lines =
          List.concat_map
            (fun l ->
              match
                Option.bind (line_json l) (fun j ->
                    Option.bind (Json.member "result" j) (fun r ->
                        Json.member "sessions" r))
              with
              | Some (Json.Array entries) ->
                  List.filter_map
                    (fun e -> Result.to_option (Ops.session_line_of_json e))
                    entries
              | _ -> [])
            resps
        in
        let lines =
          List.sort
            (fun a b ->
              (* length-then-lex: the server's numeric s<n> ids in
                 numeric order, matching Ops.render_sessions *)
              match
                compare (String.length a.Ops.ses_id)
                  (String.length b.Ops.ses_id)
              with
              | 0 -> compare a.Ops.ses_id b.Ops.ses_id
              | n -> n)
            lines
        in
        let run_ms = (Unix.gettimeofday () -. t0) *. 1000. in
        Json.print
          (P.ok_response ~id:req.P.id ~op:P.Session_list
             ~timing:(P.no_engine_timing ~queue_ms:0. ~run_ms)
             [
               ("sessions",
                Json.Array (List.map Ops.session_line_to_json lines));
               ("text", Json.String (Ops.render_sessions lines));
             ])

(* gateway/migrate: snapshot handoff.  [session/save close:true] on the
   source persists the session and frees the slot (keeping the
   snapshot); a restoring [session/open] on the target picks it up.
   Both halves run as the session's writer. *)
let migrate_session t pc (req : P.request) =
  let t0 = Unix.gettimeofday () in
  let sid = req.P.params.P.session in
  if sid = "" then
    Json.print
      (P.error_response ~id:req.P.id ~code:P.Bad_request
         "gateway/migrate: missing session id")
  else
    let source = owner_of t sid in
    match Ring.lookup ~avoid:[ source ] t.ring sid with
    | None ->
        Json.print
          (P.error_response ~id:req.P.id ~code:P.Bad_request
             "gateway/migrate: no other backend to migrate to")
    | Some target -> (
        let writer = writer_of t sid in
        let save_line =
          Json.print
            (P.request_to_json
               {
                 P.id = req.P.id ^ ":save";
                 op = P.Session_save;
                 deadline_ms = None;
                 params =
                   { P.default_params with P.session = sid; close = true;
                     client = writer };
               })
        in
        match rpc_backend pc source save_line with
        | Error e ->
            Json.print (P.error_response ~id:req.P.id ~code:P.Internal e)
        | Ok sresp when not (line_ok sresp) ->
            Json.print
              (P.error_response ~id:req.P.id ~code:P.Internal
                 (Printf.sprintf "gateway/migrate: save on %s failed: %s"
                    source (line_error_message sresp)))
        | Ok _ -> (
            del_route t sid;
            let oline =
              restore_request ~id:(req.P.id ^ ":open") ~sid ~writer
            in
            match rpc_backend pc target oline with
            | Error e ->
                Json.print (P.error_response ~id:req.P.id ~code:P.Internal e)
            | Ok oresp when not (line_ok oresp) ->
                Json.print
                  (P.error_response ~id:req.P.id ~code:P.Internal
                     (Printf.sprintf
                        "gateway/migrate: restore on %s failed: %s" target
                        (line_error_message oresp)))
            | Ok _ ->
                set_route t sid target ~writer;
                counted t (fun c -> c.migrations <- c.migrations + 1);
                logf t "session %s migrated %s -> %s" sid source target;
                let run_ms = (Unix.gettimeofday () -. t0) *. 1000. in
                Json.print
                  (P.ok_response ~id:req.P.id ~op:P.Gateway_migrate
                     ~timing:(P.no_engine_timing ~queue_ms:0. ~run_ms)
                     [
                       ("session", Json.String sid);
                       ("from", Json.String source);
                       ("to", Json.String target);
                       ("text",
                        Json.String
                          (Printf.sprintf "session %s migrated: %s -> %s\n"
                             sid source target));
                     ])))

(* ------------------------------------------------------------------ *)
(* Local ops                                                           *)

let stats_response t (req : P.request) =
  Mutex.lock t.mu;
  let sessions = Hashtbl.length t.routes in
  Mutex.unlock t.mu;
  Mutex.lock t.counters_mu;
  let c = t.counters in
  let forwarded, migrations, failovers, errors =
    (c.forwarded, c.migrations, c.failovers, c.errors)
  in
  Mutex.unlock t.counters_mu;
  let backends = Ring.nodes t.ring in
  let buf = Buffer.create 256 in
  Printf.bprintf buf "gateway: %d backend(s), %d routed session(s)\n"
    (List.length backends) sessions;
  List.iter
    (fun b ->
      Printf.bprintf buf "  backend %s%s\n" b
        (if is_dead t b then " (unreachable)" else ""))
    backends;
  Printf.bprintf buf "forwarded %d, migrations %d, failovers %d, errors %d\n"
    forwarded migrations failovers errors;
  Json.print
    (P.ok_response ~id:req.P.id ~op:P.Stats
       ~timing:(P.no_engine_timing ~queue_ms:0. ~run_ms:0.)
       [
         ("gateway", Json.Bool true);
         ("backends", Json.Array (List.map (fun b -> Json.String b) backends));
         ("dead",
          Json.Array
            (List.filter_map
               (fun b -> if is_dead t b then Some (Json.String b) else None)
               backends));
         ("sessions", Json.Int sessions);
         ("forwarded", Json.Int forwarded);
         ("migrations", Json.Int migrations);
         ("failovers", Json.Int failovers);
         ("errors", Json.Int errors);
         ("text", Json.String (Buffer.contents buf));
       ])

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let answer t pc line =
  match P.parse_request line with
  | Error msg ->
      counted t (fun c -> c.errors <- c.errors + 1);
      Json.print (P.error_response ~id:"-" ~code:P.Bad_request msg)
  | Ok req -> (
      let resp =
        match req.P.op with
        | P.Ping ->
            Json.print
              (P.ok_response ~id:req.P.id ~op:P.Ping
                 ~timing:(P.no_engine_timing ~queue_ms:0. ~run_ms:0.)
                 [ ("pong", Json.Bool true) ])
        | P.Stats -> stats_response t req
        | P.Gateway_migrate -> migrate_session t pc req
        | P.Session_open -> open_session t pc req
        | P.Session_list -> list_sessions t pc req line
        | P.Session_edit | P.Session_undo | P.Session_redo | P.Session_run
        | P.Session_optimize | P.Session_attach | P.Session_detach
        | P.Session_save | P.Session_close ->
            session_op t pc req line
        | P.Explore | P.Predict | P.Advise | P.Sensitivity -> (
            match forward_stateless t pc req line with
            | Ok resp -> resp
            | Error e ->
                counted t (fun c -> c.errors <- c.errors + 1);
                Json.print (P.error_response ~id:req.P.id ~code:P.Internal e))
      in
      logf t "id=%s op=%s %s" req.P.id
        (P.op_to_string req.P.op)
        (if line_ok resp then "ok" else "error");
      resp)

let handle_line t line =
  Mutex.lock t.test_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.test_mu)
    (fun () -> answer t t.test_pc line)

(* ------------------------------------------------------------------ *)
(* Serving                                                             *)

let serve t =
  let prober =
    match t.cfg.health_interval_s with
    | Some s when s > 0. ->
        logf t "health prober every %g s" s;
        Some (Thread.create (health_loop t) s)
    | _ -> None
  in
  (match t.cfg.socket_path with
  | Some path ->
      logf t "listening on %s (%d backend(s))" path
        (List.length t.cfg.backends)
  | None ->
      logf t "reading requests from stdin (%d backend(s))"
        (List.length t.cfg.backends));
  (* each connection answers its lines in turn over its own backend
     connections, closed with it *)
  Listener.run ~signals:t.cfg.handle_signals t.listener (fun ~send ->
      let pc : pconn = Hashtbl.create 4 in
      ((fun line -> send (answer t pc line)), fun () -> close_pconn pc));
  Listener.close t.listener;
  Option.iter Thread.join prober;
  Mutex.lock t.test_mu;
  close_pconn t.test_pc;
  Mutex.unlock t.test_mu;
  logf t "stopped"
