(* Tests for the serving layer: protocol decoding, scheduler admission
   and deadlines (the K+C+1 overload boundary), drain semantics, the
   full handle_line pipeline, and byte-identity between concurrent
   socket clients and the direct renderer. *)

module Json = Chop_util.Json
module Protocol = Chop_server.Protocol
module Scheduler = Chop_server.Scheduler
module Server = Chop_server.Server
module Client = Chop_server.Client
module Ops = Chop_server.Ops
module Listener = Chop_server.Listener

let parse_response line =
  match Json.parse line with
  | Ok v -> v
  | Error msg -> Alcotest.failf "unparseable response %S: %s" line msg

let until ?(timeout = 5.) cond =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if cond () then true
    else if Unix.gettimeofday () -. t0 > timeout then false
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_protocol_defaults () =
  match Protocol.parse_request {|{"op":"explore"}|} with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok req ->
      Alcotest.(check string) "default id" "-" req.Protocol.id;
      Alcotest.(check bool) "no deadline" true (req.Protocol.deadline_ms = None);
      let p = req.Protocol.params in
      Alcotest.(check string) "default benchmark" "ar" p.Protocol.benchmark;
      Alcotest.(check int) "default partitions" 2 p.Protocol.partitions;
      Alcotest.(check int) "default package" 84 p.Protocol.package

let test_protocol_roundtrip () =
  let req =
    {
      Protocol.id = "r7";
      op = Protocol.Sensitivity;
      deadline_ms = Some 250.;
      params =
        {
          Protocol.default_params with
          benchmark = "ewf";
          heuristic = "b";
          keep_all = true;
          parameter = "pins";
          values = [ 64.; 84. ];
        };
    }
  in
  match Protocol.request_of_json (Protocol.request_to_json req) with
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg
  | Ok req' ->
      Alcotest.(check bool) "request round-trips" true (req = req')

let test_protocol_op_names () =
  Alcotest.(check int) "every op listed" 18 (List.length Protocol.all_ops);
  List.iter
    (fun op ->
      let name = Protocol.op_to_string op in
      Alcotest.(check bool) (name ^ " round-trips") true
        (Protocol.op_of_string name = Ok op))
    Protocol.all_ops;
  Alcotest.(check bool) "unknown name rejected" true
    (Result.is_error (Protocol.op_of_string "session/frobnicate"))

let test_protocol_errors () =
  let fails s =
    match Protocol.parse_request s with
    | Ok _ -> Alcotest.failf "%S unexpectedly parsed" s
    | Error _ -> ()
  in
  fails "[1,2]";
  fails {|{"op":"no-such-op"}|};
  fails {|{"op":"explore","partitions":"two"}|};
  fails "not json at all"

(* ------------------------------------------------------------------ *)
(* Scheduler *)

(* a gate the test opens to release blocked jobs *)
type gate = { mu : Mutex.t; cv : Condition.t; mutable opened : bool }

let gate () = { mu = Mutex.create (); cv = Condition.create (); opened = false }

let gate_wait g =
  Mutex.lock g.mu;
  while not g.opened do
    Condition.wait g.cv g.mu
  done;
  Mutex.unlock g.mu

let gate_open g =
  Mutex.lock g.mu;
  g.opened <- true;
  Condition.broadcast g.cv;
  Mutex.unlock g.mu

let test_scheduler_overload_boundary () =
  let queue = 3 and concurrency = 2 in
  let sched = Scheduler.create ~queue ~concurrency in
  let g = gate () in
  let submit () =
    Scheduler.submit sched
      ~expired:(fun ~queue_seconds:_ -> ())
      ~run:(fun ~interrupt:_ ~queue_seconds:_ -> gate_wait g)
      ()
  in
  (* fill every running slot, then every queue slot *)
  for i = 1 to concurrency do
    Alcotest.(check bool)
      (Printf.sprintf "runner %d accepted" i)
      true
      (submit () = Scheduler.Accepted)
  done;
  Alcotest.(check bool) "workers picked the jobs up" true
    (until (fun () -> Scheduler.in_flight sched = concurrency));
  for i = 1 to queue do
    Alcotest.(check bool)
      (Printf.sprintf "queued %d accepted" i)
      true
      (submit () = Scheduler.Accepted)
  done;
  Alcotest.(check int) "queue full" queue (Scheduler.queued sched);
  (* request K+C+1 is the first to be rejected *)
  Alcotest.(check bool) "request K+C+1 overloaded" true
    (submit () = Scheduler.Overloaded);
  gate_open g;
  Scheduler.drain sched;
  let st = Scheduler.stats sched in
  Alcotest.(check int) "all admitted jobs completed" (queue + concurrency)
    st.Scheduler.completed;
  Alcotest.(check int) "one rejection" 1 st.Scheduler.rejected;
  Alcotest.(check int) "none failed" 0 st.Scheduler.failed;
  (* after drain, admission answers Draining *)
  Alcotest.(check bool) "post-drain submit refused" true
    (submit () = Scheduler.Draining)

let test_scheduler_deadline_expires_queued () =
  let sched = Scheduler.create ~queue:4 ~concurrency:1 in
  let g = gate () in
  let blocker =
    Scheduler.submit sched
      ~expired:(fun ~queue_seconds:_ -> ())
      ~run:(fun ~interrupt:_ ~queue_seconds:_ -> gate_wait g)
      ()
  in
  Alcotest.(check bool) "blocker admitted" true
    (blocker = Scheduler.Accepted);
  Alcotest.(check bool) "blocker running" true
    (until (fun () -> Scheduler.in_flight sched = 1));
  let expired_flag = ref false and ran_flag = ref false in
  let doomed =
    Scheduler.submit sched
      ~deadline:(Unix.gettimeofday () -. 1.)
      ~expired:(fun ~queue_seconds:_ -> expired_flag := true)
      ~run:(fun ~interrupt:_ ~queue_seconds:_ -> ran_flag := true)
      ()
  in
  Alcotest.(check bool) "doomed admitted" true (doomed = Scheduler.Accepted);
  gate_open g;
  Scheduler.drain sched;
  Alcotest.(check bool) "expired callback ran" true !expired_flag;
  Alcotest.(check bool) "run callback skipped" false !ran_flag;
  Alcotest.(check int) "counted expired" 1 (Scheduler.stats sched).Scheduler.expired

let test_scheduler_drain_completes_in_flight () =
  let sched = Scheduler.create ~queue:2 ~concurrency:1 in
  let finished = ref 0 in
  let slow () =
    Scheduler.submit sched
      ~expired:(fun ~queue_seconds:_ -> ())
      ~run:(fun ~interrupt:_ ~queue_seconds:_ ->
        Thread.delay 0.05;
        incr finished)
      ()
  in
  (* one running, one queued; drain must let both finish *)
  Alcotest.(check bool) "first admitted" true (slow () = Scheduler.Accepted);
  Alcotest.(check bool) "second admitted" true (slow () = Scheduler.Accepted);
  Scheduler.drain sched;
  Alcotest.(check int) "both completed before drain returned" 2 !finished

(* ------------------------------------------------------------------ *)
(* Server pipeline through handle_line (no sockets) *)

let make_server () =
  Server.create
    {
      Server.default_config with
      socket_path = None;
      jobs = 1;
      log = None;
      handle_signals = false;
    }

let field resp path =
  List.fold_left
    (fun v name -> Option.bind v (Json.member name))
    (Some resp) path

let test_handle_line_ping_and_stats () =
  let server = make_server () in
  let pong = parse_response (Server.handle_line server {|{"id":"p","op":"ping"}|}) in
  Alcotest.(check (option bool)) "ping ok" (Some true)
    (Protocol.response_ok pong);
  Alcotest.(check (option string)) "ping id" (Some "p")
    (Protocol.response_id pong);
  let stats = parse_response (Server.handle_line server {|{"op":"stats"}|}) in
  Alcotest.(check (option bool)) "stats ok" (Some true)
    (Protocol.response_ok stats);
  Alcotest.(check bool) "stats exposes the scheduler" true
    (field stats [ "result"; "scheduler"; "accepted" ] <> None);
  Alcotest.(check bool) "stats exposes cache counters" true
    (field stats [ "result"; "cache"; "hits" ] <> None)

let test_handle_line_bad_requests () =
  let server = make_server () in
  let code line =
    Protocol.response_error_code (parse_response (Server.handle_line server line))
  in
  Alcotest.(check (option string)) "malformed json" (Some "bad_request")
    (code "{nope");
  Alcotest.(check (option string)) "unknown op" (Some "bad_request")
    (code {|{"op":"frobnicate"}|});
  Alcotest.(check (option string)) "wrong field type" (Some "bad_request")
    (code {|{"op":"explore","partitions":"two"}|});
  Alcotest.(check (option string)) "unknown benchmark" (Some "bad_request")
    (code {|{"op":"explore","benchmark":"no-such-graph"}|})

let test_handle_line_deadline () =
  let server = make_server () in
  (* a non-positive deadline is already expired at admission: the request
     must come back as a structured deadline error, never run *)
  let resp =
    parse_response
      (Server.handle_line server
         {|{"id":"d1","op":"explore","benchmark":"ewf","deadline_ms":0}|})
  in
  Alcotest.(check (option bool)) "not ok" (Some false)
    (Protocol.response_ok resp);
  Alcotest.(check (option string)) "deadline code" (Some "deadline")
    (Protocol.response_error_code resp);
  Alcotest.(check (option string)) "id echoed" (Some "d1")
    (Protocol.response_id resp)

let explore_request ~id =
  Printf.sprintf
    {|{"id":"%s","op":"explore","benchmark":"ewf","partitions":2,"keep_all":true}|}
    id

let expected_explore_text () =
  let params =
    { Protocol.default_params with benchmark = "ewf"; keep_all = true }
  in
  let spec = Result.get_ok (Ops.spec_of_params params) in
  let config = Result.get_ok (Ops.config_of_params ~jobs:1 params) in
  let report = Chop.Explore.with_engine config spec Chop.Explore.Session.run in
  Ops.render_explore spec ~keep_all:true ~csv:false ~verbose:false report

let test_handle_line_matches_direct_render () =
  let server = make_server () in
  let text id =
    let resp = parse_response (Server.handle_line server (explore_request ~id)) in
    Alcotest.(check (option bool)) "ok" (Some true) (Protocol.response_ok resp);
    Option.get (Protocol.response_text resp)
  in
  let expected = expected_explore_text () in
  Alcotest.(check string) "server text = direct render" expected (text "x1");
  (* the repeat answers from the warm engine — and stays byte-identical *)
  Alcotest.(check string) "warm repeat identical" expected (text "x2");
  let stats = parse_response (Server.handle_line server {|{"op":"stats"}|}) in
  Alcotest.(check bool) "one warm engine serves both" true
    (Option.bind (field stats [ "result"; "engines" ]) Json.to_int_opt = Some 1)

(* ------------------------------------------------------------------ *)
(* Socket transport: concurrent clients *)

(* ------------------------------------------------------------------ *)
(* Interactive sessions through handle_line *)

let json_string resp path =
  Option.bind (field resp path) Json.to_string_opt

(* ewf2 is ewf rebuilt in a shuffled construction order.  An ewf2
   session run on the process-wide cache an ewf session has just filled
   must render exactly as a cache-off explore of its spec. *)
let test_session_twin_matches_cache_off () =
  let server = make_server () in
  let session_run benchmark =
    let opened =
      parse_response
        (Server.handle_line server
           (Printf.sprintf {|{"op":"session/open","benchmark":"%s"}|} benchmark))
    in
    let sid =
      match json_string opened [ "result"; "session" ] with
      | Some sid -> sid
      | None -> Alcotest.fail "no session id in session/open response"
    in
    let run =
      parse_response
        (Server.handle_line server
           (Printf.sprintf {|{"op":"session/run","session":"%s"}|} sid))
    in
    ignore
      (Server.handle_line server
         (Printf.sprintf {|{"op":"session/close","session":"%s"}|} sid));
    match json_string run [ "result"; "text" ] with
    | Some text -> text
    | None -> Alcotest.fail "no text in session/run response"
  in
  ignore (session_run "ewf");
  let text = session_run "ewf2" in
  let params = { Protocol.default_params with benchmark = "ewf2" } in
  let reference =
    match (Ops.spec_of_params params, Ops.config_of_params ~jobs:1 params) with
    | Ok spec, Ok config ->
        Ops.render_explore spec ~keep_all:false ~csv:false ~verbose:false
          (Chop.Explore.with_engine
             { config with Chop.Explore.Config.cache = Chop.Explore.Config.Off }
             spec Chop.Explore.Session.run)
    | Error m, _ | _, Error m -> Alcotest.fail m
  in
  Alcotest.(check string) "ewf2 session/run = cache-off explore" reference text;
  Server.stop server

let test_session_ops_pipeline () =
  let server = make_server () in
  let opened =
    parse_response
      (Server.handle_line server
         {|{"id":"o","op":"session/open","benchmark":"ewf","partitions":3}|})
  in
  Alcotest.(check (option bool)) "open ok" (Some true)
    (Protocol.response_ok opened);
  let sid =
    match json_string opened [ "result"; "session" ] with
    | Some sid -> sid
    | None -> Alcotest.fail "no session id in session/open response"
  in
  let stats = parse_response (Server.handle_line server {|{"op":"stats"}|}) in
  Alcotest.(check (option bool)) "stats counts the session"
    (Some true)
    (Option.map (fun v -> v = Json.Int 1) (field stats [ "result"; "sessions" ]));
  (* an invalid edit command is a structured bad_request, not a crash *)
  let bad =
    parse_response
      (Server.handle_line server
         (Printf.sprintf
            {|{"op":"session/edit","session":"%s","edits":["frobnicate"]}|}
            sid))
  in
  Alcotest.(check (option string)) "bad edit command" (Some "bad_request")
    (Protocol.response_error_code bad);
  (* a well-formed but invalid edit is rejected with its position *)
  let invalid =
    parse_response
      (Server.handle_line server
         (Printf.sprintf
            {|{"op":"session/edit","session":"%s","edits":["merge P9 P1"]}|}
            sid))
  in
  Alcotest.(check (option string)) "invalid edit rejected" (Some "bad_request")
    (Protocol.response_error_code invalid);
  (* the real edit reports the dirty partitions *)
  let edited =
    parse_response
      (Server.handle_line server
         (Printf.sprintf
            {|{"op":"session/edit","session":"%s","edits":["merge P3 P2"]}|}
            sid))
  in
  Alcotest.(check (option bool)) "edit ok" (Some true)
    (Protocol.response_ok edited);
  Alcotest.(check bool) "edit reports repredict set" true
    (field edited [ "result"; "repredict" ]
    = Some (Json.Array [ Json.String "P2" ]));
  (* session/run is byte-identical to a cold exploration of the edited
     spec under the open-time parameters *)
  let run =
    parse_response
      (Server.handle_line server
         (Printf.sprintf {|{"op":"session/run","session":"%s"}|} sid))
  in
  Alcotest.(check (option bool)) "run ok" (Some true) (Protocol.response_ok run);
  let expected =
    let params =
      { Protocol.default_params with benchmark = "ewf"; partitions = 3 }
    in
    let spec0 = Result.get_ok (Ops.spec_of_params params) in
    let spec =
      match
        Chop.Spec.update spec0
          [ Chop.Spec.Merge_parts { src = "P3"; dst = "P2" } ]
      with
      | Ok (s, _) -> s
      | Error e -> Alcotest.failf "%a" Chop.Spec.pp_update_error e
    in
    let config = Result.get_ok (Ops.config_of_params ~jobs:1 params) in
    let report = Chop.Explore.with_engine config spec Chop.Explore.Session.run in
    Ops.render_explore spec ~keep_all:false ~csv:false ~verbose:false report
  in
  Alcotest.(check (option string)) "run text byte-identical" (Some expected)
    (Protocol.response_text run);
  (* close frees the session; later ops on the id are structured errors *)
  let closed =
    parse_response
      (Server.handle_line server
         (Printf.sprintf {|{"op":"session/close","session":"%s"}|} sid))
  in
  Alcotest.(check (option bool)) "close ok" (Some true)
    (Protocol.response_ok closed);
  let after =
    parse_response
      (Server.handle_line server
         (Printf.sprintf {|{"op":"session/run","session":"%s"}|} sid))
  in
  Alcotest.(check (option string)) "run after close" (Some "bad_request")
    (Protocol.response_error_code after);
  let stats = parse_response (Server.handle_line server {|{"op":"stats"}|}) in
  Alcotest.(check (option bool)) "stats back to zero sessions"
    (Some true)
    (Option.map (fun v -> v = Json.Int 0) (field stats [ "result"; "sessions" ]))

let test_session_lru_eviction () =
  let server =
    Server.create
      {
        Server.default_config with
        socket_path = None;
        jobs = 1;
        log = None;
        handle_signals = false;
        max_sessions = 2;
      }
  in
  let open_one () =
    let resp =
      parse_response
        (Server.handle_line server
           {|{"op":"session/open","benchmark":"ewf","partitions":2}|})
    in
    Option.get (json_string resp [ "result"; "session" ])
  in
  let s1 = open_one () in
  let s2 = open_one () in
  let s3 = open_one () in
  (* the cap is 2: opening s3 evicted the least-recently-used (s1) *)
  let code sid =
    Protocol.response_error_code
      (parse_response
         (Server.handle_line server
            (Printf.sprintf {|{"op":"session/run","session":"%s"}|} sid)))
  in
  Alcotest.(check (option string)) "oldest evicted" (Some "bad_request") (code s1);
  Alcotest.(check (option string)) "newer survives" None (code s2);
  Alcotest.(check (option string)) "newest survives" None (code s3)

(* ------------------------------------------------------------------ *)
(* Client transport failures *)

(* a one-shot fake server speaking the given bytes (or closing straight
   away), for driving the client's transport-failure paths *)
let with_fake_server ~reply f =
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "chop-fake-%d-%d.sock" (Unix.getpid ()) (Hashtbl.hash reply))
  in
  if Sys.file_exists socket_path then Sys.remove socket_path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket_path);
  Unix.listen fd 1;
  let server =
    Thread.create
      (fun () ->
        let cfd, _ = Unix.accept fd in
        let ic = Unix.in_channel_of_descr cfd in
        (try ignore (input_line ic) with End_of_file -> ());
        (match reply with
        | Some bytes ->
            let oc = Unix.out_channel_of_descr cfd in
            output_string oc bytes;
            flush oc
        | None -> ());
        try Unix.close cfd with Unix.Unix_error _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join server;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      try Sys.remove socket_path with Sys_error _ -> ())
    (fun () -> f socket_path)

let test_client_garbage_bytes () =
  with_fake_server ~reply:(Some "this is not json\n") (fun socket_path ->
      let conn = Client.connect socket_path in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          match Client.rpc conn (Json.parse_exn {|{"op":"ping"}|}) with
          | Ok _ -> Alcotest.fail "garbage bytes accepted as a response"
          | Error msg ->
              Alcotest.(check bool) "structured malformed-response error" true
                (String.length msg > 0
                && String.starts_with ~prefix:"malformed response" msg)))

let test_client_closed_before_response () =
  with_fake_server ~reply:None (fun socket_path ->
      let conn = Client.connect socket_path in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          match Client.rpc conn (Json.parse_exn {|{"op":"ping"}|}) with
          | Ok _ -> Alcotest.fail "no response yet rpc returned Ok"
          | Error msg ->
              Alcotest.(check string) "structured close error"
                "connection closed before a response arrived" msg))

let test_socket_concurrent_clients () =
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "chop-test-%d.sock" (Unix.getpid ()))
  in
  let server =
    Server.create
      {
        Server.default_config with
        socket_path = Some socket_path;
        concurrency = 2;
        queue = 8;
        jobs = 1;
        log = None;
        handle_signals = false;
      }
  in
  let server_thread = Thread.create Server.serve server in
  let clients = 4 in
  let results = Array.make clients (Error "never ran") in
  let worker i () =
    results.(i) <-
      (let conn = Client.connect socket_path in
       Fun.protect
         ~finally:(fun () -> Client.close conn)
         (fun () ->
           let id = Printf.sprintf "c%d" i in
           match
             Client.rpc conn
               (Json.parse_exn (explore_request ~id))
           with
           | Error msg -> Error msg
           | Ok resp when Protocol.response_ok resp <> Some true ->
               Error (Json.print resp)
           | Ok resp ->
               if Protocol.response_id resp <> Some id then
                 Error "response id mismatch"
               else Ok (Option.get (Protocol.response_text resp))))
  in
  let threads = List.init clients (fun i -> Thread.create (worker i) ()) in
  List.iter Thread.join threads;
  Server.stop server;
  Thread.join server_thread;
  let expected = expected_explore_text () in
  Array.iteri
    (fun i r ->
      match r with
      | Error msg -> Alcotest.failf "client %d failed: %s" i msg
      | Ok text ->
          Alcotest.(check string)
            (Printf.sprintf "client %d byte-identical" i)
            expected text)
    results;
  Alcotest.(check bool) "socket removed on shutdown" false
    (Sys.file_exists socket_path)

(* ------------------------------------------------------------------ *)
(* Listener *)

let temp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "chop-%s-%d" name (Unix.getpid ()))

(* A response finishing after its client hung up must be dropped: the
   next client is handed the same descriptor number and would otherwise
   read it. *)
let test_listener_late_send_dropped () =
  let path = temp_path "late.sock" in
  let listener = Listener.create ~socket_path:(Some path) ~log:None in
  let kept = Atomic.make None and closed = Atomic.make 0 in
  let handler ~send =
    ignore (Atomic.compare_and_set kept None (Some send));
    ((fun line -> send ("echo " ^ line)), fun () -> Atomic.incr closed)
  in
  let th = Thread.create (fun () -> Listener.run ~signals:false listener handler) () in
  let exchange conn line =
    Client.send_line conn line;
    Alcotest.(check (option string)) ("reply to " ^ line)
      (Some ("echo " ^ line)) (Client.recv_line conn)
  in
  let c1 = Client.connect path in
  exchange c1 "one";
  Client.close c1;
  Alcotest.(check bool) "connection 1's close hook ran" true
    (until (fun () -> Atomic.get closed = 1));
  let c2 = Client.connect path in
  exchange c2 "two";
  (match Atomic.get kept with
  | Some send -> send "late reply for connection 1"
  | None -> Alcotest.fail "connection 1's send was never kept");
  exchange c2 "three";
  Client.close c2;
  Listener.stop listener;
  Thread.join th;
  Listener.close listener;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists path)

(* [close] must end a connection whose client stays connected and idle:
   its reader, blocked in [read], wakes and runs the close hook (in the
   gateway that hook closes the connection's backend connections). *)
let test_listener_close_wakes_idle_reader () =
  let path = temp_path "idle.sock" in
  let listener = Listener.create ~socket_path:(Some path) ~log:None in
  let opened = Atomic.make false and closed = Atomic.make false in
  let handler ~send:_ =
    Atomic.set opened true;
    (ignore, fun () -> Atomic.set closed true)
  in
  let th = Thread.create (fun () -> Listener.run ~signals:false listener handler) () in
  let client = Client.connect path in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  Alcotest.(check bool) "connection accepted" true
    (until (fun () -> Atomic.get opened));
  Listener.stop listener;
  Thread.join th;
  Alcotest.(check bool) "idle connection still open after run returns" false
    (Atomic.get closed);
  Listener.close listener;
  Alcotest.(check bool) "close hook ran within 1 s, client still connected"
    true
    (until ~timeout:1. (fun () -> Atomic.get closed))

let test_listener_socket_path () =
  let path = temp_path "notes.txt" in
  Out_channel.with_open_text path (fun oc -> output_string oc "keep me\n");
  (match Server.create { Server.default_config with socket_path = Some path } with
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | _ -> Alcotest.fail "serve bound over a regular file");
  Alcotest.(check string) "the file survives" "keep me\n"
    (In_channel.with_open_text path In_channel.input_all);
  Sys.remove path;
  (* a socket left behind by a process that died without unlinking it *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.close fd;
  let listener = Listener.create ~socket_path:(Some path) ~log:None in
  Listener.close listener;
  Alcotest.(check bool) "stale socket replaced, then removed" false
    (Sys.file_exists path)

let test_listener_timestamp () =
  Alcotest.(check string) "whole milliseconds, truncated"
    "2023-11-14T22:13:59.999Z"
    (Listener.timestamp 1700000039.9996);
  Alcotest.(check string) "zero-padded" "2023-11-14T22:13:20.005Z"
    (Listener.timestamp 1700000000.005)

(* ------------------------------------------------------------------ *)
(* State dir: durable sessions *)

let rm_rf dir =
  let rec go path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> go (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then go dir

let state_config dir =
  {
    Server.default_config with
    socket_path = None;
    concurrency = 1;
    jobs = 1;
    log = None;
    handle_signals = false;
    state_dir = Some dir;
  }

(* a stdio server stopped before it serves drains and tears down at once *)
let shut server =
  Server.stop server;
  Server.serve server

let test_state_dir_regular_file_refused () =
  let path = temp_path "state-file" in
  Out_channel.with_open_text path (fun oc -> output_string oc "keep me\n");
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (match Server.create (state_config path) with
  | exception Unix.Unix_error (Unix.ENOTDIR, _, p) ->
      Alcotest.(check string) "the error names the path" path p
  | server ->
      shut server;
      Alcotest.fail "a regular file accepted as the state dir");
  Alcotest.(check string) "the file survives" "keep me\n"
    (In_channel.with_open_text path In_channel.input_all)

(* Backends started together on one fresh shared state dir (the gateway
   setup) all come up: the one that loses the race to create the
   directory finds it there.  Two domains meet at each of many fresh
   directories and create a server on it at the same moment. *)
let test_state_dir_concurrent_create () =
  let dirs =
    List.init 100 (fun i -> temp_path (Printf.sprintf "state-race-%d" i))
  in
  List.iter rm_rf dirs;
  let arrived = Atomic.make 0 in
  let backend () =
    List.concat
      (List.mapi
         (fun i dir ->
           Atomic.incr arrived;
           while Atomic.get arrived < 2 * (i + 1) do
             Domain.cpu_relax ()
           done;
           match shut (Server.create (state_config dir)) with
           | () -> []
           | exception e -> [ dir ^ ": " ^ Printexc.to_string e ])
         dirs)
  in
  let failures =
    List.init 2 (fun _ -> Domain.spawn backend) |> List.concat_map Domain.join
  in
  List.iter rm_rf dirs;
  Alcotest.(check (list string)) "every server came up" [] failures

(* A session saved with close and reopened with restore comes back from
   its snapshot: its run misses the prediction cache nowhere and renders
   as before the save.  The cache, emptied as a fresh backend's, first
   takes an ewf session, the same structure under another numbering,
   which the ewf2 session must not borrow from. *)
let test_session_restore_from_state_dir () =
  let dir = temp_path "state-restore" in
  rm_rf dir;
  Chop.Pred_cache.clear Chop.Pred_cache.shared;
  let server = Server.create (state_config dir) in
  Fun.protect
    ~finally:(fun () ->
      shut server;
      rm_rf dir)
  @@ fun () ->
  let request what line =
    let resp = parse_response (Server.handle_line server line) in
    if Protocol.response_ok resp <> Some true then
      Alcotest.failf "%s failed: %s" what (Json.print resp);
    resp
  in
  let session_op ?(extra = "") op benchmark sid =
    request (op ^ " " ^ benchmark)
      (Printf.sprintf
         {|{"op":"session/%s","benchmark":"%s","partitions":3,"session":"%s"%s}|}
         op benchmark sid extra)
  in
  let run benchmark sid =
    let resp = session_op "run" benchmark sid in
    match
      ( Option.bind (field resp [ "timing"; "cache_misses" ]) Json.to_int_opt,
        json_string resp [ "result"; "text" ] )
    with
    | Some misses, Some text -> (misses, text)
    | _ -> Alcotest.failf "incomplete run response: %s" (Json.print resp)
  in
  let open_edited benchmark =
    let sid =
      match json_string (session_op "open" benchmark "") [ "result"; "session" ] with
      | Some sid -> sid
      | None -> Alcotest.fail "no session id in session/open response"
    in
    ignore (session_op ~extra:{|,"edits":["merge P3 P2"]|} "edit" benchmark sid);
    sid
  in
  let warm = open_edited "ewf" in
  let cold_misses, _ = run "ewf" warm in
  Alcotest.(check bool) "the first construction predicts cold" true
    (cold_misses >= 1);
  ignore (session_op "close" "ewf" warm);
  let sid = open_edited "ewf2" in
  let _, before = run "ewf2" sid in
  ignore (session_op ~extra:{|,"close":true|} "save" "ewf2" sid);
  ignore (session_op ~extra:{|,"restore":true|} "open" "ewf2" sid);
  let misses, after = run "ewf2" sid in
  Alcotest.(check int) "the restored run misses nothing" 0 misses;
  Alcotest.(check string) "the restored run renders as before the save"
    before after

(* ------------------------------------------------------------------ *)
(* The chop binary: serve on a socket, driven by chop request *)

let chop = "../bin/chop_cli.exe"

(* [chop args]: its exit code and everything it printed on stdout *)
let run_chop args =
  let ic = Unix.open_process_args_in chop (Array.of_list (chop :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED code -> (code, out)
  | _ -> Alcotest.failf "chop %s died on a signal" (String.concat " " args)

let test_serve_process_matches_cli () =
  let sock = temp_path "serve.sock" in
  let pid =
    Unix.create_process chop
      [| chop; "serve"; "--socket"; sock; "-c"; "2"; "-q"; "8"; "--jobs";
         "2"; "--quiet" |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let reaped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end)
  @@ fun () ->
  Alcotest.(check bool) "chop serve is listening" true
    (until ~timeout:10. (fun () ->
         match Client.connect sock with
         | c ->
             Client.close c;
             true
         | exception Unix.Unix_error _ -> false));
  let request what args =
    let code, out = run_chop ("request" :: "--socket" :: sock :: args) in
    Alcotest.(check int) (what ^ " answers ok") 0 code;
    out
  in
  ignore (request "ping" [ "--op"; "ping" ]);
  let served =
    request "explore" [ "-g"; "ewf"; "-k"; "2"; "--keep-all" ]
  in
  let code, cli = run_chop [ "explore"; "-g"; "ewf"; "-k"; "2"; "--keep-all" ] in
  Alcotest.(check int) "chop explore exits 0" 0 code;
  Alcotest.(check string) "chop request prints what chop explore prints" cli
    served;
  ignore (request "advise" [ "-g"; "ar"; "--op"; "advise" ]);
  let stats =
    parse_response (String.trim (request "stats" [ "--op"; "stats"; "--json" ]))
  in
  Alcotest.(check (option bool)) "stats JSON says ok" (Some true)
    (Protocol.response_ok stats);
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  reaped := true;
  Alcotest.(check bool) "exits 0 after SIGTERM" true (status = Unix.WEXITED 0);
  Alcotest.(check bool) "socket removed" false (Sys.file_exists sock)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "chop_server"
    [
      ( "protocol",
        [
          Alcotest.test_case "defaults" `Quick test_protocol_defaults;
          Alcotest.test_case "round-trip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "every op name round-trips" `Quick
            test_protocol_op_names;
          Alcotest.test_case "errors" `Quick test_protocol_errors;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "overload boundary at K+C+1" `Quick
            test_scheduler_overload_boundary;
          Alcotest.test_case "deadline expires while queued" `Quick
            test_scheduler_deadline_expires_queued;
          Alcotest.test_case "drain completes in-flight work" `Quick
            test_scheduler_drain_completes_in_flight;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "ping and stats" `Quick
            test_handle_line_ping_and_stats;
          Alcotest.test_case "bad requests" `Quick
            test_handle_line_bad_requests;
          Alcotest.test_case "expired deadline is structured" `Quick
            test_handle_line_deadline;
          Alcotest.test_case "matches the direct render" `Quick
            test_handle_line_matches_direct_render;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "open/edit/run/close pipeline" `Quick
            test_session_ops_pipeline;
          Alcotest.test_case "LRU eviction past the cap" `Quick
            test_session_lru_eviction;
          Alcotest.test_case "renumbered twin matches cache-off" `Quick
            test_session_twin_matches_cache_off;
          Alcotest.test_case "restore from the state dir misses nothing"
            `Quick test_session_restore_from_state_dir;
        ] );
      ( "state-dir",
        [
          Alcotest.test_case "a regular file is refused" `Quick
            test_state_dir_regular_file_refused;
          Alcotest.test_case "concurrent creation on a fresh dir" `Quick
            test_state_dir_concurrent_create;
        ] );
      ( "client",
        [
          Alcotest.test_case "garbage bytes are a structured error" `Quick
            test_client_garbage_bytes;
          Alcotest.test_case "close before response is structured" `Quick
            test_client_closed_before_response;
        ] );
      ( "socket",
        [
          Alcotest.test_case "concurrent clients byte-identical" `Quick
            test_socket_concurrent_clients;
          Alcotest.test_case "chop serve process matches the CLI" `Quick
            test_serve_process_matches_cli;
        ] );
      ( "listener",
        [
          Alcotest.test_case "late send never reaches the next client" `Quick
            test_listener_late_send_dropped;
          Alcotest.test_case "close wakes an idle connection's reader" `Quick
            test_listener_close_wakes_idle_reader;
          Alcotest.test_case "only a stale socket is replaced" `Quick
            test_listener_socket_path;
          Alcotest.test_case "log timestamp" `Quick test_listener_timestamp;
        ] );
    ]
