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

(* Rendered explores, multi-cycle at perf 20000 and delay 100000, whose
   MD5 digests were recorded before the search front kept its objective
   vectors, the urgency schedule moved onto prepared arrays and the
   keep-all CSV stopped going through Printf: a mismatch means some
   rendered byte changed.  pcm_pwm k=4 enumeration keep-all is the
   explore-gateway workload's costliest key; the verbose render prints the
   best system's urgency timeline; the iterative one runs through
   [Search.finalize]. *)
let pinned_renders =
  [
    ("pcm_pwm", 4, "e", true, false, "acaa1641e52184d43ba5d55cae9e1194");
    ("ewf", 3, "b", true, false, "05e28bac7287353f10ba959e011dec7a");
    ("ar", 2, "e", true, false, "c50f661e8d49b4440e90f14cfaeeeb86");
    ("pcm_pwm", 4, "e", false, false, "cb48a217ac6123208b9286b1ea8f307c");
    ("ewf", 3, "e", false, true, "344e69dfe4e0fc1d240d9998c9c56279");
    ("diffeq", 3, "i", true, false, "cad1e530aacdf31c992a2249fbada148");
  ]

let test_pinned_render_digests () =
  List.iter
    (fun (benchmark, partitions, heuristic, keep_all, verbose, expected) ->
      let params =
        { Protocol.default_params with benchmark; partitions; heuristic;
          multicycle = true; perf = 20000.; delay = 100000.; keep_all }
      in
      let spec = Result.get_ok (Ops.spec_of_params params) in
      let config = Result.get_ok (Ops.config_of_params ~jobs:1 params) in
      let report =
        Chop.Explore.with_engine config spec Chop.Explore.Session.run
      in
      let text = Ops.render_explore spec ~keep_all ~csv:false ~verbose report in
      Alcotest.(check string)
        (Printf.sprintf "%s k=%d %s%s%s" benchmark partitions heuristic
           (if keep_all then " keep-all" else "")
           (if verbose then " verbose" else ""))
        expected
        (Digest.to_hex (Digest.string text)))
    pinned_renders

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
(* Warm-engine answers *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

(* explore-gateway's constraints: multi-cycle, perf 20000, delay 100000 *)
let relaxed benchmark partitions heuristic =
  { Protocol.default_params with benchmark; partitions; heuristic;
    multicycle = true; perf = 20000.; delay = 100000. }

let request_line ?(id = "q") op params =
  Json.print
    (Protocol.request_to_json { Protocol.id; op; deadline_ms = None; params })

let ok_line server line =
  let resp = parse_response (Server.handle_line server line) in
  if Protocol.response_ok resp <> Some true then
    Alcotest.failf "not ok: %s" (Json.print resp);
  resp

let timing_jobs resp =
  Option.get (Option.bind (field resp [ "timing"; "jobs" ]) Json.to_int_opt)

let result_bytes resp = Json.print (Option.get (field resp [ "result" ]))

(* a cache-off run: what a fresh [chop explore] process computes *)
let fresh_report (p : Protocol.params) =
  let spec = Result.get_ok (Ops.spec_of_params p) in
  let config = Result.get_ok (Ops.config_of_params ~jobs:1 p) in
  let config =
    { config with Chop.Explore.Config.cache = Chop.Explore.Config.Off }
  in
  (spec, Chop.Explore.with_engine config spec Chop.Explore.Session.run)

let fresh_render (p : Protocol.params) =
  let spec, report = fresh_report p in
  Ops.render_explore spec ~keep_all:p.Protocol.keep_all ~csv:p.Protocol.csv
    ~verbose:p.Protocol.verbose report

(* perf 4029.271 and 4029.273 differ past six significant digits; at
   4029.273 ewf k=3 has one feasible design, at 4029.271 none.  Sharing
   one engine answered the second request from the first's spec. *)
let test_engine_key_fractional () =
  let p1 = { (relaxed "ewf" 3 "e") with perf = 4029.271 } in
  let p2 = { p1 with perf = 4029.273 } in
  let key = Ops.engine_key ~op:Protocol.Explore in
  Alcotest.(check bool) "distinct engine keys" true (key p1 <> key p2);
  Alcotest.(check string) "integral constraints key as before"
    "explore|ewf|k=3|p=84|perf=20000|delay=100000|mc=true|h=e|s=levels|ka=false|np=false"
    (key (relaxed "ewf" 3 "e"));
  let server = make_server () in
  let text p =
    Option.get
      (Protocol.response_text (ok_line server (request_line Protocol.Explore p)))
  in
  Alcotest.(check string) "perf 4029.271 = fresh render" (fresh_render p1)
    (text p1);
  let second = text p2 in
  Alcotest.(check string) "perf 4029.273 = fresh render" (fresh_render p2)
    second;
  Alcotest.(check bool) "perf 4029.273 finds its design" true
    (contains second "1 feasible non-inferior")

(* A repeat gets the stored answer without running; any other request on
   the same engine (other render parameters, another op) gets its own. *)
let test_repeat_reuses_answer () =
  let server = make_server () in
  let p = { (relaxed "pcm_pwm" 3 "e") with keep_all = true } in
  let explore p = ok_line server (request_line Protocol.Explore p) in
  let first = explore p in
  let again = explore p in
  Alcotest.(check string) "the repeat's result is the first's"
    (result_bytes first) (result_bytes again);
  let expected = fresh_render p in
  Alcotest.(check (option string)) "first = cache-off render" (Some expected)
    (Protocol.response_text first);
  Alcotest.(check (option string)) "repeat = cache-off render"
    (Some expected) (Protocol.response_text again);
  Alcotest.(check bool) "the first ran the engine" true (timing_jobs first >= 1);
  Alcotest.(check int) "the repeat ran no engine" 0 (timing_jobs again);
  Alcotest.(check (option (float 0.))) "the repeat searched nothing" (Some 0.)
    (Option.bind (field again [ "timing"; "search_ms" ]) Json.to_float_opt);
  let own what p' =
    let resp = explore p' in
    Alcotest.(check bool) (what ^ " ran the engine") true (timing_jobs resp >= 1);
    Alcotest.(check (option string)) (what ^ " = its render")
      (Some (fresh_render p')) (Protocol.response_text resp);
    resp
  in
  ignore (own "verbose" { p with verbose = true });
  Alcotest.(check string) "verbose off again: the first bytes"
    (result_bytes first)
    (result_bytes (own "verbose off" p));
  ignore (own "csv" { p with keep_all = false; csv = true });
  let advice = ok_line server (request_line Protocol.Advise p) in
  let spec, report = fresh_report p in
  Alcotest.(check (option string)) "advise answers the advice"
    (Some (Ops.render_advice (Chop.Advisor.judge spec report)))
    (Protocol.response_text advice);
  let predictions =
    Chop.Explore.with_engine
      (Chop.Explore.Config.make ~jobs:1 ())
      spec Chop.Explore.Session.predictions
  in
  List.iter
    (fun top ->
      let resp =
        ok_line server (request_line Protocol.Predict { p with top })
      in
      let per_partition, stats = predictions in
      Alcotest.(check (option string))
        (Printf.sprintf "predict top %d" top)
        (Some (Ops.render_predict spec ~index:(-1) ~top per_partition stats))
        (Protocol.response_text resp))
    [ 1; 3 ];
  let stats = parse_response (Server.handle_line server {|{"op":"stats"}|}) in
  Alcotest.(check (option int)) "explore and predict engines" (Some 2)
    (Option.bind (field stats [ "result"; "engines" ]) Json.to_int_opt)

(* The memo's contract, with runs that cancel, raise or fail on demand:
   only a completed run is stored, and only its op and params repeat it. *)
let test_reuse_stores_completed_runs () =
  let req =
    { Protocol.id = "r"; op = Protocol.Explore; deadline_ms = None;
      params = relaxed "ewf" 3 "e" }
  in
  let last = ref None and runs = ref 0 in
  let answer result () =
    incr runs;
    Ok (result, (), "feasible")
  in
  let reused ?(req = req) run = Server.reuse last req run in
  (match reused (fun () -> raise Chop.Explore.Cancelled) with
  | exception Chop.Explore.Cancelled -> ()
  | _ -> Alcotest.fail "a cancelled run answered");
  (match reused (fun () -> failwith "worker exception") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "a raising run answered");
  (match reused (fun () -> Error "deadline exceeded during the run") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a failed run answered");
  let check what expected got =
    Alcotest.(check (result (triple string (option unit) string) string))
      what (Ok expected) got
  in
  check "nothing stored: the first completed run answers"
    ({|{"n":1}|}, Some (), "feasible")
    (reused (answer {|{"n":1}|}));
  check "the repeat: stored bytes, no run" ({|{"n":1}|}, None, "feasible")
    (reused (answer {|{"n":2}|}));
  Alcotest.(check int) "one run so far" 1 !runs;
  check "other params run" ({|{"n":3}|}, Some (), "feasible")
    (reused
       ~req:{ req with params = { req.Protocol.params with verbose = true } }
       (answer {|{"n":3}|}));
  let advise = { req with op = Protocol.Advise } in
  check "another op runs" ({|{"n":4}|}, Some (), "feasible")
    (reused ~req:advise (answer {|{"n":4}|}));
  (match reused (fun () -> raise Chop.Explore.Cancelled) with
  | exception Chop.Explore.Cancelled -> ()
  | _ -> Alcotest.fail "a cancelled run answered");
  check "a cancelled run keeps the last answer" ({|{"n":4}|}, None, "feasible")
    (reused ~req:advise (answer {|{"n":5}|}));
  Alcotest.(check int) "three runs" 3 !runs

(* ------------------------------------------------------------------ *)
(* Response pieces *)

(* ids and keys with quotes, backslashes, control bytes and UTF-8 *)
let awkward_string =
  let open QCheck.Gen in
  map (String.concat "")
    (list_size (0 -- 6)
       (oneof
          [
            oneofl
              [ "\""; "\\"; "\n"; "\t"; "\x00"; "\x01"; "\x1f"; "\x7f";
                "/"; "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80" ];
            string_size (0 -- 4) ~gen:printable;
            string_size (1 -- 2) ~gen:char;
          ]))

let finite = QCheck.Gen.map (fun f -> if Float.is_finite f then f else 0.) QCheck.Gen.float

let json_value =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) finite;
        map (fun s -> Json.String s) awkward_string;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (2, scalar);
               (1, map (fun vs -> Json.Array vs) (list_size (0 -- 4) (self (n / 2))));
               ( 1,
                 map
                   (fun fields -> Json.Object fields)
                   (list_size (0 -- 4) (pair awkward_string (self (n / 2)))) );
             ])

let timing_gen =
  let open QCheck.Gen in
  let* queue_ms = finite and* run_ms = finite and* predict_ms = finite
  and* search_ms = finite and* merge_ms = finite and* cache_hits = int
  and* cache_misses = int and* cache_evictions = int and* moves_tried = int
  and* moves_accepted = int and* speculative_runs = int
  and* batch_rounds = int and* spec_busy_ms = finite
  and* spec_wall_ms = finite and* jobs = int in
  return
    { Protocol.queue_ms; run_ms; predict_ms; search_ms; merge_ms; cache_hits;
      cache_misses; cache_evictions; moves_tried; moves_accepted;
      speculative_runs; batch_rounds; spec_busy_ms; spec_wall_ms; jobs }

(* the reference: the whole response as one tree *)
let response_tree ~id ~op ~(timing : Protocol.timing) result =
  let f x = Json.Float x and i x = Json.Int x in
  Json.Object
    [
      ("id", Json.String id);
      ("ok", Json.Bool true);
      ("op", Json.String (Protocol.op_to_string op));
      ("result", result);
      ( "timing",
        Json.Object
          [
            ("queue_ms", f timing.Protocol.queue_ms);
            ("run_ms", f timing.Protocol.run_ms);
            ("predict_ms", f timing.Protocol.predict_ms);
            ("search_ms", f timing.Protocol.search_ms);
            ("merge_ms", f timing.Protocol.merge_ms);
            ("cache_hits", i timing.Protocol.cache_hits);
            ("cache_misses", i timing.Protocol.cache_misses);
            ("cache_evictions", i timing.Protocol.cache_evictions);
            ("moves_tried", i timing.Protocol.moves_tried);
            ("moves_accepted", i timing.Protocol.moves_accepted);
            ("speculative_runs", i timing.Protocol.speculative_runs);
            ("batch_rounds", i timing.Protocol.batch_rounds);
            ("spec_busy_ms", f timing.Protocol.spec_busy_ms);
            ("spec_wall_ms", f timing.Protocol.spec_wall_ms);
            ("jobs", i timing.Protocol.jobs);
          ] );
    ]

let pieces_are_the_line =
  let gen =
    QCheck.Gen.(
      quad awkward_string (oneofl Protocol.all_ops) timing_gen
        (map
           (fun fields -> Json.Object fields)
           (list_size (0 -- 5) (pair awkward_string json_value))))
  in
  QCheck.Test.make ~name:"ok_pieces concatenate to the printed response"
    ~count:500
    (QCheck.make
       ~print:(fun (id, op, timing, result) ->
         Json.print (response_tree ~id ~op ~timing result))
       gen)
    (fun (id, op, timing, result) ->
      let printed = Json.print result in
      let pieces = Protocol.ok_pieces ~id ~op ~timing printed in
      List.length pieces = 3
      && List.nth pieces 1 == printed
      && String.concat "" pieces
         = Json.print (response_tree ~id ~op ~timing result))

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

(* session/list answers in id order, numerically for the s<n> ids, in
   both its structured array and its text — the order the gateway's
   merge of several backends' lists uses too *)
let test_session_list_id_order () =
  let server = make_server () in
  for _ = 1 to 12 do
    ignore
      (Server.handle_line server
         {|{"op":"session/open","benchmark":"ar","partitions":2}|})
  done;
  let listed =
    parse_response (Server.handle_line server {|{"op":"session/list"}|})
  in
  let ids =
    match field listed [ "result"; "sessions" ] with
    | Some (Json.Array entries) ->
        List.filter_map (fun e -> json_string e [ "id" ]) entries
    | _ -> Alcotest.fail "no sessions array in session/list response"
  in
  let expected = List.init 12 (fun i -> Printf.sprintf "s%d" (i + 1)) in
  Alcotest.(check (list string)) "sessions array in id order" expected ids;
  let text_ids =
    match json_string listed [ "result"; "text" ] with
    | Some text ->
        (* one "  <id>: revision ..." line per session *)
        String.split_on_char '\n' text
        |> List.filter_map (fun line ->
               if String.starts_with ~prefix:"  " line then
                 Some (String.trim (List.hd (String.split_on_char ':' line)))
               else None)
    | None -> Alcotest.fail "no text in session/list response"
  in
  Alcotest.(check (list string)) "text in the same order" expected text_ids;
  Server.stop server

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

(* A reply the peer cut off (no newline, then the close) is a transport
   failure, even when the bytes so far are well-formed JSON: [recv_line]
   reads nothing, [rpc] names the cut, and [rpc_retrying] does not try
   again, since the request it answers ran. *)
let test_client_torn_reply () =
  let cut = "connection closed in the middle of a response" in
  let ping = Json.parse_exn {|{"op":"ping"}|} in
  let connected socket_path f =
    let conn = Client.connect socket_path in
    Fun.protect ~finally:(fun () -> Client.close conn) (fun () -> f conn)
  in
  List.iter
    (fun reply ->
      with_fake_server ~reply:(Some reply) (fun socket_path ->
          connected socket_path (fun conn ->
              Client.send_line conn {|{"op":"ping"}|};
              Alcotest.(check (option string)) ("recv_line of " ^ reply)
                None (Client.recv_line conn)));
      with_fake_server ~reply:(Some reply) (fun socket_path ->
          connected socket_path (fun conn ->
              Alcotest.(check (result reject string)) ("rpc of " ^ reply)
                (Error cut) (Client.rpc conn ping)));
      with_fake_server ~reply:(Some reply) (fun socket ->
          let sleep _ = Alcotest.failf "retried after %s" reply in
          Alcotest.(check (result reject string))
            ("rpc_retrying of " ^ reply)
            (Error cut)
            (Client.rpc_retrying ~sleep ~retries:3 ~socket ping)))
    [ {|{"id":"1","ok":true,"op":"explore","result":{"text":"abc|};
      {|{"id":"1","ok":true}|} ]

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
    ((fun line -> send [ "echo " ^ line ]), fun () -> Atomic.incr closed)
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
  | Some send -> send [ "late reply for connection 1" ]
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

(* Two threads send 200 three-piece lines each, ~100 KB in the middle,
   on one connection: every line the client reads is one of the two,
   whole. *)
let test_listener_pieces_stay_whole () =
  let path = temp_path "pieces.sock" in
  let listener = Listener.create ~socket_path:(Some path) ~log:None in
  let line c =
    [ Printf.sprintf {|{"from":"%c","body":"|} c; String.make 100_000 c; {|"}|} ]
  in
  let lines = [ line 'a'; line 'b' ] in
  let senders = Atomic.make [] in
  let handler ~send =
    ( (fun _ ->
        Atomic.set senders
          (List.map
             (fun pieces ->
               Thread.create
                 (fun () ->
                   for _ = 1 to 200 do
                     send pieces
                   done)
                 ())
             lines)),
      ignore )
  in
  let th = Thread.create (fun () -> Listener.run ~signals:false listener handler) () in
  let client = Client.connect path in
  Client.send_line client "go";
  let whole = List.map (String.concat "") lines in
  let counts = Array.make 2 0 and torn = ref 0 in
  for _ = 1 to 400 do
    match Client.recv_line client with
    | None -> incr torn
    | Some l -> (
        match List.find_index (String.equal l) whole with
        | Some k -> counts.(k) <- counts.(k) + 1
        | None -> incr torn)
  done;
  Client.close client;
  List.iter Thread.join (Atomic.get senders);
  Listener.stop listener;
  Thread.join th;
  Listener.close listener;
  Alcotest.(check int) "no torn or missing line" 0 !torn;
  Alcotest.(check (array int)) "200 of each" [| 200; 200 |] counts

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

(* A quiet listener (no log channel) formats nothing: a [%a] printer in
   the message is never called.  With a log channel it is called once. *)
let test_listener_quiet_log_formats_nothing () =
  let calls = ref 0 in
  let counted () v =
    incr calls;
    string_of_int v
  in
  let quiet = Listener.create ~socket_path:None ~log:None in
  for i = 1 to 100 do
    Listener.logf quiet "id=%d op=%s value=%a run_ms=%.1f" i "explore" counted
      i 0.25
  done;
  Alcotest.(check int) "printer never called when quiet" 0 !calls;
  let path = temp_path "log.txt" in
  let oc = open_out path in
  let logged = Listener.create ~socket_path:None ~log:(Some oc) in
  Listener.logf logged "id=%d value=%a" 1 counted 42;
  close_out oc;
  let written = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check int) "printer called once when logging" 1 !calls;
  Alcotest.(check bool) "the line was written" true
    (String.ends_with ~suffix:" id=1 value=42\n" written)

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

(* A criteria edit to perf 4029.273 finds ewf k=3's one design; the
   snapshot must carry 4029.273 itself, not a six-digit 4029.27 (at which
   there is none), through a save and a restore. *)
let test_restore_keeps_fractional_criteria () =
  let dir = temp_path "state-fractional" in
  rm_rf dir;
  let server = Server.create (state_config dir) in
  Fun.protect
    ~finally:(fun () ->
      shut server;
      rm_rf dir)
  @@ fun () ->
  let p = relaxed "ewf" 3 "e" in
  let sid =
    Option.get
      (json_string
         (ok_line server (request_line Protocol.Session_open p))
         [ "result"; "session" ])
  in
  let p = { p with session = sid } in
  let op o p = ok_line server (request_line o p) in
  ignore
    (op Protocol.Session_edit { p with edits = [ "criteria 4029.273 100000" ] });
  let run () = Option.get (Protocol.response_text (op Protocol.Session_run p)) in
  let before = run () in
  Alcotest.(check bool) "the edit finds the design" true
    (contains before "1 feasible non-inferior");
  ignore (op Protocol.Session_save { p with close = true });
  ignore (op Protocol.Session_open { p with restore = true });
  Alcotest.(check string) "the restored session renders as before the save"
    before (run ())

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

(* A malformed chopspec is one stderr line and exit 2 in every
   subcommand that takes -f, never an uncaught exception (exit 125) *)
let test_malformed_spec_exits_2 () =
  let path = temp_path "garbage.chop" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "garbage line\n");
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  List.iter
    (fun cmd ->
      let code, out = run_chop [ cmd; "-f"; path ] in
      Alcotest.(check int) (Printf.sprintf "chop %s exits 2" cmd) 2 code;
      Alcotest.(check string)
        (Printf.sprintf "chop %s prints nothing on stdout" cmd)
        "" out)
    [ "explore"; "auto"; "repl"; "synth" ]

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
          Alcotest.test_case "pinned render digests" `Quick
            test_pinned_render_digests;
          Alcotest.test_case "matches the direct render" `Quick
            test_handle_line_matches_direct_render;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "fractional constraints get their own engine"
            `Quick test_engine_key_fractional;
          Alcotest.test_case "a repeat reuses only its own answer" `Quick
            test_repeat_reuses_answer;
          Alcotest.test_case "only completed runs are stored" `Quick
            test_reuse_stores_completed_runs;
          QCheck_alcotest.to_alcotest pieces_are_the_line;
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
          Alcotest.test_case "session/list in id order" `Quick
            test_session_list_id_order;
          Alcotest.test_case "restore keeps a fractional criteria edit"
            `Quick test_restore_keeps_fractional_criteria;
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
          Alcotest.test_case "a cut-off reply is a transport failure" `Quick
            test_client_torn_reply;
        ] );
      ( "socket",
        [
          Alcotest.test_case "concurrent clients byte-identical" `Quick
            test_socket_concurrent_clients;
          Alcotest.test_case "chop serve process matches the CLI" `Quick
            test_serve_process_matches_cli;
          Alcotest.test_case "malformed chopspec exits 2" `Quick
            test_malformed_spec_exits_2;
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
          Alcotest.test_case "a line's pieces stay whole across threads"
            `Quick test_listener_pieces_stay_whole;
          Alcotest.test_case "a quiet log formats nothing" `Quick
            test_listener_quiet_log_formats_nothing;
        ] );
    ]
