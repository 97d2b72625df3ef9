(* Tests for the cluster layer: the consistent-hash ring, the client's
   deterministic retry schedule, the session-table eviction race
   regression, and the gateway itself — byte-identity with a
   single-process serve across stateless forwarding, sticky sessions,
   migration and snapshot failover. *)

module Json = Chop_util.Json
module Protocol = Chop_server.Protocol
module Server = Chop_server.Server
module Client = Chop_server.Client
module Ops = Chop_server.Ops
module Session_table = Chop_server.Session_table
module Ring = Chop_gateway.Ring
module Gateway = Chop_gateway.Gateway

let parse_response line =
  match Json.parse line with
  | Ok v -> v
  | Error msg -> Alcotest.failf "unparseable response %S: %s" line msg

let field resp path =
  List.fold_left
    (fun v name -> Option.bind v (Json.member name))
    (Some resp) path

let text_of line =
  let resp = parse_response line in
  match Protocol.response_text resp with
  | Some t -> t
  | None -> Alcotest.failf "response has no result.text: %s" line

let ok_of line = Protocol.response_ok (parse_response line) = Some true

(* ------------------------------------------------------------------ *)
(* Ring *)

let test_ring_deterministic () =
  let nodes = [ "alpha"; "bravo"; "charlie" ] in
  let r1 = Ring.create nodes and r2 = Ring.create nodes in
  for i = 0 to 199 do
    let key = Printf.sprintf "key-%d" i in
    Alcotest.(check (option string))
      (Printf.sprintf "lookup %s agrees across instances" key)
      (Ring.lookup r1 key) (Ring.lookup r2 key);
    Alcotest.(check (option string)) "lookup = head of spread"
      (Ring.lookup r1 key)
      (List.nth_opt (Ring.spread r1 key) 0)
  done

let test_ring_spread_and_avoid () =
  let nodes = [ "alpha"; "bravo"; "charlie" ] in
  let r = Ring.create nodes in
  let spread = Ring.spread r "some-session" in
  Alcotest.(check (list string)) "spread is a permutation of the nodes"
    (List.sort compare nodes)
    (List.sort compare spread);
  (* avoiding the preferred node yields the next in preference order *)
  let first = List.nth spread 0 and second = List.nth spread 1 in
  Alcotest.(check (option string)) "avoid skips to the fallback"
    (Some second)
    (Ring.lookup ~avoid:[ first ] r "some-session");
  Alcotest.(check (option string)) "all avoided" None
    (Ring.lookup ~avoid:nodes r "some-session")

let test_ring_balance () =
  let nodes = [ "alpha"; "bravo" ] in
  let r = Ring.create nodes in
  let owned = Hashtbl.create 4 in
  for i = 0 to 199 do
    match Ring.lookup r (Printf.sprintf "engine-key-%d" i) with
    | Some n -> Hashtbl.replace owned n ()
    | None -> Alcotest.fail "lookup on a non-empty ring returned None"
  done;
  (* 200 keys over 64 vnodes/node: both backends must own some *)
  Alcotest.(check int) "both nodes own keys" 2 (Hashtbl.length owned)

let test_ring_validation () =
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty" true (invalid (fun () -> Ring.create []));
  Alcotest.(check bool) "duplicate" true
    (invalid (fun () -> Ring.create [ "a"; "a" ]));
  Alcotest.(check bool) "vnodes" true
    (invalid (fun () -> Ring.create ~vnodes:0 [ "a" ]))

(* ------------------------------------------------------------------ *)
(* Retry: deterministic backoff, fake clock *)

let test_backoff_deterministic () =
  let a = Client.backoff_delays ~seed:7 ~attempts:5 in
  let b = Client.backoff_delays ~seed:7 ~attempts:5 in
  Alcotest.(check (list (float 0.))) "same seed, same schedule" a b;
  Alcotest.(check bool) "different seed, different jitter" true
    (a <> Client.backoff_delays ~seed:8 ~attempts:5);
  Alcotest.(check int) "one delay per attempt" 5 (List.length a);
  List.iteri
    (fun i d ->
      let base = Float.min (0.05 *. (2. ** float_of_int i)) 2.0 in
      Alcotest.(check bool)
        (Printf.sprintf "delay %d within [base/2, base)" i)
        true
        (d >= base /. 2. && d < base))
    (Client.backoff_delays ~seed:3 ~attempts:10)

(* a sequential fake server: one reply per accepted connection (None =
   close without answering), so each rpc_retrying attempt is observable *)
let with_replying_server ~replies f =
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "chop-gw-fake-%d-%d.sock" (Unix.getpid ())
         (Hashtbl.hash replies))
  in
  if Sys.file_exists socket_path then Sys.remove socket_path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket_path);
  Unix.listen fd 8;
  let server =
    Thread.create
      (fun () ->
        List.iter
          (fun reply ->
            let cfd, _ = Unix.accept fd in
            let ic = Unix.in_channel_of_descr cfd in
            (try ignore (input_line ic) with End_of_file -> ());
            (match reply with
            | Some line ->
                let oc = Unix.out_channel_of_descr cfd in
                output_string oc (line ^ "\n");
                flush oc
            | None -> ());
            try Unix.close cfd with Unix.Unix_error _ -> ())
          replies)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join server;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      try Sys.remove socket_path with Sys_error _ -> ())
    (fun () -> f socket_path)

let overloaded_line =
  {|{"id":"r","ok":false,"error":{"code":"overloaded","message":"busy"}}|}

let ok_line = {|{"id":"r","ok":true,"op":"ping","result":{"pong":true}}|}

let ping = Json.parse_exn {|{"id":"r","op":"ping"}|}

let test_retry_overloaded_then_ok () =
  (* two overloaded rejections, then success: the client must sleep the
     first two scheduled delays and return the final Ok *)
  with_replying_server
    ~replies:[ Some overloaded_line; Some overloaded_line; Some ok_line ]
    (fun socket ->
      let slept = ref [] in
      let sleep d = slept := d :: !slept in
      match Client.rpc_retrying ~sleep ~retries:3 ~seed:11 ~socket ping with
      | Error msg -> Alcotest.failf "retrying rpc failed: %s" msg
      | Ok resp ->
          Alcotest.(check (option bool)) "final response ok" (Some true)
            (Protocol.response_ok resp);
          let expected =
            match Client.backoff_delays ~seed:11 ~attempts:3 with
            | d1 :: d2 :: _ -> [ d1; d2 ]
            | _ -> Alcotest.fail "schedule too short"
          in
          Alcotest.(check (list (float 0.))) "slept the scheduled delays"
            expected (List.rev !slept))

let test_retry_budget_exhausted_keeps_outcome () =
  (* every attempt answers overloaded: the last outcome is returned
     as-is (an Ok response carrying the overloaded error), so the CLI's
     exit-code mapping is unchanged by retrying *)
  with_replying_server
    ~replies:[ Some overloaded_line; Some overloaded_line; Some overloaded_line ]
    (fun socket ->
      let slept = ref [] in
      let sleep d = slept := d :: !slept in
      match Client.rpc_retrying ~sleep ~retries:2 ~seed:5 ~socket ping with
      | Error msg -> Alcotest.failf "expected the overloaded response: %s" msg
      | Ok resp ->
          Alcotest.(check (option string)) "still overloaded"
            (Some "overloaded")
            (Protocol.response_error_code resp);
          Alcotest.(check (list (float 0.))) "slept the whole schedule"
            (Client.backoff_delays ~seed:5 ~attempts:2)
            (List.rev !slept))

let test_retry_connect_refused () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ()) "chop-gw-nobody.sock"
  in
  if Sys.file_exists socket then Sys.remove socket;
  let slept = ref [] in
  let sleep d = slept := d :: !slept in
  (match Client.rpc_retrying ~sleep ~retries:3 ~seed:2 ~socket ping with
  | Ok _ -> Alcotest.fail "nobody listening yet rpc returned Ok"
  | Error msg ->
      Alcotest.(check bool) "structured connect error" true
        (String.starts_with ~prefix:"cannot connect to" msg));
  Alcotest.(check (list (float 0.))) "retried through the whole schedule"
    (Client.backoff_delays ~seed:2 ~attempts:3)
    (List.rev !slept)

let test_retry_zero_is_one_shot () =
  with_replying_server ~replies:[ Some overloaded_line ] (fun socket ->
      let slept = ref [] in
      let sleep d = slept := d :: !slept in
      (match Client.rpc_retrying ~sleep ~socket ping with
      | Ok resp ->
          Alcotest.(check (option string)) "overloaded returned directly"
            (Some "overloaded")
            (Protocol.response_error_code resp)
      | Error msg -> Alcotest.failf "one-shot rpc failed: %s" msg);
      Alcotest.(check (list (float 0.))) "never slept" [] !slept)

(* ------------------------------------------------------------------ *)
(* Session_table: the drain/eviction race regression *)

let make_session () =
  let spec = Result.get_ok (Ops.spec_of_params Protocol.default_params) in
  Chop.Explore.Session.create (Chop.Explore.Config.make ~jobs:1 ()) spec

let make_slot session =
  {
    Session_table.session;
    smu = Mutex.create ();
    last_used = Unix.gettimeofday ();
    open_params = Protocol.default_params;
    writer = "";
    observers = [];
    edits = 0;
  }

let test_prune_never_evicts_busy_session () =
  let session = make_session () in
  Fun.protect
    ~finally:(fun () -> Chop.Explore.Session.close session)
    (fun () ->
      let tbl = Session_table.create ~ttl_s:0.05 ~max_sessions:8 in
      let slot = make_slot session in
      (match Session_table.add tbl "s1" slot with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let evicted = ref [] in
      let on_evict ~reason sid _slot = evicted := (reason, sid) :: !evicted in
      let now = Unix.gettimeofday () in
      (* an edit is in flight (session mutex held) while the slot looks
         long expired — the sweep must take the mutex first and leave the
         busy session alone, never snapshotting it mid-edit *)
      slot.Session_table.last_used <- now -. 10.;
      Mutex.lock slot.Session_table.smu;
      Session_table.prune tbl ~now ~room_for:0 ~on_evict;
      Alcotest.(check bool) "busy session survives the sweep" true
        (Session_table.find tbl "s1" <> None);
      Alcotest.(check int) "nothing evicted" 0 (List.length !evicted);
      (* the edit completes: last_used refreshed under the mutex; a sweep
         arriving with the stale pre-edit view must re-judge expiry after
         acquiring the mutex and keep the session *)
      slot.Session_table.last_used <- Unix.gettimeofday ();
      Mutex.unlock slot.Session_table.smu;
      Session_table.prune tbl ~now:(Unix.gettimeofday ()) ~room_for:0 ~on_evict;
      Alcotest.(check bool) "freshly-edited session survives" true
        (Session_table.find tbl "s1" <> None);
      (* genuinely idle past the TTL: evicted, with the mutex held *)
      slot.Session_table.last_used <- Unix.gettimeofday () -. 10.;
      Session_table.prune tbl ~now:(Unix.gettimeofday ()) ~room_for:0 ~on_evict;
      Alcotest.(check (list (pair string string))) "ttl eviction"
        [ ("ttl", "s1") ] !evicted;
      Alcotest.(check bool) "slot removed" true
        (Session_table.find tbl "s1" = None))

let test_prune_never_evicts_observed_session () =
  let session = make_session () in
  Fun.protect
    ~finally:(fun () -> Chop.Explore.Session.close session)
    (fun () ->
      let tbl = Session_table.create ~ttl_s:0.05 ~max_sessions:1 in
      let slot = make_slot session in
      slot.Session_table.observers <- [ "bob" ];
      slot.Session_table.last_used <- Unix.gettimeofday () -. 10.;
      (match Session_table.add tbl "s1" slot with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let evicted = ref 0 in
      (* expired AND over capacity, yet observed: both passes skip it *)
      Session_table.prune tbl ~now:(Unix.gettimeofday ()) ~room_for:1
        ~on_evict:(fun ~reason:_ _ _ -> incr evicted);
      Alcotest.(check bool) "observed session survives" true
        (Session_table.find tbl "s1" <> None);
      Alcotest.(check int) "no eviction" 0 !evicted;
      (* the last observer detaches: the next sweep may take it *)
      slot.Session_table.observers <- [];
      Session_table.prune tbl ~now:(Unix.gettimeofday ()) ~room_for:1
        ~on_evict:(fun ~reason:_ _ _ -> incr evicted);
      Alcotest.(check int) "evicted once unobserved" 1 !evicted)

(* ------------------------------------------------------------------ *)
(* The gateway against real socket backends *)

let rm_rf dir =
  let rec go path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> go (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then go dir

(* N backend serve processes (in-process, socket transport) sharing one
   state dir, plus a gateway routing across them via handle_line. *)
let with_cluster ?health_interval_s n f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "chop-gw-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  let socks =
    List.init n (fun i -> Filename.concat dir (Printf.sprintf "b%d.sock" i))
  in
  let servers =
    List.map
      (fun s ->
        Server.create
          {
            Server.default_config with
            socket_path = Some s;
            jobs = 1;
            log = None;
            handle_signals = false;
            state_dir = Some (Filename.concat dir "state");
          })
      socks
  in
  let threads = List.map (fun sv -> Thread.create Server.serve sv) servers in
  let gw =
    Gateway.create
      {
        Gateway.socket_path = None;
        backends = socks;
        vnodes = 64;
        log = None;
        handle_signals = false;
        health_interval_s;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Server.stop servers;
      List.iter Thread.join threads;
      rm_rf dir)
    (fun () -> f ~gw ~socks ~servers ~threads)

(* the single-process reference every gateway answer must match *)
let make_reference () =
  Server.create
    {
      Server.default_config with
      socket_path = None;
      jobs = 1;
      log = None;
      handle_signals = false;
    }

let test_gateway_stateless_parity () =
  with_cluster 2 (fun ~gw ~socks:_ ~servers:_ ~threads:_ ->
      let reference = make_reference () in
      let check_parity name line =
        let got = Gateway.handle_line gw line in
        let want = Server.handle_line reference line in
        Alcotest.(check bool) (name ^ " ok") true (ok_of got);
        Alcotest.(check string)
          (name ^ " text byte-identical to single-process serve")
          (text_of want) (text_of got);
        List.iter
          (fun key ->
            let f resp = field (parse_response resp) [ "result"; key ] in
            Alcotest.(check bool)
              (Printf.sprintf "%s result.%s identical" name key)
              true
              (f got = f want))
          [ "feasible"; "feasible_count"; "trials" ]
      in
      check_parity "explore"
        {|{"id":"e","op":"explore","benchmark":"ar","partitions":2,"keep_all":true}|};
      check_parity "enumeration"
        {|{"id":"f1","op":"explore","benchmark":"ar","partitions":2,"heuristic":"e"}|};
      check_parity "branch-bound"
        {|{"id":"f2","op":"explore","benchmark":"ar","partitions":2,"heuristic":"b"}|};
      check_parity "enumeration keep-all"
        {|{"id":"f3","op":"explore","benchmark":"ar","partitions":2,"heuristic":"e","keep_all":true}|};
      check_parity "predict"
        {|{"id":"p","op":"predict","benchmark":"ar","partitions":2,"top":2}|};
      check_parity "advise"
        {|{"id":"a","op":"advise","benchmark":"ar","partitions":2}|};
      (* there is no per-slice explore op: both sides reject it, even for
         a heuristic that searches in slices *)
      let slice =
        {|{"id":"s","op":"explore/slice","benchmark":"ar","partitions":2,"heuristic":"e"}|}
      in
      List.iter
        (fun (side, resp) ->
          Alcotest.(check (option string))
            (side ^ " rejects the slice op")
            (Some "bad_request")
            (Protocol.response_error_code (parse_response resp)))
        [
          ("gateway", Gateway.handle_line gw slice);
          ("serve", Server.handle_line reference slice);
        ];
      let pong = Gateway.handle_line gw {|{"id":"pg","op":"ping"}|} in
      Alcotest.(check bool) "gateway answers ping locally" true (ok_of pong);
      let stats = parse_response (Gateway.handle_line gw {|{"op":"stats"}|}) in
      Alcotest.(check bool) "stats marks the gateway" true
        (field stats [ "result"; "gateway" ] = Some (Json.Bool true)))

let test_gateway_sessions_migrate_failover () =
  with_cluster 2 (fun ~gw ~socks ~servers ~threads ->
      let reference = make_reference () in
      let both name line =
        let got = Gateway.handle_line gw line in
        let want = Server.handle_line reference line in
        if not (ok_of got) then
          Alcotest.failf "%s failed via gateway: %s" name got;
        Alcotest.(check string) (name ^ " text parity") (text_of want)
          (text_of got);
        got
      in
      (* open: the gateway allocates s1, exactly as a single process would *)
      let opened =
        both "open"
          {|{"id":"o","op":"session/open","benchmark":"ar","partitions":2,"client":"alice"}|}
      in
      Alcotest.(check (option string)) "gateway session id" (Some "s1")
        (Option.bind
           (field (parse_response opened) [ "result"; "session" ])
           Json.to_string_opt);
      ignore
        (both "edit"
           {|{"id":"ed","op":"session/edit","session":"s1","client":"alice","edits":["merge P2 P1"]}|});
      ignore (both "run" {|{"id":"r1","op":"session/run","session":"s1"}|});
      ignore
        (both "undo"
           {|{"id":"u","op":"session/undo","session":"s1","client":"alice"}|});
      ignore
        (both "redo"
           {|{"id":"rd","op":"session/redo","session":"s1","client":"alice"}|});
      ignore
        (both "attach"
           {|{"id":"at","op":"session/attach","session":"s1","client":"bob"}|});
      ignore (both "list" {|{"id":"ls","op":"session/list"}|});
      ignore
        (both "detach"
           {|{"id":"dt","op":"session/detach","session":"s1","client":"bob"}|});
      (* only the writer may mutate — enforced identically through the
         gateway *)
      let denied =
        Gateway.handle_line gw
          {|{"id":"x","op":"session/edit","session":"s1","client":"carol","edits":["merge P2 P1"]}|}
      in
      Alcotest.(check (option string)) "non-writer rejected"
        (Some "bad_request")
        (Protocol.response_error_code (parse_response denied));
      (* forced migration through the snapshot handoff *)
      let ring = Ring.create ~vnodes:64 socks in
      let source =
        match Ring.lookup ring "s1" with
        | Some b -> b
        | None -> Alcotest.fail "ring lookup failed"
      in
      let target =
        match Ring.lookup ~avoid:[ source ] ring "s1" with
        | Some b -> b
        | None -> Alcotest.fail "no migration target"
      in
      let migrated =
        parse_response
          (Gateway.handle_line gw
             {|{"id":"m","op":"gateway/migrate","session":"s1"}|})
      in
      Alcotest.(check (option bool)) "migrate ok" (Some true)
        (Protocol.response_ok migrated);
      Alcotest.(check (option string)) "migrated to the ring's fallback"
        (Some target)
        (Option.bind (field migrated [ "result"; "to" ]) Json.to_string_opt);
      (* the session still answers identically after migration: the edit
         history survived the snapshot (undo restores P2), the writer
         migrated with it (alice may still edit) *)
      ignore (both "run after migrate" {|{"id":"r2","op":"session/run","session":"s1"}|});
      ignore
        (both "undo after migrate"
           {|{"id":"u2","op":"session/undo","session":"s1","client":"alice"}|});
      ignore
        (both "edit after migrate"
           {|{"id":"e2","op":"session/edit","session":"s1","client":"alice","edits":["merge P2 P1"]}|});
      (* kill the owning backend: it snapshots s1 on shutdown; the next
         session op must fail over to the surviving backend through the
         shared state dir, byte-identically *)
      List.iter2
        (fun sock (sv, th) ->
          if sock = target then begin
            Server.stop sv;
            Thread.join th
          end)
        socks
        (List.combine servers threads);
      ignore
        (both "run after owner death" {|{"id":"r3","op":"session/run","session":"s1"}|});
      let stats = parse_response (Gateway.handle_line gw {|{"op":"stats"}|}) in
      Alcotest.(check (option int)) "one failover" (Some 1)
        (Option.bind (field stats [ "result"; "failovers" ]) Json.to_int_opt);
      Alcotest.(check (option int)) "one migration" (Some 1)
        (Option.bind (field stats [ "result"; "migrations" ]) Json.to_int_opt);
      (* close through the gateway: the route and the snapshot are gone *)
      ignore
        (both "close"
           {|{"id":"c","op":"session/close","session":"s1","client":"alice"}|});
      let after =
        Gateway.handle_line gw {|{"id":"z","op":"session/run","session":"s1"}|}
      in
      Alcotest.(check bool) "closed session is gone" true (not (ok_of after)))

(* A dead backend is caught by the health sweep, routed around for
   stateless work, and failed over preemptively for sessions — without
   waiting for a request to time out against the corpse.  The sweep is
   the same code path the periodic prober drives; calling it directly
   keeps the test deterministic. *)
let test_gateway_health_marks_dead_and_fails_over () =
  with_cluster ~health_interval_s:3600. 2 (fun ~gw ~socks ~servers ~threads ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        nn = 0 || go 0
      in
      (* every backend answers its ping: nothing is dead *)
      Alcotest.(check (list string)) "all backends live" []
        (Gateway.check_health gw);
      (* open a session so one backend becomes an owner we can kill *)
      let opened =
        parse_response
          (Gateway.handle_line gw
             {|{"id":"o","op":"session/open","benchmark":"ar","partitions":2,"client":"alice"}|})
      in
      let sid =
        match
          Option.bind (field opened [ "result"; "session" ]) Json.to_string_opt
        with
        | Some s -> s
        | None -> Alcotest.fail "session/open gave no id"
      in
      let ring = Ring.create ~vnodes:64 socks in
      let owner =
        match Ring.lookup ring sid with
        | Some b -> b
        | None -> Alcotest.fail "ring lookup failed"
      in
      (* kill the owner; it snapshots the session on shutdown *)
      List.iter2
        (fun sock (sv, th) ->
          if sock = owner then begin
            Server.stop sv;
            Thread.join th
          end)
        socks
        (List.combine servers threads);
      (* the sweep marks exactly the killed backend dead *)
      Alcotest.(check (list string)) "owner marked dead" [ owner ]
        (Gateway.check_health gw);
      (* stateless work prefers the live backend — no timeout, no error *)
      let explored =
        Gateway.handle_line gw
          {|{"id":"e","op":"explore","benchmark":"ar","partitions":2}|}
      in
      Alcotest.(check bool) "stateless op routes around the dead backend"
        true (ok_of explored);
      (* the session op never contacts the dead owner: it fails over
         preemptively through the shared snapshot *)
      let run =
        Gateway.handle_line gw
          (Printf.sprintf
             {|{"id":"r","op":"session/run","session":"%s"}|} sid)
      in
      Alcotest.(check bool) "session fails over preemptively" true
        (ok_of run);
      let stats_raw = Gateway.handle_line gw {|{"op":"stats"}|} in
      let stats = parse_response stats_raw in
      Alcotest.(check (option int)) "failover counted" (Some 1)
        (Option.bind (field stats [ "result"; "failovers" ]) Json.to_int_opt);
      (match field stats [ "result"; "dead" ] with
      | Some (Json.Array [ Json.String b ]) ->
          Alcotest.(check string) "stats lists the dead backend" owner b
      | _ -> Alcotest.fail "stats result.dead missing or not a 1-element array");
      Alcotest.(check bool) "stats text tags the dead backend" true
        (contains (text_of stats_raw) "(unreachable)");
      (* resurrect the backend on the same socket: the next sweep marks
         it live again and the dead set empties *)
      let dir = Filename.dirname owner in
      let revived =
        Server.create
          {
            Server.default_config with
            socket_path = Some owner;
            jobs = 1;
            log = None;
            handle_signals = false;
            state_dir = Some (Filename.concat dir "state");
          }
      in
      let revived_th = Thread.create Server.serve revived in
      Fun.protect
        ~finally:(fun () ->
          Server.stop revived;
          Thread.join revived_th)
        (fun () ->
          Alcotest.(check (list string)) "revived backend marked live" []
            (Gateway.check_health gw)))

(* The gateway's own socket transport: concurrent clients, each with a
   mix of stateless and session requests, must read exactly what one
   serve process answers; stopping the gateway removes its socket. *)
let test_gateway_socket_clients () =
  with_cluster 2 (fun ~gw:_ ~socks ~servers:_ ~threads:_ ->
      let path = Filename.concat (Filename.dirname (List.hd socks)) "gw.sock" in
      let gw =
        Gateway.create
          {
            Gateway.socket_path = Some path;
            backends = socks;
            vnodes = 64;
            log = None;
            handle_signals = false;
            health_interval_s = None;
          }
      in
      let serving = Thread.create Gateway.serve gw in
      let requests i =
        let k = 2 + i and sid = Printf.sprintf "g%d" i in
        [
          Printf.sprintf
            {|{"id":"e%d","op":"explore","benchmark":"ar","partitions":%d}|} i k;
          Printf.sprintf
            {|{"id":"p%d","op":"predict","benchmark":"ar","partitions":%d,"top":2}|}
            i k;
          Printf.sprintf
            {|{"id":"o%d","op":"session/open","session":"%s","benchmark":"ar","partitions":%d,"client":"c%d"}|}
            i sid k i;
          Printf.sprintf
            {|{"id":"d%d","op":"session/edit","session":"%s","client":"c%d","edits":["merge P2 P1"]}|}
            i sid i;
          Printf.sprintf {|{"id":"r%d","op":"session/run","session":"%s"}|} i
            sid;
          Printf.sprintf
            {|{"id":"x%d","op":"session/close","session":"%s","client":"c%d"}|}
            i sid i;
        ]
      in
      let clients = 3 in
      let answers = Array.make clients [] in
      let client i () =
        let conn = Client.connect path in
        answers.(i) <-
          List.map
            (fun line ->
              Client.send_line conn line;
              Option.value ~default:"<closed>" (Client.recv_line conn))
            (requests i);
        Client.close conn
      in
      List.iter Thread.join
        (List.init clients (fun i -> Thread.create (client i) ()));
      let reference = make_reference () in
      for i = 0 to clients - 1 do
        List.iter2
          (fun line got ->
            let want = Server.handle_line reference line in
            let id = Protocol.response_id (parse_response want) in
            Alcotest.(check (option string)) (line ^ ": id")
              id (Protocol.response_id (parse_response got));
            Alcotest.(check string) (line ^ ": text") (text_of want)
              (text_of got))
          (requests i) answers.(i)
      done;
      Gateway.stop gw;
      Thread.join serving;
      Alcotest.(check bool) "socket removed on stop" false
        (Sys.file_exists path))

(* ------------------------------------------------------------------ *)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "chop_gateway"
    [
      ( "ring",
        [
          tc "deterministic across instances" `Quick test_ring_deterministic;
          tc "spread and avoid" `Quick test_ring_spread_and_avoid;
          tc "two nodes both own keys" `Quick test_ring_balance;
          tc "validation" `Quick test_ring_validation;
        ] );
      ( "retry",
        [
          tc "backoff schedule is deterministic" `Quick
            test_backoff_deterministic;
          tc "overloaded then ok" `Quick test_retry_overloaded_then_ok;
          tc "budget exhausted keeps the outcome" `Quick
            test_retry_budget_exhausted_keeps_outcome;
          tc "connect refused retries then errors" `Quick
            test_retry_connect_refused;
          tc "zero retries is one-shot" `Quick test_retry_zero_is_one_shot;
        ] );
      ( "session-table",
        [
          tc "busy session never evicted (drain race)" `Quick
            test_prune_never_evicts_busy_session;
          tc "observed session never evicted" `Quick
            test_prune_never_evicts_observed_session;
        ] );
      ( "gateway",
        [
          tc "stateless parity over 2 backends" `Quick
            test_gateway_stateless_parity;
          tc "sessions: sticky, migrate, failover" `Quick
            test_gateway_sessions_migrate_failover;
          tc "health: dead-marking and preemptive failover" `Quick
            test_gateway_health_marks_dead_and_fails_over;
          tc "socket: concurrent clients match one serve" `Quick
            test_gateway_socket_clients;
        ] );
    ]
