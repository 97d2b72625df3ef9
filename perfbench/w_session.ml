(* session-serve: two connections to one [chop serve] with default
   flags, each owning a session (ar or ewf, three partitions) that
   follows a seeded random walk of edits, each edit followed by
   session/run.  The generator keeps a mirror spec, so it sends only
   edits that must succeed, and knows each edit's dirty set.

   Not in BENCHMARK.json: unchanged code fails its session/run check
   (README.md, "Known failure"). *)

open Common
module Ops = Chop_server.Ops

(* Untimed ops per connection at the end of set-up. *)
let warmup_ops = 400

(* spec.repredict_per_edit is averaged over this many edits per
   connection at the start of the traced phase, a fixed stretch of the
   seeded walk, so it repeats exactly for a seed. *)
let repredict_window = 256

let socket = Filename.concat Proc.run_dir "serve.sock"

type conn = {
  tid : int;
  client : Client.t;
  sid : string;
  params : Protocol.params;
  walk : Gen.walk;
  texts : (string, string * Chop.Spec.t) Hashtbl.t;
      (** session/run text per distinct mirror spec *)
  mutable ops : int;
  mutable edit_sizes : int list;  (** repredict sizes, newest first *)
}

let spec_key (s : Chop.Spec.t) =
  let b = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string b p.Chop_dfg.Partition.label;
      Buffer.add_char b ':';
      List.iter (fun m -> Printf.bprintf b "%d," m) p.Chop_dfg.Partition.members;
      Buffer.add_char b ';')
    (Gen.parts s);
  List.iter (fun (l, c) -> Printf.bprintf b "%s=%s;" l c) s.Chop.Spec.assignment;
  Printf.bprintf b "%h/%h" s.Chop.Spec.criteria.Chop_bad.Feasibility.perf_constraint
    s.Chop.Spec.criteria.Chop_bad.Feasibility.delay_constraint;
  Buffer.contents b

let open_conn ~seed tid =
  let params = Gen.session_params.(tid) in
  let client = Client.connect socket in
  let spec =
    match Ops.spec_of_params params with Ok s -> s | Error m -> failwith m
  in
  match
    Client.rpc client
      (Protocol.request_to_json (request ~params ~id:"open" Protocol.Session_open))
  with
  | Ok json when Protocol.response_ok json = Some true ->
      let sid =
        match Option.bind (Json.member "result" json) (Json.member "session") with
        | Some (Json.String s) -> s
        | _ -> failwith "session/open: no session id"
      in
      {
        tid; client; sid; params;
        walk = Gen.walk ~seed ~stream:tid spec;
        texts = Hashtbl.create 1024;
        ops = 0;
        edit_sizes = [];
      }
  | _ -> failwith "session/open failed"

let labels_of json field =
  match Option.bind (Json.member "result" json) (Json.member field) with
  | Some (Json.Array l) -> List.filter_map Json.to_string_opt l
  | _ -> []

(* Checks one successful response against the mirror. *)
let verify checks c ~kind st j =
  match st with
  | Gen.Edit { dirty = d; line } ->
      check checks ("dirty set of " ^ line)
        (labels_of j "repredict" = d.Chop.Spec.repredict
        && labels_of j "rederive" = d.Chop.Spec.rederive
        && labels_of j "removed" = d.Chop.Spec.removed);
      c.edit_sizes <- List.length (labels_of j "repredict") :: c.edit_sizes
  | Gen.Undo d | Gen.Redo d ->
      check checks ("dirty set of " ^ kind)
        (Protocol.response_text j = Some (Ops.render_dirty d));
      c.edit_sizes <- List.length d.Chop.Spec.repredict :: c.edit_sizes
  | Gen.Run -> (
      let text = Option.value ~default:"" (Protocol.response_text j) in
      let key = spec_key c.walk.Gen.spec in
      match Hashtbl.find_opt c.texts key with
      | None -> Hashtbl.replace c.texts key (text, c.walk.Gen.spec)
      | Some (first, _) ->
          check checks "session/run text differs for one spec" (String.equal first text))

(* One step of the connection's walk, drawn, sent and checked: the op's
   whole turn on its connection is its root span.  Only the request's
   encode, round trip and decode are the op's latency. *)
let step checks (buf : Trace.buf) c =
  let op = (c.tid lsl 24) lor c.ops in
  c.ops <- c.ops + 1;
  Trace.op_span buf ~op @@ fun root ->
  let st = Gen.next c.walk in
  let params = { Protocol.default_params with session = c.sid } in
  let kind, req =
    match st with
    | Gen.Edit { line; _ } ->
        ("session/edit", request ~params:{ params with edits = [ line ] } ~id:"e" Protocol.Session_edit)
    | Gen.Undo _ -> ("session/undo", request ~params ~id:"u" Protocol.Session_undo)
    | Gen.Redo _ -> ("session/redo", request ~params ~id:"r" Protocol.Session_redo)
    | Gen.Run -> ("session/run", request ~params ~id:"x" Protocol.Session_run)
  in
  let json, r = call c.client buf ~op ~parent:root ~kind req in
  (match json with Some j when r.ok -> verify checks c ~kind st j | _ -> ());
  r

(* Runs the connection's walk until [stop] says so; a failed op ends
   the connection's loop, since its session may no longer match the
   mirror. *)
let drive checks buf ~stop c =
  let rec go acc =
    if stop () then List.rev acc
    else
      let r = step checks buf c in
      if r.ok then go (r :: acc) else List.rev (r :: acc)
  in
  go []

type setup = { child : Proc.child; conns : conn array }

let setup (s : settings) checks =
  let t0 = Clock.now_ns () in
  let child =
    Proc.spawn ~chop:s.chop ~name:"serve" ~socket
      [ "serve"; "--socket"; socket ]
  in
  Proc.wait_ready child;
  let conns = Array.init 2 (open_conn ~seed:s.seed) in
  let warm =
    closed_loop ~n:2 ~seconds:1e9 ~traced:false (fun tid ~stop:_ ~buf ->
        let c = conns.(tid) in
        drive checks buf ~stop:(fun () -> c.ops >= warmup_ops) c)
  in
  if failed warm > 0 then failwith "session-serve: warm-up op failed";
  ({ child; conns }, Clock.s_between t0 (Clock.now_ns ()))

let teardown st =
  Array.iter (fun c -> Client.close c.client) st.conns;
  Proc.stop st.child

let timed_phase checks st ~seconds ~traced =
  Array.iter (fun c -> c.edit_sizes <- []) st.conns;
  let before = stats_of socket in
  let p =
    closed_loop ~windows:true ~n:2 ~seconds ~traced (fun tid ~stop ~buf ->
        drive checks buf ~stop st.conns.(tid))
  in
  (p, before, stats_of socket)

let layers st p before after =
  let recs = p.records in
  let n = Array.length recs in
  let is k r = r.kind = k in
  let d path = fnum after path -. fnum before path in
  let hits = d [ "cache"; "hits" ] and misses = d [ "cache"; "misses" ] in
  let sizes =
    Array.to_list st.conns
    |> List.concat_map (fun c ->
           List.filteri (fun i _ -> i < repredict_window) (List.rev c.edit_sizes))
  in
  [
    ("protocol.encode_ms", Trace.mean_ms p.spans ~ops:n "protocol.encode");
    ("protocol.decode_ms", Trace.mean_ms p.spans ~ops:n "protocol.decode");
    ("transport.rtt_ms", Trace.mean_ms p.spans ~ops:n "transport.rtt");
    ("transport.overhead_ms", mean_of rtt_beyond_server recs);
    ("scheduler.queue_ms", mean_of (fun r -> r.queue_ms) recs);
    ("scheduler.max_queued", fnum after [ "scheduler"; "max_queued" ]);
    ("scheduler.rejected", d [ "requests"; "overloaded" ]);
    ("server.session_edit_ms", mean_of ~keep:(is "session/edit") (fun r -> r.run_ms) recs);
    ("server.session_run_ms", mean_of ~keep:(is "session/run") (fun r -> r.run_ms) recs);
    ( "server.session_undo_ms",
      mean_of ~keep:(fun r -> is "session/undo" r || is "session/redo" r) (fun r -> r.run_ms) recs );
    ("explore.predict_ms", mean_of ~keep:(is "session/run") (fun r -> r.predict_ms) recs);
    ("explore.search_ms", mean_of ~keep:(is "session/run") (fun r -> r.search_ms) recs);
    ("explore.merge_ms", mean_of ~keep:(is "session/run") (fun r -> r.merge_ms) recs);
    ( "pred_cache.misses_per_run",
      mean_of ~keep:(is "session/run") (fun r -> float_of_int r.cache_misses) recs );
    ("pred_cache.evictions", Stats.ratio (d [ "cache"; "evictions" ]) (float_of_int n));
    ("pred_cache.structural_hits", Stats.ratio (d [ "cache"; "structural_hits" ]) (float_of_int n));
    ("pred_cache.hit_ratio", Stats.ratio hits (hits +. misses));
    ( "spec.repredict_per_edit",
      Stats.mean (Array.of_list (List.map float_of_int sizes)) );
    ("unattributed_ms", Trace.mean_self_ms p.spans ~ops:n "op");
  ]

(* Every session/run text must equal an in-process sequential explore of
   the mirror spec it was run on. *)
let check_references checks st =
  Array.iter
    (fun c ->
      let base =
        match Ops.config_of_params ~jobs:1 c.params with
        | Ok cfg -> cfg
        | Error m -> failwith m
      in
      (* the reference predicts every partition afresh: a cached answer
         must equal a fresh one *)
      let config =
        { base with Chop.Explore.Config.cache = Chop.Explore.Config.Off }
      in
      let p = c.params in
      let runs = Hashtbl.fold (fun _ v acc -> v :: acc) c.texts [] in
      let references =
        par_map
          (fun (_, spec) ->
            Ops.render_explore spec ~keep_all:p.Protocol.keep_all ~csv:p.Protocol.csv
              ~verbose:p.Protocol.verbose
              (Chop.Explore.with_engine config spec Chop.Explore.Session.run))
          runs
      in
      List.iter2
        (fun (text, spec) reference ->
          check checks
            (Printf.sprintf "%s session/run differs from an in-process explore of %s: %s"
               p.Protocol.benchmark (spec_key spec) (first_diff text reference))
            (String.equal text reference))
        runs references)
    st.conns

let run (s : settings) =
  let checks = new_checks () in
  let st, setup_times = repeated_setup (fun () -> setup s checks) teardown in
  (* the benchmark process is only the client here: its peak is read
     before the phases, whose check records grow with the op count *)
  let client_mb = Proc.vmhwm_mb 0 in
  Fun.protect ~finally:(fun () -> teardown st) @@ fun () ->
  let traced =
    if not s.trace then None
    else
      let p, before, after = timed_phase checks st ~seconds:s.seconds ~traced:true in
      Some (p, layers st p before after)
  in
  let timed, _, _ = timed_phase checks st ~seconds:s.seconds ~traced:false in
  let rss_mb = client_mb +. Proc.vmhwm_mb st.child.Proc.pid in
  let distinct = Array.fold_left (fun a c -> a + Hashtbl.length c.texts) 0 st.conns in
  check_references checks st;
  {
    setups = setup_times;
    timed;
    traced;
    rss_mb;
    checks;
    notes = [ Printf.sprintf "distinct specs run: %d" distinct ];
  }
