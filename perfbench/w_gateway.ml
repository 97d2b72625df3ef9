(* explore-gateway: one connection to [chop gateway] with its defaults
   (no fan-out) in front of two [chop serve -j 1] backends.  Requests
   are stateless explores drawn with skewed popularity from a fixed key
   set that set-up sends once, so every timed request repeats a key: it
   hits a warm engine and the raw cache layer.

   One connection, so one process of the chain works at a time: with
   two, the five processes kept both CPUs of the shared 2-core host the
   bounds were set on busy, the hypervisor took 4-24% of their time as
   steal, and the median latency ranged from 4.3 to 9.0 ms over five
   runs. *)

open Common
module Ops = Chop_server.Ops

let clients = 1

let gw_socket = Filename.concat Proc.run_dir "gw.sock"
let backend_sockets =
  [ Filename.concat Proc.run_dir "b0.sock"; Filename.concat Proc.run_dir "b1.sock" ]

let keys = Gen.gateway_keys

type setup = {
  children : Proc.child list;
  backends : Proc.child list;
  conns : Client.t array;
  dealers : Gen.dealer array;
  texts : string array;  (** first response text per key *)
}

let explore conn buf ~op ~parent key =
  call conn buf ~op ~parent ~kind:"explore"
    (request ~params:keys.(key) ~id:(string_of_int key) Protocol.Explore)

let text_of = function
  | Some j -> Option.value ~default:"" (Protocol.response_text j)
  | None -> ""

let drive checks st buf ~stop tid =
  let conn = st.conns.(tid) in
  (* the op's root span is its whole turn: the draw, the request and
     the comparison with the key's first response *)
  let turn n =
    Trace.op_span buf ~op:((tid lsl 24) lor n) @@ fun root ->
    let key = Gen.deal st.dealers.(tid) in
    let json, r = explore conn buf ~op:((tid lsl 24) lor n) ~parent:root key in
    if r.ok then
      check checks "explore response differs from the key's first response"
        (String.equal st.texts.(key) (text_of json));
    { r with group = n / Array.length Gen.deck_base }
  in
  let rec go n acc =
    if stop n then List.rev acc
    else
      let r = turn n in
      if r.ok then go (n + 1) (r :: acc) else List.rev (r :: acc)
  in
  go 0 []

let setup (s : settings) checks =
  let t0 = Clock.now_ns () in
  let backends =
    List.mapi
      (fun i sock ->
        Proc.spawn ~chop:s.chop ~name:(Printf.sprintf "backend%d" i) ~socket:sock
          [ "serve"; "--socket"; sock; "-j"; "1" ])
      backend_sockets
  in
  let gw =
    Proc.spawn ~chop:s.chop ~name:"gateway" ~socket:gw_socket
      ([ "gateway"; "--socket"; gw_socket ]
      @ List.concat_map (fun b -> [ "-b"; b ]) backend_sockets)
  in
  let children = gw :: backends in
  List.iter Proc.wait_ready children;
  let conns = Array.init clients (fun _ -> Client.connect gw_socket) in
  let texts = Array.make (Array.length keys) "" in
  let st =
    {
      children; backends; conns; texts;
      dealers = Array.init clients (fun tid -> Gen.dealer ~seed:s.seed ~stream:tid);
    }
  in
  (* the first pass over every key, split between the connections *)
  let first =
    closed_loop ~n:clients ~seconds:1e9 ~traced:false (fun tid ~stop:_ ~buf ->
        List.filter_map
          (fun key ->
            if key mod clients <> tid then None
            else
              let json, r = explore conns.(tid) buf ~op:key ~parent:(-1) key in
              texts.(key) <- text_of json;
              Some r)
          (List.init (Array.length keys) Fun.id))
  in
  if failed first > 0 then failwith "explore-gateway: first pass failed";
  (* the warm-up is the stream's first deck, whole: its cost is the same
     for every seed, where a 100-request prefix put a seed-dependent share
     of the expensive keys into set-up (2.0-3.2 s over three seeds) *)
  let warm =
    closed_loop ~n:clients ~seconds:1e9 ~traced:false (fun tid ~stop:_ ~buf ->
        drive checks st buf ~stop:(fun n -> n >= Array.length Gen.deck_base) tid)
  in
  if failed warm > 0 then failwith "explore-gateway: warm-up op failed";
  (st, Clock.s_between t0 (Clock.now_ns ()))

let teardown st =
  Array.iter Client.close st.conns;
  List.iter Proc.stop st.children

(* A phase times whole decks, each the exact popularity mix, until
   [seconds] have passed; its throughput and p50 are medians over them. *)
let timed_phase checks st ~seconds ~traced =
  let stats () = List.map (fun b -> stats_of b.Proc.socket) st.backends in
  let before = stats () in
  Array.iter Gen.start_deck st.dealers;
  let deck = Array.length Gen.deck_base in
  let p =
    closed_loop ~groups:"decks" ~n:clients ~seconds ~traced (fun tid ~stop ~buf ->
        drive checks st buf ~stop:(fun n -> n mod deck = 0 && stop ()) tid)
  in
  (p, before, stats ())

let layers p before after =
  let recs = p.records in
  let n = Array.length recs in
  let d path = List.map2 (fun b a -> fnum a path -. fnum b path) before after in
  let sum = List.fold_left ( +. ) 0. in
  let served = d [ "requests"; "ok" ] in
  let hits = sum (d [ "cache"; "hits" ]) and misses = sum (d [ "cache"; "misses" ]) in
  [
    ("gateway.hop_ms", mean_of rtt_beyond_server recs);
    ("transport.rtt_ms", Trace.mean_ms p.spans ~ops:n "transport.rtt");
    ("protocol.encode_ms", Trace.mean_ms p.spans ~ops:n "protocol.encode");
    ("protocol.decode_ms", Trace.mean_ms p.spans ~ops:n "protocol.decode");
    ("protocol.response_kb", mean_of (fun r -> float_of_int r.bytes /. 1024.) recs);
    ("scheduler.queue_ms", mean_of (fun r -> r.queue_ms) recs);
    ( "scheduler.max_queued",
      List.fold_left (fun m a -> Float.max m (fnum a [ "scheduler"; "max_queued" ])) 0. after );
    ("scheduler.rejected", sum (d [ "requests"; "overloaded" ]));
    ("server.explore_ms", mean_of (fun r -> r.run_ms) recs);
    ("explore.predict_ms", mean_of (fun r -> r.predict_ms) recs);
    ("explore.search_ms", mean_of (fun r -> r.search_ms) recs);
    ("explore.merge_ms", mean_of (fun r -> r.merge_ms) recs);
    ("search.trials", mean_of (fun r -> float_of_int r.trials) recs);
    ("pred_cache.hit_ratio", Stats.ratio hits (hits +. misses));
    ( "gateway.backend_share",
      Stats.ratio (List.fold_left Float.max 0. served) (sum served) );
    ("unattributed_ms", Trace.mean_self_ms p.spans ~ops:n "op");
  ]

(* Every key's response text must equal the in-process render of the
   same parameters (serve output matches the CLI).  Together with the
   per-request comparison against the first response, this covers every
   response of the run. *)
let check_references checks st =
  let reference p =
    match (Ops.spec_of_params p, Ops.config_of_params ~jobs:1 p) with
    | Ok spec, Ok config ->
        (* a fresh [chop explore] process starts with an empty cache; the
           reference predicts everything afresh the same way *)
        let config = { config with Chop.Explore.Config.cache = Chop.Explore.Config.Off } in
        let report = Chop.Explore.with_engine config spec Chop.Explore.Session.run in
        Ops.render_explore spec ~keep_all:p.Protocol.keep_all ~csv:p.Protocol.csv
          ~verbose:p.Protocol.verbose report
    | Error m, _ | _, Error m -> failwith m
  in
  List.iteri
    (fun key reference ->
      let p = keys.(key) in
      check checks
        (Printf.sprintf "explore %s k=%d h=%s: response differs from the in-process render: %s"
           p.Protocol.benchmark p.Protocol.partitions p.Protocol.heuristic
           (first_diff st.texts.(key) reference))
        (String.equal reference st.texts.(key)))
    (par_map reference (Array.to_list keys))

let run (s : settings) =
  let checks = new_checks () in
  let st, setup_times = repeated_setup (fun () -> setup s checks) teardown in
  (* the benchmark process is only the client: its peak is read before
     the phases *)
  let client_mb = Proc.vmhwm_mb 0 in
  Fun.protect ~finally:(fun () -> teardown st) @@ fun () ->
  let traced =
    if not s.trace then None
    else
      let p, before, after = timed_phase checks st ~seconds:s.seconds ~traced:true in
      Some (p, layers p before after)
  in
  let timed, _, _ = timed_phase checks st ~seconds:s.seconds ~traced:false in
  let rss_mb =
    List.fold_left (fun a c -> a +. Proc.vmhwm_mb c.Proc.pid) client_mb st.children
  in
  check_references checks st;
  {
    setups = setup_times;
    timed;
    traced;
    rss_mb;
    checks;
    notes =
      [
        Printf.sprintf "keys: %d (%d keep-all), deck of %d requests"
          (Array.length keys)
          (Array.fold_left (fun a p -> if p.Protocol.keep_all then a + 1 else a) 0 keys)
          (Array.length Gen.deck_base);
      ];
  }
