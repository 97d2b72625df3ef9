(* What every workload shares: run settings, the per-op record, the
   closed loop and the wire call with its spans. *)

module Json = Chop_util.Json
module Protocol = Chop_server.Protocol
module Client = Chop_server.Client

type settings = {
  seed : int;
  seconds : float;
  trace : bool;
  chop : string;  (** the [chop] binary serve/gateway are spawned from *)
  nproc : int;
}

(* Set-up runs this many times per run; setup_s is their median.  The
   set-ups of one run agreed within 15% while runs differed by more, so
   more than three would add time to a run, not steadiness. *)
let setup_repeats = 3

(* Runs [setup] [setup_repeats] times, tearing down every state but the
   last; returns that state and each set-up's seconds. *)
let repeated_setup setup teardown =
  let rec go i acc =
    let st, secs = setup () in
    if i + 1 < setup_repeats then begin
      teardown st;
      go (i + 1) (secs :: acc)
    end
    else (st, List.rev (secs :: acc))
  in
  go 0 []

(* One op as the client saw it.  Server-side fields are 0 for ops that
   ran no engine, and for in-process ops. *)
type record = {
  kind : string;
  lat_ms : float;
  ok : bool;
  code : string;  (** "" when ok; an error code, or "transport" *)
  rtt_ms : float;  (** send to response line, as the client saw it *)
  queue_ms : float;
  run_ms : float;
  predict_ms : float;
  search_ms : float;
  merge_ms : float;
  cache_misses : int;
  bytes : int;
  trials : int;
  done_ns : int64;  (** monotonic completion time *)
  group : int;
      (** the round, deck or time window the op belongs to; throughput
          and p50 are medians over the phase's groups *)
}

let empty_record kind =
  {
    kind; lat_ms = 0.; ok = false; code = ""; rtt_ms = 0.; queue_ms = 0.; run_ms = 0.;
    predict_ms = 0.; search_ms = 0.; merge_ms = 0.; cache_misses = 0;
    bytes = 0; trials = 0; done_ns = 0L; group = 0;
  }

type phase = {
  records : record array;  (** completion order per thread, threads concatenated *)
  start_ns : int64;
  wall_s : float;
  groups : string;  (** what the records' groups are, for the output *)
  spans : Trace.span list;  (** empty unless traced *)
}

(* Host contention on a shared machine comes in bursts of a second or
   two (per-second throughput moved by +-15% inside one run), so
   throughput and p50 are medians over groups of the phase's ops: whole
   rounds or decks, each the same mix of ops, where a workload has them,
   and otherwise windows of this many seconds, 10 in a 30 s phase. *)
let window_s = 3.

let failures phase =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun r ->
      if not r.ok then
        Hashtbl.replace tbl r.code
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl r.code)))
    phase.records;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let failed phase =
  Array.fold_left (fun n r -> if r.ok then n else n + 1) 0 phase.records

(* The tally of the correctness checks; any mismatch makes the run report
   correct=false.  The first few mismatches are kept by name. *)
type checks = {
  mutable passed : int;
  mutable mismatched : int;
  mutable mismatches : string list;  (** newest first, at most 20 *)
}

let new_checks () = { passed = 0; mismatched = 0; mismatches = [] }
let checks_mu = Mutex.create ()

(* The first line where two outputs part, for a mismatch report. *)
let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i = function
    | x :: xs, y :: ys ->
        if String.equal x y then go (i + 1) (xs, ys)
        else Printf.sprintf "line %d: %S vs %S" i x y
    | x :: _, [] -> Printf.sprintf "line %d: %S vs end of output" i x
    | [], y :: _ -> Printf.sprintf "line %d: end of output vs %S" i y
    | [], [] -> "equal"
  in
  go 1 (la, lb)

let check c name ok =
  Mutex.lock checks_mu;
  if ok then c.passed <- c.passed + 1
  else begin
    c.mismatched <- c.mismatched + 1;
    if c.mismatched <= 20 then c.mismatches <- name :: c.mismatches
  end;
  Mutex.unlock checks_mu

(* The closed loop: [n] clients, each issuing its next op only after the
   previous one answered, until [seconds] have passed.  [body tid ~stop
   ~buf] runs one client's loop and returns its records, grouped as
   [groups] says; with [~windows:true] the records are grouped instead by
   the [window_s] window they completed in, and ops completing after
   [seconds] belong to none (group -1).  Each client is a domain of its
   own: as threads of one domain, a client whose reply had arrived would
   wait for the runtime lock while the other parsed or checked a
   response, and that wait would land in its latency. *)
let closed_loop ?(windows = false) ?(groups = "groups") ~n ~seconds ~traced body =
  let t0 = Clock.now_ns () in
  let until = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let stop () = Clock.now_ns () >= until in
  let clients =
    List.init n (fun tid ->
        Domain.spawn (fun () ->
            let buf = Trace.buffer ~enabled:traced ~tid in
            let recs = body tid ~stop ~buf in
            (recs, Trace.spans [ buf ])))
  in
  let results = List.map Domain.join clients in
  let t1 = Clock.now_ns () in
  let records = Array.of_list (List.concat_map fst results) in
  let records, groups =
    if not windows then (records, groups)
    else
      ( Array.map
          (fun r ->
            let at = Clock.s_between t0 r.done_ns in
            { r with group = (if at < seconds then int_of_float (at /. window_s) else -1) })
          records,
        Printf.sprintf "%g s windows" window_s )
  in
  {
    records;
    start_ns = t0;
    wall_s = Clock.s_between t0 t1;
    groups;
    spans = List.concat_map snd results;
  }

let fnum json path =
  let rec go j = function
    | [] -> Json.to_float_opt j
    | k :: rest -> Option.bind (Json.member k j) (fun j -> go j rest)
  in
  Option.value ~default:0. (go json path)

let inum json path = int_of_float (fnum json path)

(* One request on [conn], timed and traced as three children of the op's
   root span [parent]: encode (request_to_json + print), the socket round
   trip (send to the response line) and decode (parse).  The server's
   reported queue, run and engine phase times go into the record.
   Returns the parsed response and the record; transport failures are
   records with code "transport". *)
let call conn (buf : Trace.buf) ~op ~parent ~kind (req : Protocol.request) =
  let t0 = Clock.now_ns () in
  let line = Json.print (Protocol.request_to_json req) in
  let t1 = Clock.now_ns () in
  let reply =
    match Client.send_line conn line with
    | () -> Client.recv_line conn
    | exception (Sys_error _ | Unix.Unix_error _) -> None
  in
  let t2 = Clock.now_ns () in
  match reply with
  | None ->
      ( None,
        {
          (empty_record kind) with
          lat_ms = Clock.ms_between t0 t2;
          rtt_ms = Clock.ms_between t1 t2;
          code = "transport";
          done_ns = t2;
        } )
  | Some resp_line ->
      let parsed = Json.parse resp_line in
      let t3 = Clock.now_ns () in
      let rec_ =
        {
          (empty_record kind) with
          lat_ms = Clock.ms_between t0 t3;
          rtt_ms = Clock.ms_between t1 t2;
          done_ns = t3;
        }
      in
      let json, r =
        match parsed with
        | Error _ -> (None, { rec_ with code = "transport" })
        | Ok json ->
            let ok = Protocol.response_ok json = Some true in
            let t = Option.value ~default:Json.Null (Json.member "timing" json) in
            ( Some json,
              {
                rec_ with
                ok;
                code =
                  (if ok then ""
                   else Option.value ~default:"internal" (Protocol.response_error_code json));
                queue_ms = fnum t [ "queue_ms" ];
                run_ms = fnum t [ "run_ms" ];
                predict_ms = fnum t [ "predict_ms" ];
                search_ms = fnum t [ "search_ms" ];
                merge_ms = fnum t [ "merge_ms" ];
                cache_misses = inum t [ "cache_misses" ];
                bytes = String.length resp_line + 1;
                trials = inum json [ "result"; "trials" ];
              } )
      in
      ignore (Trace.add buf ~op ~parent "protocol.encode" t0 t1);
      ignore (Trace.add buf ~op ~parent "transport.rtt" t1 t2);
      ignore (Trace.add buf ~op ~parent "protocol.decode" t2 t3);
      (json, r)

let request ?(params = Protocol.default_params) ~id op =
  { Protocol.id; op; deadline_ms = None; params }

let stats_of socket =
  let c = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.rpc c (Protocol.request_to_json (request ~id:"stats" Protocol.Stats)) with
  | Ok json when Protocol.response_ok json = Some true ->
      Option.value ~default:Json.Null (Json.member "result" json)
  | _ -> failwith ("stats request failed on " ^ socket)

(* Per-op mean of [f] over the records matching [keep]. *)
let mean_of ?(keep = fun _ -> true) f records =
  let xs = List.filter keep (Array.to_list records) in
  Stats.mean (Array.of_list (List.map f xs))

(* The part of a round trip the server's queue and run times do not
   cover: the socket, the server's own codec and, through a gateway, the
   extra hop. *)
let rtt_beyond_server r = Float.max 0. (r.rtt_ms -. r.queue_ms -. r.run_ms)

let median_setup setups = Stats.median (Array.of_list setups)

(* [List.map f xs] on a pool of the default job count: the reference
   runs of the correctness checks are independent, and running them
   side by side keeps a run well inside its time budget.  A workload
   pinned to one CPU gets one job here. *)
let par_map f xs =
  let pool = Chop_util.Pool.create ~jobs:(Chop_util.Pool.default_jobs ()) () in
  Fun.protect ~finally:(fun () -> Chop_util.Pool.shutdown pool) (fun () ->
      Chop_util.Pool.map_list pool f xs)

(* What a workload hands back to the reporter. *)
type result = {
  setups : float list;  (** seconds, one per set-up *)
  timed : phase;  (** the untraced phase: the end-to-end numbers *)
  traced : (phase * (string * float) list) option;
      (** with --trace 1: the traced phase and its per-layer metrics *)
  rss_mb : float;
  checks : checks;
  notes : string list;  (** extra human-readable lines *)
}

(* Per-layer metrics a workload does not exercise read 0: its layer is
   idle there. *)
let complete_layers measured =
  List.map
    (fun (name, _) -> (name, Option.value ~default:0. (List.assoc_opt name measured)))
    Output.per_layer
