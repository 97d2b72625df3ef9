(* The metric contract and the result line.  The names and units here
   are the ones BENCHMARK.json declares; the last line a run prints is
   one JSON object {correct, attempted, failed, metrics}. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_ops_s", "ops/s");
    ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("auto.run_ms", "ms");
    ("auto.wave_wall_ms", "ms");
    ("auto.wave_busy_ms", "ms");
    ("auto.serial_ms", "ms");
    ("auto.moves_tried", "count/op");
    ("auto.moves_accepted", "count/op");
    ("auto.speculative_runs", "count/op");
    ("auto.batch_rounds", "count/op");
    ("auto.accept_ratio", "ratio");
    ("pool.parallelism", "ratio");
    ("pred_cache.hits", "count/op");
    ("pred_cache.misses", "count/op");
    ("pred_cache.structural_hits", "count/op");
    ("pred_cache.evictions", "count/op");
    ("pred_cache.misses_per_run", "count/op");
    ("pred_cache.hit_ratio", "ratio");
    ("explore.seed_predict_ms", "ms");
    ("explore.seed_search_ms", "ms");
    ("explore.predict_ms", "ms");
    ("explore.search_ms", "ms");
    ("explore.merge_ms", "ms");
    ("bad.ms_per_miss", "ms");
    ("search.avoided_ratio", "ratio");
    ("search.trials", "count/op");
    ("ops.render_ms", "ms");
    ("gc.minor_collections", "count/op");
    ("gc.major_collections", "count/op");
    ("protocol.encode_ms", "ms");
    ("protocol.decode_ms", "ms");
    ("protocol.response_kb", "KB");
    ("transport.rtt_ms", "ms");
    ("transport.overhead_ms", "ms");
    ("scheduler.queue_ms", "ms");
    ("scheduler.max_queued", "count");
    ("scheduler.rejected", "count");
    ("server.session_edit_ms", "ms");
    ("server.session_run_ms", "ms");
    ("server.session_undo_ms", "ms");
    ("server.explore_ms", "ms");
    ("spec.repredict_per_edit", "count/op");
    ("gateway.hop_ms", "ms");
    ("gateway.backend_share", "ratio");
    ("unattributed_ms", "ms");
  ]

(* Shortest decimal that reads back to the same float: every measured
   digit kept, no padding.  Non-finite values have no JSON form. *)
let number f =
  if not (Float.is_finite f) then invalid_arg "Output.number: not finite"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    go 1

(* [metrics] must name exactly the metrics of [contract], in any order. *)
let result_line ~contract ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit_) ->
        match List.assoc_opt name metrics with
        | Some v ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v)
              unit_
        | None -> invalid_arg ("Output.result_line: missing metric " ^ name))
      contract
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " fields)

(* The schema check behind the tests: the line parses, has exactly the
   four keys, and its metrics are exactly [contract] with those units. *)
let check_line ~contract line =
  let module J = Chop_util.Json in
  let ( let* ) = Result.bind in
  let* v = J.parse line in
  let* fields =
    match v with J.Object f -> Ok f | _ -> Error "not an object"
  in
  let keys = List.sort compare (List.map fst fields) in
  let* () =
    if keys = [ "attempted"; "correct"; "failed"; "metrics" ] then Ok ()
    else Error ("keys: " ^ String.concat "," keys)
  in
  let int_field k =
    match J.member k v with
    | Some (J.Int n) when n >= 0 -> Ok n
    | _ -> Error (k ^ " is not a whole number")
  in
  let* attempted = int_field "attempted" in
  let* _ = int_field "failed" in
  let* () = if attempted >= 1 then Ok () else Error "attempted < 1" in
  let* () =
    match J.member "correct" v with
    | Some (J.Bool _) -> Ok ()
    | _ -> Error "correct is not a boolean"
  in
  let* metrics =
    match J.member "metrics" v with
    | Some (J.Object m) -> Ok m
    | _ -> Error "metrics is not an object"
  in
  let* () =
    if List.sort compare (List.map fst metrics)
       = List.sort compare (List.map fst contract)
    then Ok ()
    else Error "metric names differ from the contract"
  in
  List.fold_left
    (fun acc (name, m) ->
      let* () = acc in
      match
        ( Option.bind (J.member "value" m) J.to_float_opt,
          Option.bind (J.member "unit" m) J.to_string_opt )
      with
      | Some _, Some u when u = List.assoc name contract -> Ok ()
      | _ -> Error ("bad metric " ^ name))
    (Ok ()) metrics
