(* perfbench: one closed-loop workload by name, its end-to-end metrics
   (or, with --trace 1, its per-layer metrics) and its correctness
   checks.  The last line printed is the JSON result; see README.md. *)

open Common

let workloads =
  [ ("auto-cold", W_auto.run); ("session-serve", W_session.run);
    ("explore-gateway", W_gateway.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload auto-cold|session-serve|explore-gateway \
     --seed N --seconds S --trace 0|1 --chop PATH";
  exit 2

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem_assoc workload workloads) then usage ();
  let seconds = int_arg "seconds" in
  let trace = int_arg "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  ( workload,
    {
      seed = int_arg "seed";
      seconds = float_of_int seconds;
      trace = trace = 1;
      chop = get "chop";
      nproc = Domain.recommended_domain_count ();
    } )

(* The end-to-end metrics of one phase; latencies are those of the ops
   that succeeded.  Throughput and p50 are medians over the phase's
   groups of ops, the tail is over all of its ops. *)
let e2e (r : result) (p : phase) =
  let ok = List.filter (fun x -> x.ok) (Array.to_list p.records) in
  let lat = Array.of_list (List.map (fun x -> x.lat_ms) ok) in
  let q, tail, beyond = Stats.tail lat in
  let groups =
    Stats.by_group ~start_ns:p.start_ns (List.map (fun x -> (x.group, x.done_ns, x.lat_ms)) ok)
  in
  let median_of f = Stats.median (Array.of_list (List.map f groups)) in
  ( [
      ("setup_s", median_setup r.setups);
      ("throughput_ops_s", median_of fst);
      ("latency_p50_ms", median_of snd);
      ("latency_tail_ms", tail);
      ("peak_rss_mb", r.rss_mb);
    ],
    (q, Array.length lat, beyond, groups) )

let print_e2e ~label (r : result) (p : phase) =
  let metrics, (q, n, beyond, groups) = e2e r p in
  let unit_of name = List.assoc name Output.end_to_end in
  Printf.printf "%s:\n" label;
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-18s %12.4f %s%s\n" name v (unit_of name)
        (match name with
        | "setup_s" ->
            Printf.sprintf "  (median of %s)"
              (String.concat ", " (List.map (Printf.sprintf "%.4f") r.setups))
        | "throughput_ops_s" ->
            Printf.sprintf "  (median of %d %s: %s; %d ops in %.3f s)" (List.length groups)
              p.groups
              (String.concat " " (List.map (fun (r, _) -> Printf.sprintf "%.4g" r) groups))
              n p.wall_s
        | "latency_p50_ms" ->
            Printf.sprintf "  (median of the %s' medians: %s)" p.groups
              (String.concat " " (List.map (fun (_, m) -> Printf.sprintf "%.4g" m) groups))
        | "latency_tail_ms" ->
            Printf.sprintf "  (p%g, %d of %d samples beyond it)" q beyond n
        | _ -> ""))
    metrics;
  let attempted = Array.length p.records and failed = failed p in
  Printf.printf "  %-18s %12.4f ratio  (%d of %d attempted; %s)\n" "failed_share"
    (Stats.ratio (float_of_int failed) (float_of_int attempted))
    failed attempted
    (let by_code = failures p in
     String.concat ", "
       (List.map
          (fun c -> Printf.sprintf "%s %d" c (Option.value ~default:0 (List.assoc_opt c by_code)))
          [ "overloaded"; "deadline"; "bad_request"; "shutting_down"; "internal";
            "transport"; "exception" ]));
  metrics

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop_children _ = Proc.stop_all (); exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_children);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_children);
  at_exit Proc.stop_all;
  let workload, s = parse_args () in
  Proc.ensure_run_dir ();
  Printf.printf "perfbench %s: seed %d, %g s per phase, trace %d, nproc %d\n%!"
    workload s.seed s.seconds (if s.trace then 1 else 0) s.nproc;
  let t0 = Clock.now_ns () and steal0 = Proc.steal_s () in
  let r =
    try (List.assoc workload workloads) s
    with e ->
      Proc.stop_all ();
      Printf.eprintf "perfbench %s: %s\n" workload (Printexc.to_string e);
      exit 1
  in
  List.iter print_endline r.notes;
  let wall = Clock.s_between t0 (Clock.now_ns ()) in
  Printf.printf "run took %.1f s (set-ups, phases and checks)\n" wall;
  (match (steal0, Proc.steal_s ()) with
  | Some (a, _), Some (b, cpus) ->
      Printf.printf "host CPU steal during the run: %.2f s (%.1f%% of %d CPUs' time)\n"
        (b -. a) (100. *. (b -. a) /. (wall *. float_of_int cpus)) cpus
  | _ -> ());
  let untraced = print_e2e ~label:"end-to-end (tracing off)" r r.timed in
  let correct = r.checks.mismatched = 0 in
  Printf.printf "checks: %d passed, %d mismatched\n" r.checks.passed r.checks.mismatched;
  List.iter (fun m -> Printf.printf "  MISMATCH %s\n" m) (List.rev r.checks.mismatches);
  let phase, contract, metrics =
    match r.traced with
    | None -> (r.timed, Output.end_to_end, untraced)
    | Some (p, layers) ->
        let traced = print_e2e ~label:"end-to-end (tracing on)" r p in
        print_endline "tracing overhead (traced / untraced - 1):";
        List.iter
          (fun (name, v) ->
            Printf.printf "  %-18s %+8.2f%%\n" name
              (100. *. Stats.ratio (v -. List.assoc name untraced) (List.assoc name untraced)))
          traced;
        let layers = complete_layers layers in
        print_endline "per-layer (traced phase):";
        List.iter
          (fun (name, v) ->
            Printf.printf "  %-28s %14.6f %s\n" name v (List.assoc name Output.per_layer))
          layers;
        let path =
          Filename.concat Proc.run_dir
            (Printf.sprintf "trace-%s-seed%d.json" workload s.seed)
        in
        Trace.write_chrome path p.spans;
        Printf.printf "trace: %s (%d spans; open in Perfetto)\n" path (List.length p.spans);
        (p, Output.per_layer, layers)
  in
  print_endline
    (Output.result_line ~contract ~correct
       ~attempted:(max 1 (Array.length phase.records))
       ~failed:(failed phase) metrics)
