(* Tests for the exploration engine: Config/Session API, parallel
   determinism (jobs=1 vs jobs=4 must produce identical outcomes), the
   engine lifecycle, the timing metrics and the memoized prediction
   cache. *)

open Chop

(* The paper's experiment-1 AR lattice filter, two partitions. *)
let ar_spec () = Rig.experiment1 ~partitions:2 ()

(* a run's prediction-cache counters *)
let hits r = r.Explore.metrics.Explore.Metrics.cache_hits
let misses r = r.Explore.metrics.Explore.Metrics.cache_misses

(* The elliptic wave filter under experiment-2-style conditions (the
   bench's secondary workload), two partitions. *)
let ewf_spec () =
  let graph = Chop_dfg.Benchmarks.elliptic_wave_filter () in
  Rig.custom ~graph
    ~partitioning:(Chop_dfg.Partition.by_levels graph ~k:2)
    ~package:Chop_tech.Mosis.package_84
    ~clocks:
      (Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1 ~transfer_ratio:1)
    ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle)
    ~criteria:(Chop_bad.Feasibility.criteria ~perf:20000. ~delay:20000. ())
    ()

let run_with ?(cache = Explore.Config.Off) ?(keep_all = false) ~heuristic
    ~jobs spec =
  Explore.with_engine
    (Explore.Config.make ~heuristic ~keep_all ~jobs ~cache ())
    spec Explore.Session.run

(* ------------------------------------------------------------------ *)
(* Determinism: any jobs value must yield the identical outcome *)

let check_determinism ~heuristic ~keep_all spec_of () =
  let r1 = run_with ~heuristic ~keep_all ~jobs:1 (spec_of ()) in
  let r4 = run_with ~heuristic ~keep_all ~jobs:4 (spec_of ()) in
  Alcotest.(check string) "feasible csv"
    (Search.to_csv r1.Explore.outcome.Search.feasible)
    (Search.to_csv r4.Explore.outcome.Search.feasible);
  Alcotest.(check string) "explored csv"
    (Search.to_csv r1.Explore.outcome.Search.explored)
    (Search.to_csv r4.Explore.outcome.Search.explored);
  let s1 = r1.Explore.outcome.Search.stats
  and s4 = r4.Explore.outcome.Search.stats in
  Alcotest.(check int) "trials" s1.Search.implementation_trials
    s4.Search.implementation_trials;
  Alcotest.(check int) "integrations" s1.Search.integrations
    s4.Search.integrations;
  Alcotest.(check int) "feasible trials" s1.Search.feasible_trials
    s4.Search.feasible_trials;
  Alcotest.(check int) "jobs recorded" 4 r4.Explore.jobs

(* jobs must also not disturb the default one-shot session results *)
let check_matches_legacy ~heuristic spec_of () =
  let legacy =
    Explore.with_engine
      (Explore.Config.make ~heuristic ())
      (spec_of ()) Explore.Session.run
  in
  let engine = run_with ~heuristic ~jobs:4 (spec_of ()) in
  Alcotest.(check string) "feasible csv"
    (Search.to_csv legacy.Explore.outcome.Search.feasible)
    (Search.to_csv engine.Explore.outcome.Search.feasible)

(* feasible_trials must count feasible *integrations* (the sequential
   searches' semantics), not the final front size.  Hand-count by
   integrating every combination of the pruned prediction lists — the
   searches skip hopeless stems, but those are infeasible by construction
   (their performance lower bound already breaks the constraint), so the
   counts must agree. *)
let check_feasible_trials_hand_count ~jobs () =
  let spec = ar_spec () in
  (* pre-pruning and quick_check both drop only *infeasible-or-dominated*
     work, but the hand count below integrates the full product, so run
     the engine on the same full product ([pre_prune:false]; quick_check
     rejections are still fine — they are infeasible by construction) *)
  let config =
    Explore.Config.make ~heuristic:Explore.Enumeration ~pre_prune:false ~jobs
      ~cache:Explore.Config.Off ()
  in
  Explore.with_engine config spec @@ fun engine ->
  let per_partition, _ = Explore.Session.predictions engine in
  let ctx = Explore.Session.context engine in
  let labels = List.map fst per_partition in
  let hand_count = ref 0 in
  (match List.map snd per_partition with
  | [] -> ()
  | lists ->
      Chop_util.Listx.fold_cartesian
        (fun () picks ->
          let system = Integration.integrate ctx (List.combine labels picks) in
          if Integration.feasible system then incr hand_count)
        () lists);
  Alcotest.(check bool) "spec produces feasible systems" true (!hand_count > 0);
  let r = Explore.Session.run engine in
  Alcotest.(check int) "feasible_trials equals hand count" !hand_count
    r.Explore.outcome.Search.stats.Search.feasible_trials;
  (* and it differs from the deduplicated Pareto front, the quantity the
     parallel merge used to report by mistake *)
  Alcotest.(check bool) "front size is not the trial count" true
    (List.length r.Explore.outcome.Search.feasible <> !hand_count)

(* ------------------------------------------------------------------ *)
(* Engine lifecycle *)

let test_close_idempotent () =
  let engine = Explore.Session.create Explore.Config.default (ar_spec ()) in
  Explore.Session.close engine;
  Explore.Session.close engine

let test_run_after_close_raises () =
  let engine =
    Explore.Session.create (Explore.Config.make ~jobs:2 ()) (ar_spec ())
  in
  let _ = Explore.Session.run engine in
  Explore.Session.close engine;
  (match Explore.Session.run engine with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "run on a closed engine succeeded");
  match Explore.Session.predictions engine with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "predictions on a closed engine succeeded"

let test_with_engine_closes_on_raise () =
  let saved = ref None in
  (match
     Explore.with_engine Explore.Config.default (ar_spec ()) (fun e ->
         saved := Some e;
         failwith "boom")
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  match !saved with
  | None -> Alcotest.fail "with_engine never called its body"
  | Some e -> (
      match Explore.Session.run e with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "engine left open after with_engine raised")

let test_engine_reuse_after_runs () =
  (* a persistent pool must survive many runs on the same engine *)
  let config = Explore.Config.make ~jobs:3 () in
  Explore.with_engine config (ar_spec ()) @@ fun engine ->
  let first = Explore.Session.run engine in
  for _ = 1 to 3 do
    let again = Explore.Session.run engine in
    Alcotest.(check string) "stable across reruns"
      (Search.to_csv first.Explore.outcome.Search.feasible)
      (Search.to_csv again.Explore.outcome.Search.feasible)
  done

(* ------------------------------------------------------------------ *)
(* Prediction cache *)

let test_cache_second_run_hits () =
  let spec = ar_spec () in
  let cache = Pred_cache.create () in
  let config = Explore.Config.make ~cache:(Explore.Config.Custom cache) () in
  Explore.with_engine config spec @@ fun engine ->
  let r1 = Explore.Session.run engine in
  Alcotest.(check int) "first run misses every partition" 2
    (misses r1);
  Alcotest.(check int) "first run has no hits" 0 (hits r1);
  let r2 = Explore.Session.run engine in
  Alcotest.(check int) "second run hits every partition" 2
    (hits r2);
  Alcotest.(check int) "second run misses nothing" 0 (misses r2);
  Alcotest.(check string) "cached outcome identical"
    (Search.to_csv r1.Explore.outcome.Search.feasible)
    (Search.to_csv r2.Explore.outcome.Search.feasible)

let test_cache_matches_uncached () =
  let spec = ewf_spec () in
  let heuristic = Explore.Enumeration in
  let cached =
    run_with ~cache:(Explore.Config.Custom (Pred_cache.create ())) ~heuristic
      ~jobs:1 spec
  in
  let uncached = run_with ~heuristic ~jobs:1 spec in
  Alcotest.(check string) "same feasible front"
    (Search.to_csv uncached.Explore.outcome.Search.feasible)
    (Search.to_csv cached.Explore.outcome.Search.feasible);
  Alcotest.(check int) "uncached engine counts misses" 2
    (misses uncached);
  Alcotest.(check int) "uncached engine never hits" 0 (hits uncached)

let test_cache_raw_layer_survives_criteria_change () =
  (* moving a feasibility constraint must reuse the raw BAD enumeration:
     the full-entry key changes but the raw layer still hits *)
  let spec = ar_spec () in
  let cache = Pred_cache.create () in
  let config = Explore.Config.make ~cache:(Explore.Config.Custom cache) () in
  let r1 = Explore.with_engine config spec Explore.Session.run in
  Alcotest.(check int) "cold run misses" 2 (misses r1);
  let relaxed =
    Advisor.set_constraints spec
      ~criteria:(Chop_bad.Feasibility.criteria ~perf:60000. ~delay:60000. ())
  in
  let r2 = Explore.with_engine config relaxed Explore.Session.run in
  Alcotest.(check int) "constraint change still hits raw layer" 2
    (hits r2);
  Alcotest.(check int) "no re-prediction" 0 (misses r2)

let test_cache_relabels_predictions () =
  (* two structurally identical partitions on identical chips share cache
     entries, but each must see its own label on the predictions *)
  let graph = Chop_dfg.Benchmarks.fir_filter ~taps:8 () in
  let spec graph =
    Rig.custom ~graph
      ~partitioning:(Chop_dfg.Partition.by_levels graph ~k:2)
      ~package:Chop_tech.Mosis.package_84
      ~clocks:
        (Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1
           ~transfer_ratio:1)
      ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle)
      ~criteria:(Chop_bad.Feasibility.criteria ~perf:60000. ~delay:60000. ())
      ()
  in
  let cache = Pred_cache.create () in
  let config = Explore.Config.make ~cache:(Explore.Config.Custom cache) () in
  Explore.with_engine config (spec graph) @@ fun engine ->
  let _ = Explore.Session.run engine in
  let per_partition, _ = Explore.Session.predictions engine in
  List.iter
    (fun (label, preds) ->
      List.iter
        (fun p ->
          Alcotest.(check string) "prediction label" label
            p.Chop_bad.Prediction.partition_label)
        preds)
    per_partition

(* Distinct typed raw keys for the LRU tests: one per chain length (the
   signature separates chains of different lengths). *)
let test_cfg =
  lazy
    (Chop_bad.Predictor.config ~library:Chop_tech.Mosis.experiment_library
       ~clocks:
         (Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1
            ~transfer_ratio:1)
       ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle) ())

let chain_graph ?(name = "chain") n =
  let b = Chop_dfg.Graph.builder ~name () in
  let input = Chop_dfg.Graph.add_node b ~op:Chop_dfg.Op.Input ~width:8 in
  let prev = ref input in
  for _ = 1 to n do
    let s = Chop_dfg.Graph.add_node b ~op:Chop_dfg.Op.Shift ~width:8 in
    Chop_dfg.Graph.add_edge b ~src:!prev ~dst:s;
    prev := s
  done;
  let out = Chop_dfg.Graph.add_node b ~op:Chop_dfg.Op.Output ~width:8 in
  Chop_dfg.Graph.add_edge b ~src:!prev ~dst:out;
  Chop_dfg.Graph.build b

let rkey i =
  Pred_cache.Key.raw ~sub:(chain_graph i) ~cfg:(Lazy.force test_cfg)
    ~model:Chop.Model.Hardware

let test_cache_capacity_evicts_lru () =
  let cache = Pred_cache.create ~capacity:4 () in
  Alcotest.(check (option int)) "capacity recorded" (Some 4)
    (Pred_cache.capacity cache);
  for i = 1 to 10 do
    Pred_cache.add_raw cache (rkey i) []
  done;
  Alcotest.(check int) "bounded after inserts" 4 (Pred_cache.length cache);
  (* the youngest keys survive, the oldest were evicted *)
  Alcotest.(check bool) "newest kept" true
    (Pred_cache.find_raw cache (rkey 10) <> None);
  Alcotest.(check bool) "oldest evicted" true
    (Pred_cache.find_raw cache (rkey 1) = None);
  (* a find refreshes the entry: touch k7, insert, k7 must outlive k8 *)
  ignore (Pred_cache.find_raw cache (rkey 7));
  Pred_cache.add_raw cache (rkey 11) [];
  Alcotest.(check bool) "refreshed entry survives" true
    (Pred_cache.find_raw cache (rkey 7) <> None);
  Alcotest.(check bool) "stale entry evicted" true
    (Pred_cache.find_raw cache (rkey 8) = None);
  (* tightening the bound evicts immediately; lifting it stops evicting *)
  Pred_cache.set_capacity cache (Some 2);
  Alcotest.(check int) "tightened" 2 (Pred_cache.length cache);
  Pred_cache.set_capacity cache None;
  for i = 20 to 30 do
    Pred_cache.add_raw cache (rkey i) []
  done;
  Alcotest.(check int) "unbounded again" 13 (Pred_cache.length cache)

let test_shared_cache_is_bounded () =
  Alcotest.(check (option int)) "shared cache has the default bound"
    (Some Pred_cache.default_shared_capacity)
    (Pred_cache.capacity Pred_cache.shared)

(* regression: a full-layer hit must also refresh the raw entry its key
   extends — before the linked refresh, derived lookups (sensitivity
   sweeps) kept the full entry young while its raw parent aged out *)
let test_cache_full_hit_refreshes_raw_parent () =
  let cache = Pred_cache.create ~capacity:3 () in
  let chip = Chop_tech.Mosis.package_84 in
  let criteria = Chop_bad.Feasibility.criteria ~perf:20000. ~delay:20000. () in
  let r1 = rkey 1 in
  let f1 = Pred_cache.Key.full ~raw:r1 ~chip ~criteria in
  Pred_cache.add_raw cache r1 [];
  Pred_cache.add_full cache f1
    { Pred_cache.raw = []; feasible_count = 0; kept = [] };
  Pred_cache.add_raw cache (rkey 2) [];
  (* touch only the full entry; its raw parent is now the second-youngest
     stamp, the [rkey 2] stranger the oldest *)
  Alcotest.(check bool) "full hit" true
    (Pred_cache.find_full cache f1 <> None);
  Pred_cache.add_raw cache (rkey 3) [];
  Alcotest.(check bool) "stranger evicted" true
    (Pred_cache.find_raw cache (rkey 2) = None);
  Alcotest.(check bool) "raw parent survived" true
    (Pred_cache.find_raw cache r1 <> None)

(* cheap distinct keys for the capacity-boundary sweep: a three-node graph
   whose width is the distinguishing feature *)
let wkey i =
  let b = Chop_dfg.Graph.builder () in
  let inp = Chop_dfg.Graph.add_node b ~op:Chop_dfg.Op.Input ~width:i in
  let s = Chop_dfg.Graph.add_node b ~op:Chop_dfg.Op.Shift ~width:i in
  let out = Chop_dfg.Graph.add_node b ~op:Chop_dfg.Op.Output ~width:i in
  Chop_dfg.Graph.add_edge b ~src:inp ~dst:s;
  Chop_dfg.Graph.add_edge b ~src:s ~dst:out;
  Pred_cache.Key.raw ~sub:(Chop_dfg.Graph.build b) ~cfg:(Lazy.force test_cfg)
    ~model:Chop.Model.Hardware

let test_cache_eviction_at_default_capacity_boundary () =
  let cap = Pred_cache.default_shared_capacity in
  let cache = Pred_cache.create ~capacity:cap () in
  for i = 1 to cap do
    Pred_cache.add_raw cache (wkey i) []
  done;
  Alcotest.(check int) "full to the brim" cap (Pred_cache.length cache);
  Alcotest.(check int) "no eviction at the boundary" 0
    (Pred_cache.counters cache).Pred_cache.evictions;
  Pred_cache.add_raw cache (wkey (cap + 1)) [];
  Alcotest.(check int) "still bounded" cap (Pred_cache.length cache);
  Alcotest.(check int) "one eviction past the boundary" 1
    (Pred_cache.counters cache).Pred_cache.evictions;
  Alcotest.(check bool) "oldest evicted" true
    (Pred_cache.find_raw cache (wkey 1) = None);
  Alcotest.(check bool) "newest kept" true
    (Pred_cache.find_raw cache (wkey (cap + 1)) <> None)

(* A warm cache answers as a cold one.  ewf, its renumbered twin and ewf
   again share one cache, and each run renders exactly as a cache-off run
   of its spec.  The twin's subgraphs are keyed by their own numbering, so
   it shares no entry with ewf; the second ewf run is served whole. *)
let test_cache_transparent_across_constructions () =
  let cache = Explore.Config.Custom (Pred_cache.create ()) in
  let spec_of graph =
    Rig.custom ~graph
      ~partitioning:(Chop_dfg.Partition.by_levels graph ~k:2)
      ~package:Chop_tech.Mosis.package_84
      ~clocks:
        (Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1
           ~transfer_ratio:1)
      ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle)
      ~criteria:(Chop_bad.Feasibility.criteria ~perf:20000. ~delay:20000. ())
      ()
  in
  let run ~cache spec =
    let r =
      run_with ~cache ~keep_all:true ~heuristic:Explore.Iterative ~jobs:1 spec
    in
    ( r,
      Chop_server.Ops.render_explore spec ~keep_all:true ~csv:false
        ~verbose:false r )
  in
  let g = Chop_dfg.Benchmarks.elliptic_wave_filter () in
  let check name spec =
    let r, text = run ~cache spec in
    Alcotest.(check string) (name ^ ": cache on = cache off")
      (snd (run ~cache:Explore.Config.Off spec))
      text;
    r
  in
  let cold = check "ewf" (spec_of g) in
  Alcotest.(check int) "cold run misses every partition" 2 (misses cold);
  let twin = check "renumbered" (spec_of (Chop_dfg.Transform.renumber g)) in
  Alcotest.(check int) "the twin shares no entry" 2 (misses twin);
  let warm = check "ewf again" (spec_of g) in
  Alcotest.(check int) "the same construction misses nothing" 0 (misses warm)

(* ------------------------------------------------------------------ *)
(* Config and report plumbing *)

let test_config_validation () =
  match Explore.Config.make ~jobs:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "jobs=0 accepted"

let test_report_timing_fields () =
  let r = run_with ~heuristic:Explore.Iterative ~jobs:2 (ar_spec ()) in
  let predict = r.Explore.metrics.Explore.Metrics.predict in
  Alcotest.(check bool) "busy time positive" true
    (predict.Explore.Metrics.busy_seconds > 0.);
  Alcotest.(check bool) "wall time positive" true
    (predict.Explore.Metrics.wall_seconds > 0.);
  Alcotest.(check int) "jobs recorded" 2 r.Explore.jobs

let test_metrics_breakdown () =
  let r = run_with ~heuristic:Explore.Enumeration ~jobs:2 (ar_spec ()) in
  let m = r.Explore.metrics in
  Alcotest.(check bool) "predict wall positive" true
    (m.Explore.Metrics.predict.Explore.Metrics.wall_seconds > 0.);
  Alcotest.(check bool) "predict busy positive" true
    (m.Explore.Metrics.predict.Explore.Metrics.busy_seconds > 0.);
  Alcotest.(check bool) "search wall positive" true
    (m.Explore.Metrics.search.Explore.Metrics.wall_seconds > 0.);
  Alcotest.(check bool) "merge wall non-negative" true
    (m.Explore.Metrics.merge_wall_seconds >= 0.);
  Alcotest.(check bool) "per-worker busy recorded" true
    (Array.length m.Explore.Metrics.worker_busy_seconds >= 1);
  Alcotest.(check bool) "chunks handed out" true
    (m.Explore.Metrics.chunk_count >= 1);
  Alcotest.(check bool) "summary renders" true
    (String.length (Explore.Metrics.summary m) > 0)

(* Every counter [chop explore --stats] prints, and the search's own
   stats, read the same at any jobs value.  Each run starts on an empty
   prediction cache, as a CLI process does. *)
let test_metrics_counters_jobs_independent () =
  List.iter
    (fun (benchmark, heuristic) ->
      let spec =
        Result.get_ok
          (Chop_server.Ops.spec_of_params
             { Chop_server.Protocol.default_params with benchmark;
               partitions = 3; multicycle = true; perf = 20000.;
               delay = 100000. })
      in
      let counters jobs =
        let r =
          run_with ~cache:(Explore.Config.Custom (Pred_cache.create ()))
            ~heuristic ~jobs spec
        in
        let m = r.Explore.metrics and s = r.Explore.outcome.Search.stats in
        Explore.Metrics.
          [ m.cache_hits; m.cache_misses; m.pruned_impls;
            m.integrations_avoided ]
        @ Search.
            [ s.implementation_trials; s.integrations; s.integrations_avoided;
              s.feasible_trials ]
      in
      Alcotest.(check (list int))
        (Format.asprintf "%s k=3 %a" benchmark Explore.pp_heuristic heuristic)
        (counters 1) (counters 4))
    [ ("ewf", Explore.Enumeration); ("ewf", Explore.Branch_bound);
      ("pcm_pwm", Explore.Enumeration); ("pcm_pwm", Explore.Branch_bound) ]

let test_metrics_iterative_sequential () =
  (* the iterative scan is sequential: its busy time is its wall time *)
  let r = run_with ~heuristic:Explore.Iterative ~jobs:1 (ar_spec ()) in
  let s = r.Explore.metrics.Explore.Metrics.search in
  Alcotest.(check (float 1e-9)) "iterative busy = wall"
    s.Explore.Metrics.wall_seconds s.Explore.Metrics.busy_seconds

let test_metrics_cache_evictions () =
  (* a one-entry cache cannot hold both layers of even one partition, so
     the run must record evictions; an unbounded cache must record none *)
  let tight = Pred_cache.create ~capacity:1 () in
  let r =
    run_with ~cache:(Explore.Config.Custom tight)
      ~heuristic:Explore.Iterative ~jobs:1 (ar_spec ())
  in
  Alcotest.(check bool) "evictions recorded" true
    (r.Explore.metrics.Explore.Metrics.cache_evictions > 0);
  let roomy = Pred_cache.create () in
  let r2 =
    run_with ~cache:(Explore.Config.Custom roomy)
      ~heuristic:Explore.Iterative ~jobs:1 (ar_spec ())
  in
  Alcotest.(check int) "no evictions when unbounded" 0
    r2.Explore.metrics.Explore.Metrics.cache_evictions;
  Alcotest.(check int) "counters agree" (Pred_cache.counters tight).evictions
    r.Explore.metrics.Explore.Metrics.cache_evictions

let test_run_interruptible_cancels () =
  let spec = ar_spec () in
  Explore.with_engine Explore.Config.default spec @@ fun engine ->
  Alcotest.check_raises "immediate interrupt" Explore.Cancelled (fun () ->
      ignore (Explore.Session.run_interruptible ~interrupt:(fun () -> true)
                engine));
  (* a cancelled engine is not poisoned: the next run completes *)
  let r = Explore.Session.run engine in
  Alcotest.(check bool) "engine survives cancellation" true
    (r.Explore.outcome.Search.stats.Search.implementation_trials > 0);
  (* and a never-firing interrupt changes nothing *)
  let r2 =
    Explore.Session.run_interruptible ~interrupt:(fun () -> false) engine
  in
  Alcotest.(check string) "uninterrupted run matches"
    (Search.to_csv r.Explore.outcome.Search.feasible)
    (Search.to_csv r2.Explore.outcome.Search.feasible)

let test_engine_predictions_match_legacy () =
  let spec = ar_spec () in
  Explore.with_engine Explore.Config.default spec @@ fun engine ->
  let per_new, stats_new = Explore.Session.predictions engine in
  let per_old, stats_old =
    (* an uncached parallel engine must agree with the default one *)
    Explore.with_engine
      (Explore.Config.make ~jobs:4 ~cache:Explore.Config.Off ())
      spec Explore.Session.predictions
  in
  Alcotest.(check (list string)) "labels"
    (List.map fst per_old) (List.map fst per_new);
  List.iter2
    (fun (_, old_preds) (_, new_preds) ->
      Alcotest.(check int) "prediction count" (List.length old_preds)
        (List.length new_preds))
    per_old per_new;
  List.iter2
    (fun (a : Explore.bad_stats) (b : Explore.bad_stats) ->
      Alcotest.(check int) "total" a.Explore.total_predictions
        b.Explore.total_predictions;
      Alcotest.(check int) "kept" a.Explore.kept b.Explore.kept)
    stats_old stats_new

(* ------------------------------------------------------------------ *)
(* Session forks and speculative evaluation *)

let feasible_csv (r : Explore.report) =
  Search.to_csv r.Explore.outcome.Search.feasible

(* one legal single-op move on the spec's seed partitioning *)
let legal_move spec =
  let pg = spec.Spec.partitioning in
  let labels =
    List.map (fun (p : Chop_dfg.Partition.t) -> p.Chop_dfg.Partition.label)
      pg.Chop_dfg.Partition.parts
  in
  List.concat_map
    (fun (p : Chop_dfg.Partition.t) ->
      List.map
        (fun m -> (m, p.Chop_dfg.Partition.label))
        p.Chop_dfg.Partition.members)
    pg.Chop_dfg.Partition.parts
  |> List.find_map (fun (op, cur) ->
         List.find_map
           (fun l ->
             if String.equal l cur then None
             else
               match Chop_dfg.Partition.move_op pg ~op ~to_:l with
               | Ok _ -> Some (op, l)
               | Error _ -> None)
           labels)
  |> Option.get

let test_fork_isolates_parent () =
  let spec = ar_spec () in
  let cache = Pred_cache.create () in
  let config = Explore.Config.make ~cache:(Explore.Config.Custom cache) () in
  Explore.with_engine config spec @@ fun s ->
  ignore (Explore.Session.run s);
  let rev = Explore.Session.revision s in
  let op, to_ = legal_move spec in
  let fork = Explore.Session.fork s in
  (match Explore.Session.edit fork [ Spec.Move_op { op; to_partition = to_ } ]
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "fork edit rejected");
  let fr = Explore.Session.run fork in
  (* the fork moved on; the parent saw none of it *)
  Alcotest.(check int) "parent revision unchanged" rev
    (Explore.Session.revision s);
  Alcotest.(check (list string)) "parent dirty set clean" []
    (Explore.Session.pending_dirty s);
  Alcotest.(check string) "parent still owns the op"
    (Chop_dfg.Partition.part_of spec.Spec.partitioning op)
      .Chop_dfg.Partition.label
    (Chop_dfg.Partition.part_of
       (Explore.Session.spec s).Spec.partitioning op)
      .Chop_dfg.Partition.label;
  (* committing the same edit on the parent re-serves the fork's
     predictions: no new cache misses *)
  (match Explore.Session.edit s [ Spec.Move_op { op; to_partition = to_ } ]
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "parent edit rejected");
  let m0 = (Pred_cache.counters cache).misses in
  let r = Explore.Session.run s in
  Alcotest.(check int) "commit run is all cache hits" m0
    (Pred_cache.counters cache).misses;
  Alcotest.(check string) "fork and commit agree" (feasible_csv fr)
    (feasible_csv r)

let test_speculate_exception_drains () =
  let spec = ar_spec () in
  let pool = Chop_util.Pool.create ~oversubscribe:true ~jobs:4 () in
  Fun.protect ~finally:(fun () -> Chop_util.Pool.shutdown pool) @@ fun () ->
  Explore.with_engine ~pool Explore.Config.default spec @@ fun s ->
  let baseline = feasible_csv (Explore.Session.run s) in
  let rev = Explore.Session.revision s in
  (match
     Explore.Session.speculate s
       [|
         (fun f -> feasible_csv (Explore.Session.run f));
         (fun _ -> failwith "boom");
         (fun f -> feasible_csv (Explore.Session.run f));
       |]
   with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure m -> Alcotest.(check string) "first error" "boom" m);
  (* the session was never touched and neither it nor the pool is
     poisoned: both serve the next batch *)
  Alcotest.(check int) "revision unchanged" rev (Explore.Session.revision s);
  let results, _ =
    Explore.Session.speculate s
      [| (fun f -> feasible_csv (Explore.Session.run f)) |]
  in
  Alcotest.(check string) "pool reusable, fork agrees" baseline results.(0);
  Alcotest.(check string) "session run unchanged" baseline
    (feasible_csv (Explore.Session.run s))

(* Parallel speculative predictions over one shared cache: the global
   counters are mutex-protected and the per-run counts are collected
   locally by each run, so the deltas must sum exactly — no lost updates
   under concurrent writers.  One session warms the cache; the probes fork
   a second session on the same spec that has not run, so every label is
   pending and each probe really looks every partition up (forks of a
   session that has run serve its carried entries instead). *)
let test_pred_cache_concurrent_counters () =
  let cache = Pred_cache.create () in
  let config = Explore.Config.make ~cache:(Explore.Config.Custom cache) () in
  let pool = Chop_util.Pool.create ~oversubscribe:true ~jobs:4 () in
  Fun.protect ~finally:(fun () -> Chop_util.Pool.shutdown pool) @@ fun () ->
  let spec = ar_spec () in
  Explore.with_engine ~pool config spec (fun warm ->
      ignore (Explore.Session.run warm));
  Explore.with_engine ~pool config spec @@ fun s ->
  let c0 = Pred_cache.counters cache in
  let n = 16 in
  let results, _ =
    Explore.Session.speculate s
      (Array.init n (fun _ f ->
           let r = Explore.Session.run f in
           (hits r, misses r)))
  in
  let c1 = Pred_cache.counters cache in
  let sum_hits = Array.fold_left (fun a (h, _) -> a + h) 0 results in
  let sum_misses = Array.fold_left (fun a (_, m) -> a + m) 0 results in
  Alcotest.(check bool) "every run was served" true (sum_hits > 0);
  Alcotest.(check int) "warm runs miss nothing" 0 sum_misses;
  Alcotest.(check int) "hit counter sums exactly" sum_hits (c1.hits - c0.hits);
  Alcotest.(check int) "miss counter sums exactly" 0 (c1.misses - c0.misses)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "chop_engine"
    [
      ( "determinism",
        [
          tc "ar enumeration" `Quick
            (check_determinism ~heuristic:Explore.Enumeration ~keep_all:false
               ar_spec);
          tc "ar branch-bound keep-all" `Quick
            (check_determinism ~heuristic:Explore.Branch_bound ~keep_all:true
               ar_spec);
          tc "ewf enumeration keep-all" `Quick
            (check_determinism ~heuristic:Explore.Enumeration ~keep_all:true
               ewf_spec);
          tc "ewf branch-bound" `Quick
            (check_determinism ~heuristic:Explore.Branch_bound ~keep_all:false
               ewf_spec);
          tc "ar matches legacy API" `Quick
            (check_matches_legacy ~heuristic:Explore.Enumeration ar_spec);
          tc "ewf matches legacy API" `Quick
            (check_matches_legacy ~heuristic:Explore.Branch_bound ewf_spec);
          tc "feasible trials hand-counted (jobs 1)" `Quick
            (check_feasible_trials_hand_count ~jobs:1);
          tc "feasible trials hand-counted (jobs 4)" `Quick
            (check_feasible_trials_hand_count ~jobs:4);
        ] );
      ( "lifecycle",
        [
          tc "close is idempotent" `Quick test_close_idempotent;
          tc "run after close raises" `Quick test_run_after_close_raises;
          tc "with_engine closes on raise" `Quick
            test_with_engine_closes_on_raise;
          tc "engine reusable across runs" `Quick test_engine_reuse_after_runs;
        ] );
      ( "cache",
        [
          tc "second run hits 100%" `Quick test_cache_second_run_hits;
          tc "cached equals uncached" `Quick test_cache_matches_uncached;
          tc "raw layer survives criteria change" `Quick
            test_cache_raw_layer_survives_criteria_change;
          tc "relabels shared predictions" `Quick
            test_cache_relabels_predictions;
          tc "capacity evicts LRU" `Quick test_cache_capacity_evicts_lru;
          tc "shared cache is bounded" `Quick test_shared_cache_is_bounded;
          tc "full hit refreshes raw parent" `Quick
            test_cache_full_hit_refreshes_raw_parent;
          tc "eviction at default capacity boundary" `Quick
            test_cache_eviction_at_default_capacity_boundary;
          tc "on equals off across constructions" `Quick
            test_cache_transparent_across_constructions;
        ] );
      ( "config",
        [
          tc "validation" `Quick test_config_validation;
          tc "report timing fields" `Quick test_report_timing_fields;
          tc "metrics breakdown" `Quick test_metrics_breakdown;
          tc "counters independent of jobs" `Quick
            test_metrics_counters_jobs_independent;
          tc "iterative search is sequential" `Quick
            test_metrics_iterative_sequential;
          tc "cache evictions metric" `Quick test_metrics_cache_evictions;
          tc "run_interruptible cancels" `Quick test_run_interruptible_cancels;
          tc "predictions match legacy" `Quick
            test_engine_predictions_match_legacy;
        ] );
      ( "speculation",
        [
          tc "fork isolates the parent" `Quick test_fork_isolates_parent;
          tc "speculate exception drains clean" `Quick
            test_speculate_exception_drains;
          tc "shared-cache counters sum exactly" `Quick
            test_pred_cache_concurrent_counters;
        ] );
    ]
