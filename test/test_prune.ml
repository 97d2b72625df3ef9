(* Dominance pre-pruning: the proof obligations of lib/core/prune.ml.

   The pruning invariant is that dropping an implementation dominated by an
   interchangeable sibling (same style / initiation interval / latency /
   memory-bandwidth signature) cannot change the best feasible design, the
   feasible Pareto front, or any feasibility verdict of the combination
   search.  These tests check the invariant three ways: unit tests on
   Pareto.reduce, benchmark-level agreement of pre-pruned vs exhaustive
   searches, and a randomized property over generated specifications. *)

open Chop
open Chop_util

(* ------------------------------------------------------------------ *)
(* Pareto.reduce *)

let test_reduce_drops_dominated () =
  let kept, dropped =
    Pareto.reduce ~objectives:(fun x -> x) [ [| 1.; 1. |]; [| 2.; 2. |] ]
  in
  Alcotest.(check int) "dropped" 1 dropped;
  Alcotest.(check int) "kept" 1 (List.length kept);
  Alcotest.(check bool) "kept the dominant" true (List.hd kept = [| 1.; 1. |])

let test_reduce_collapses_ties () =
  (* frontier keeps both copies of a tied vector; reduce keeps only the
     first occurrence *)
  let tied = [ [| 1.; 2. |]; [| 2.; 1. |]; [| 1.; 2. |] ] in
  let front = Pareto.frontier ~objectives:(fun x -> x) tied in
  Alcotest.(check int) "frontier keeps ties" 3 (List.length front);
  let kept, dropped = Pareto.reduce ~objectives:(fun x -> x) tied in
  Alcotest.(check int) "reduce collapses ties" 2 (List.length kept);
  Alcotest.(check int) "one tie dropped" 1 dropped

let test_reduce_preserves_order () =
  let xs = [ [| 3.; 1. |]; [| 1.; 3. |]; [| 2.; 2. |] ] in
  let kept, dropped = Pareto.reduce ~objectives:(fun x -> x) xs in
  Alcotest.(check int) "nothing dominated" 0 dropped;
  Alcotest.(check bool) "original order" true (kept = xs)

let test_reduce_counts =
  QCheck.Test.make ~name:"reduce: kept + dropped = total, kept undominated"
    ~count:100
    QCheck.(list_of_size Gen.(0 -- 20) (pair (0 -- 5) (0 -- 5)))
    (fun pts ->
      let xs = List.map (fun (a, b) -> [| float a; float b |]) pts in
      let kept, dropped = Pareto.reduce ~objectives:(fun x -> x) xs in
      List.length kept + dropped = List.length xs
      && List.for_all
           (fun k ->
             not (List.exists (fun o -> o != k && Pareto.dominates o k) kept))
           kept)

(* ------------------------------------------------------------------ *)
(* Prune.per_partition bookkeeping on real prediction lists *)

let engine_run ~heuristic ~pre_prune spec =
  Explore.with_engine
    (Explore.Config.make ~heuristic ~pre_prune ~cache:Explore.Config.Off ())
    spec Explore.Session.run

let engine_predictions spec =
  Explore.with_engine
    (Explore.Config.make ~cache:Explore.Config.Off ())
    spec Explore.Session.predictions

let test_prune_bookkeeping () =
  let spec =
    Rig.experiment1 ~partitions:2
      ~params:{ Spec.default_params with discard_inferior = false }
      ()
  in
  (* first-level pruning off: dominance pruning should then have work to
     do on AR (the keep-all search path feeds it exactly these lists) *)
  let per_partition, _ = engine_predictions spec in
  let kept, dropped =
    Prune.per_partition ~clocks:spec.Spec.clocks per_partition
  in
  let count lists = Listx.sum_by (fun (_, ps) -> List.length ps) lists in
  Alcotest.(check int) "kept + dropped = total"
    (count per_partition)
    (count kept + dropped);
  Alcotest.(check bool) "something was pruned on AR" true (dropped > 0);
  List.iter2
    (fun (label, orig) (label', remaining) ->
      Alcotest.(check string) "labels aligned" label label';
      (* every kept implementation is one of the originals, in order *)
      let rec subsequence xs ys =
        match (xs, ys) with
        | [], _ -> true
        | _, [] -> false
        | x :: xs', y :: ys' ->
            if x == y then subsequence xs' ys' else subsequence xs ys'
      in
      Alcotest.(check bool)
        (label ^ ": kept is a subsequence")
        true
        (subsequence remaining orig))
    per_partition kept

(* ------------------------------------------------------------------ *)
(* Benchmark-level agreement: the search sees the same feasible front,
   the same best design and the same verdict with pruning on or off *)

let multi_cycle_spec ?(perf = 20000.) ?(delay = 20000.) graph ~k =
  let partitioning =
    if k = 1 then Chop_dfg.Partition.whole graph
    else Chop_dfg.Partition.by_levels graph ~k
  in
  Rig.custom ~graph ~partitioning ~package:Chop_tech.Mosis.package_84
    ~clocks:
      (Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1 ~transfer_ratio:1)
    ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle)
    ~criteria:(Chop_bad.Feasibility.criteria ~perf ~delay ())
    ()

let agreement_specs () =
  [
    ("ewf", multi_cycle_spec (Chop_dfg.Benchmarks.elliptic_wave_filter ()) ~k:2);
    ("ar", Rig.experiment1 ~partitions:2 ());
    ( "fir8",
      multi_cycle_spec
        (Chop_dfg.Benchmarks.fir_filter ~taps:8 ())
        ~k:2 ~perf:30000. ~delay:30000. );
    ( "diffeq",
      multi_cycle_spec (Chop_dfg.Benchmarks.diffeq ()) ~k:2 ~perf:30000.
        ~delay:30000. );
  ]

let check_agreement name heuristic spec =
  let pruned = engine_run ~heuristic ~pre_prune:true spec in
  let full = engine_run ~heuristic ~pre_prune:false spec in
  let front r = Search.to_csv r.Explore.outcome.Search.feasible in
  Alcotest.(check string)
    (name ^ ": identical feasible Pareto front")
    (front full) (front pruned);
  Alcotest.(check bool)
    (name ^ ": identical feasibility verdict")
    (full.Explore.outcome.Search.feasible <> [])
    (pruned.Explore.outcome.Search.feasible <> []);
  let trials r =
    r.Explore.outcome.Search.stats.Search.implementation_trials
  in
  Alcotest.(check bool)
    (name ^ ": pruning never adds work")
    true
    (trials pruned <= trials full);
  Alcotest.(check bool)
    (name ^ ": pruned count reported")
    true
    (pruned.Explore.metrics.Explore.Metrics.pruned_impls >= 0
    && full.Explore.metrics.Explore.Metrics.pruned_impls = 0)

let test_agreement_enumeration () =
  List.iter
    (fun (name, spec) -> check_agreement name Explore.Enumeration spec)
    (agreement_specs ())

let test_agreement_branch_bound () =
  check_agreement "ar" Explore.Branch_bound (Rig.experiment1 ~partitions:2 ())

(* ------------------------------------------------------------------ *)
(* quick_check soundness: a combination rejected without integration must
   genuinely integrate to an infeasible system *)

let test_quick_check_sound () =
  let rejected = ref 0 in
  (* the 2-partition walk rejects nothing; the 3-partition one does *)
  List.iter
    (fun partitions ->
      let spec = Rig.experiment1 ~partitions () in
      let per_partition, _ = engine_predictions spec in
      let ctx = Integration.context spec in
      let cache = Integration.cache ctx in
      let rec walk acc = function
        | [] ->
            let comb = List.rev acc in
            if Integration.quick_check cache comb then begin
              incr rejected;
              Alcotest.(check bool) "quick_check rejection is infeasible" false
                (Integration.feasible (Integration.integrate_cached cache comb))
            end
        | (label, preds) :: rest ->
            (* sample the head/middle/last picks to keep the walk small *)
            let n = List.length preds in
            List.iter
              (fun i -> walk ((label, List.nth preds i) :: acc) rest)
              (List.sort_uniq compare [ 0; n / 2; n - 1 ])
      in
      walk [] per_partition)
    [ 2; 3 ];
  Alcotest.(check bool) "exercised at least one rejection" true (!rejected > 0)

(* ------------------------------------------------------------------ *)
(* Randomized property: on generated specs, pre-pruning changes neither
   the feasible front nor any verdict *)

let prune_agreement_random =
  QCheck.Test.make ~name:"pre-pruning preserves the feasible front" ~count:8
    QCheck.(pair (12 -- 32) (0 -- 1000))
    (fun (ops, seed) ->
      let graph = Chop_dfg.Benchmarks.random_dag ~ops ~seed () in
      let k = 1 + (seed mod 3) in
      let spec = multi_cycle_spec graph ~k ~perf:100000. ~delay:100000. in
      let pruned = engine_run ~heuristic:Explore.Enumeration ~pre_prune:true spec in
      let full = engine_run ~heuristic:Explore.Enumeration ~pre_prune:false spec in
      Search.to_csv pruned.Explore.outcome.Search.feasible
      = Search.to_csv full.Explore.outcome.Search.feasible
      && (pruned.Explore.outcome.Search.feasible <> [])
         = (full.Explore.outcome.Search.feasible <> []))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "chop_prune"
    [
      ( "pareto",
        [
          Alcotest.test_case "reduce drops dominated" `Quick
            test_reduce_drops_dominated;
          Alcotest.test_case "reduce collapses ties" `Quick
            test_reduce_collapses_ties;
          Alcotest.test_case "reduce preserves order" `Quick
            test_reduce_preserves_order;
          QCheck_alcotest.to_alcotest test_reduce_counts;
        ] );
      ( "prune",
        [
          Alcotest.test_case "per-partition bookkeeping" `Quick
            test_prune_bookkeeping;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "benchmarks, enumeration" `Quick
            test_agreement_enumeration;
          Alcotest.test_case "ar, branch-and-bound" `Quick
            test_agreement_branch_bound;
          Alcotest.test_case "quick_check soundness" `Quick
            test_quick_check_sound;
          QCheck_alcotest.to_alcotest prune_agreement_random;
        ] );
    ]
