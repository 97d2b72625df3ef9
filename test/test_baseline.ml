(* Tests for chop_baseline: Kernighan-Lin bipartitioning and automatic
   partition generation. *)

open Chop_baseline

(* one-shot helper over a fresh session (the deprecated wrapper is gone) *)
let explore_run heuristic spec =
  Chop.Explore.with_engine
    (Chop.Explore.Config.make ~heuristic ())
    spec Chop.Explore.Session.run


let ar () = Chop_dfg.Benchmarks.ar_lattice_filter ()

let test_cut_bits_manual () =
  let g = ar () in
  let pg = Chop_dfg.Partition.by_levels g ~k:2 in
  let p1 = Chop_dfg.Partition.find pg "P1" in
  let in_a id = List.mem id p1.Chop_dfg.Partition.members in
  let cut = Kl.cut_bits g ~in_a in
  Alcotest.(check bool) "positive cut" true (cut > 0);
  (* values are 16 bit: the cut is a multiple of 16 *)
  Alcotest.(check int) "16-bit aligned" 0 (cut mod 16)

let test_bipartition_balanced () =
  let r = Kl.bipartition ~seed:1 (ar ()) in
  let na = List.length r.Kl.side_a and nb = List.length r.Kl.side_b in
  Alcotest.(check int) "covers all" 28 (na + nb);
  Alcotest.(check bool) "balanced" true (abs (na - nb) <= 2);
  Alcotest.(check bool) "ran at least one pass" true (r.Kl.passes >= 1)

let test_bipartition_improves_on_random () =
  let g = ar () in
  (* KL's result should not be worse than a naive topological halving *)
  let naive =
    let ops = List.map (fun n -> n.Chop_dfg.Graph.id) (Chop_dfg.Graph.operations g) in
    let half = List.length ops / 2 in
    let a = Chop_util.Listx.take half ops in
    Kl.cut_bits g ~in_a:(fun id -> List.mem id a)
  in
  let r = Kl.bipartition ~seed:3 g in
  Alcotest.(check bool) "kl <= naive" true (r.Kl.cut_bits <= naive)

let test_bipartition_tiny_graph () =
  let b = Chop_dfg.Graph.builder () in
  let i = Chop_dfg.Graph.add_node b ~op:Chop_dfg.Op.Input ~width:8 in
  let x = Chop_dfg.Graph.add_node b ~op:Chop_dfg.Op.Shift ~width:8 in
  Chop_dfg.Graph.add_edge b ~src:i ~dst:x;
  let g = Chop_dfg.Graph.build b in
  let r = Kl.bipartition ~seed:0 g in
  Alcotest.(check int) "single op stays" 1
    (List.length r.Kl.side_a + List.length r.Kl.side_b)

let test_legalize_makes_quotient_acyclic () =
  let g = ar () in
  let r = Kl.bipartition ~seed:5 g in
  let a, b = Kl.legalize g r.Kl.side_a r.Kl.side_b in
  (* no edge may run from B back to A *)
  List.iter
    (fun (src, dst) ->
      if List.mem src b && List.mem dst a then Alcotest.fail "back edge survived")
    (Chop_dfg.Graph.edges g);
  Alcotest.(check int) "coverage preserved" 28 (List.length a + List.length b)

let test_legalize_builds_valid_partitioning () =
  let g = ar () in
  let r = Kl.bipartition ~seed:7 g in
  let a, b = Kl.legalize g r.Kl.side_a r.Kl.side_b in
  if a <> [] && b <> [] then begin
    let pg =
      Chop_dfg.Partition.partitioning g
        [ Chop_dfg.Partition.make ~label:"A" a; Chop_dfg.Partition.make ~label:"B" b ]
    in
    Alcotest.(check int) "two parts" 2 (List.length pg.Chop_dfg.Partition.parts)
  end

let kl_deterministic =
  QCheck.Test.make ~name:"kl is deterministic per seed" ~count:20
    QCheck.(pair (10 -- 40) (0 -- 100))
    (fun (ops, seed) ->
      let g = Chop_dfg.Benchmarks.random_dag ~ops ~seed:(ops + seed) () in
      let a = Kl.bipartition ~seed g and b = Kl.bipartition ~seed g in
      a.Kl.cut_bits = b.Kl.cut_bits && a.Kl.side_a = b.Kl.side_a)

let legalize_preserves_nodes =
  QCheck.Test.make ~name:"legalize preserves node sets" ~count:30
    QCheck.(pair (10 -- 40) (0 -- 100))
    (fun (ops, seed) ->
      let g = Chop_dfg.Benchmarks.random_dag ~ops ~seed:(ops * 7 + seed) () in
      let r = Kl.bipartition ~seed g in
      let a, b = Kl.legalize g r.Kl.side_a r.Kl.side_b in
      List.sort Int.compare (a @ b)
      = List.sort Int.compare (r.Kl.side_a @ r.Kl.side_b))

(* ------------------------------------------------------------------ *)
(* Autopart *)

let test_autopart_levels () =
  let pg = Autopart.generate (ar ()) ~k:3 Autopart.Levels in
  Alcotest.(check int) "3 parts" 3 (List.length pg.Chop_dfg.Partition.parts)

let test_autopart_min_cut () =
  let pg = Autopart.generate (ar ()) ~k:2 (Autopart.Min_cut 11) in
  (* legalization may merge, but the topological top-up restores k *)
  Alcotest.(check int) "exactly 2 parts" 2
    (List.length pg.Chop_dfg.Partition.parts);
  Alcotest.(check int) "covers all" 28
    (Chop_util.Listx.sum_by
       (fun p -> List.length p.Chop_dfg.Partition.members)
       pg.Chop_dfg.Partition.parts)

let test_autopart_random () =
  let pg = Autopart.generate (ar ()) ~k:4 (Autopart.Random_balanced 3) in
  Alcotest.(check int) "covers all" 28
    (Chop_util.Listx.sum_by
       (fun p -> List.length p.Chop_dfg.Partition.members)
       pg.Chop_dfg.Partition.parts)

let test_autopart_validates () =
  (match Autopart.generate (ar ()) ~k:0 Autopart.Levels with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k=0 accepted");
  match Autopart.generate (ar ()) ~k:100 Autopart.Levels with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k>ops accepted"

let test_strategy_names () =
  Alcotest.(check string) "levels" "levels" (Autopart.strategy_name Autopart.Levels);
  Alcotest.(check string) "min-cut" "min-cut" (Autopart.strategy_name (Autopart.Min_cut 0));
  Alcotest.(check string) "random" "random"
    (Autopart.strategy_name (Autopart.Random_balanced 0))

let autopart_always_valid =
  QCheck.Test.make ~name:"autopart strategies yield valid partitionings"
    ~count:40
    QCheck.(triple (10 -- 50) (0 -- 100) (1 -- 4))
    (fun (ops, seed, k) ->
      let g = Chop_dfg.Benchmarks.random_dag ~ops ~seed () in
      let levels = List.length (Chop_dfg.Analysis.levels g) in
      let k = max 1 (min k (min levels (ops / 2))) in
      List.for_all
        (fun strategy ->
          let pg = Autopart.generate g ~k strategy in
          Chop_util.Listx.sum_by
            (fun p -> List.length p.Chop_dfg.Partition.members)
            pg.Chop_dfg.Partition.parts
          = ops)
        [ Autopart.Levels; Autopart.Min_cut seed; Autopart.Random_balanced seed ])

(* min-cut does not imply feasibility: the paper's core argument. *)
let test_min_cut_not_feasibility () =
  let g = ar () in
  let cut_of pg = Chop_dfg.Partition.cut_bits_total pg in
  let levels = Autopart.generate g ~k:2 Autopart.Levels in
  let kl = Autopart.generate g ~k:2 (Autopart.Min_cut 1) in
  (* whatever the cut ordering, CHOP's feasibility judgement is about areas
     and rates, not cut bits; verify both partitionings even evaluate *)
  let feasible pg =
    if List.length pg.Chop_dfg.Partition.parts < 2 then false
    else begin
      let spec =
        Chop.Rig.custom ~graph:g ~partitioning:pg
          ~package:Chop_tech.Mosis.package_84
          ~clocks:(Chop_tech.Clocking.make ~main:300. ~datapath_ratio:10 ~transfer_ratio:1)
          ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle)
          ~criteria:(Chop_bad.Feasibility.criteria ~perf:30000. ~delay:30000. ())
          ()
      in
      (explore_run Chop.Explore.Iterative spec).Chop.Explore.outcome
        .Chop.Search.feasible
      <> []
    end
  in
  ignore (cut_of levels, cut_of kl);
  Alcotest.(check bool) "level cut is feasible" true (feasible levels)

(* ------------------------------------------------------------------ *)
(* Autosearch *)

let autosearch_run ?(perf = 30000.) () =
  Autosearch.run ~max_partitions:3
    ~graph:(ar ())
    ~package:Chop_tech.Mosis.package_84
    ~clocks:(Chop_tech.Clocking.make ~main:300. ~datapath_ratio:10 ~transfer_ratio:1)
    ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle)
    ~criteria:(Chop_bad.Feasibility.criteria ~perf ~delay:perf ())
    ()

let test_autosearch_finds_feasible () =
  let candidates = autosearch_run () in
  Alcotest.(check bool) "evaluated several" true (List.length candidates >= 3);
  match Autosearch.best candidates with
  | None -> Alcotest.fail "expected a feasible candidate"
  | Some c ->
      Alcotest.(check bool) "feasible" true c.Autosearch.judgement.Chop.Advisor.feasible;
      Alcotest.(check bool) "describe text" true
        (String.length (Autosearch.describe c) > 10)

let test_autosearch_ranking () =
  let candidates = autosearch_run () in
  (* feasible candidates come before infeasible ones, sorted by perf *)
  let rec check_order seen_infeasible = function
    | [] -> true
    | c :: rest ->
        let feas = c.Autosearch.judgement.Chop.Advisor.feasible in
        if feas && seen_infeasible then false
        else check_order (seen_infeasible || not feas) rest
  in
  Alcotest.(check bool) "feasible first" true (check_order false candidates)

let test_autosearch_infeasible_constraints () =
  let candidates = autosearch_run ~perf:500. () in
  Alcotest.(check bool) "nothing feasible at 500 ns" true
    (Autosearch.best candidates = None)

let test_autosearch_cost () =
  let candidates = autosearch_run () in
  List.iter
    (fun c ->
      Alcotest.(check bool) "cost positive" true (c.Autosearch.chip_set_cost > 0.);
      (* cost is proportional to the chip count for a uniform package *)
      let per_chip = c.Autosearch.chip_set_cost /. float_of_int c.Autosearch.partitions in
      Alcotest.(check bool) "uniform per-chip cost" true
        (per_chip > 5. && per_chip < 200.))
    candidates;
  match Autosearch.cheapest candidates with
  | None -> Alcotest.fail "expected a cheapest feasible candidate"
  | Some c ->
      (* no feasible candidate is cheaper *)
      List.iter
        (fun other ->
          if other.Autosearch.judgement.Chop.Advisor.feasible then
            Alcotest.(check bool) "cheapest" true
              (c.Autosearch.chip_set_cost <= other.Autosearch.chip_set_cost))
        candidates

let test_autosearch_validates () =
  match autosearch_run () with
  | _ -> (
      match
        Autosearch.run ~max_partitions:0 ~graph:(ar ())
          ~package:Chop_tech.Mosis.package_84
          ~clocks:(Chop_tech.Clocking.make ~main:300. ~datapath_ratio:10 ~transfer_ratio:1)
          ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle)
          ~criteria:(Chop_bad.Feasibility.criteria ~perf:30000. ~delay:30000. ())
          ()
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "max_partitions 0 accepted")

(* ------------------------------------------------------------------ *)
(* Packing *)

let test_packing_reduces_chips () =
  let spec = Chop.Rig.experiment1 ~partitions:3 () in
  let packed = Packing.pack spec ~chips:2 in
  Alcotest.(check int) "two chips" 2 (List.length packed.Chop.Spec.chips);
  Alcotest.(check int) "all partitions assigned" 3
    (List.length packed.Chop.Spec.assignment);
  (* both chips carry something *)
  let on chip =
    List.length (List.filter (fun (_, c) -> c = chip) packed.Chop.Spec.assignment)
  in
  Alcotest.(check bool) "no empty chip" true (on "chip1" >= 1 && on "chip2" >= 1)

let test_packing_balances_area () =
  let spec = Chop.Rig.experiment1 ~partitions:3 () in
  let packed = Packing.pack spec ~chips:2 in
  let load chip =
    List.filter (fun (_, c) -> c = chip) packed.Chop.Spec.assignment
    |> Chop_util.Listx.sum_byf (fun (label, _) ->
           Packing.min_area_estimate packed ~label)
  in
  let l1 = load "chip1" and l2 = load "chip2" in
  (* first-fit decreasing keeps the imbalance below one largest item *)
  let largest =
    List.fold_left
      (fun acc p ->
        Float.max acc
          (Packing.min_area_estimate packed ~label:p.Chop_dfg.Partition.label))
      0. packed.Chop.Spec.partitioning.Chop_dfg.Partition.parts
  in
  Alcotest.(check bool) "balanced" true (Float.abs (l1 -. l2) <= largest +. 1.)

let test_packing_explorable () =
  (* the packed spec still runs the whole pipeline; on-chip flows are free *)
  let spec = Chop.Rig.experiment1 ~partitions:3 () in
  let packed = Packing.pack spec ~chips:2 in
  let report = explore_run Chop.Explore.Iterative packed in
  Alcotest.(check bool) "produces a verdict" true
    (report.Chop.Explore.bad <> [])

let test_packing_validates () =
  let spec = Chop.Rig.experiment1 ~partitions:2 () in
  (match Packing.pack spec ~chips:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 chips accepted");
  match Packing.pack spec ~chips:5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "more chips than partitions accepted"

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "chop_baseline"
    [
      ( "kl",
        [
          tc "cut bits" `Quick test_cut_bits_manual;
          tc "balanced" `Quick test_bipartition_balanced;
          tc "improves on naive" `Quick test_bipartition_improves_on_random;
          tc "tiny graph" `Quick test_bipartition_tiny_graph;
          tc "legalize acyclic" `Quick test_legalize_makes_quotient_acyclic;
          tc "legalize valid partitioning" `Quick test_legalize_builds_valid_partitioning;
          QCheck_alcotest.to_alcotest kl_deterministic;
          QCheck_alcotest.to_alcotest legalize_preserves_nodes;
        ] );
      ( "autopart",
        [
          tc "levels" `Quick test_autopart_levels;
          tc "min-cut" `Quick test_autopart_min_cut;
          tc "random" `Quick test_autopart_random;
          tc "validates" `Quick test_autopart_validates;
          tc "strategy names" `Quick test_strategy_names;
          QCheck_alcotest.to_alcotest autopart_always_valid;
        ] );
      ( "autosearch",
        [
          tc "finds feasible" `Quick test_autosearch_finds_feasible;
          tc "ranking" `Quick test_autosearch_ranking;
          tc "infeasible constraints" `Quick test_autosearch_infeasible_constraints;
          tc "validates" `Quick test_autosearch_validates;
          tc "cost model" `Quick test_autosearch_cost;
        ] );
      ( "packing",
        [
          tc "reduces chips" `Quick test_packing_reduces_chips;
          tc "balances area" `Quick test_packing_balances_area;
          tc "explorable" `Quick test_packing_explorable;
          tc "validates" `Quick test_packing_validates;
        ] );
      ( "paper-argument",
        [ tc "min-cut is not feasibility" `Quick test_min_cut_not_feasibility ] );
    ]
