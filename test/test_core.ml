(* Tests for the CHOP core: specification validation, data-transfer task
   creation, system integration, the two search heuristics, the exploration
   driver, reports and the advisor. *)

open Chop

(* one-shot helpers over a fresh session — the pre-engine
   [Explore.run]/[Explore.predictions] wrappers are gone *)
let explore_run ?keep_all heuristic spec =
  Explore.with_engine
    (Explore.Config.make ~heuristic ?keep_all ())
    spec Explore.Session.run

let explore_predictions spec =
  Explore.with_engine Explore.Config.default spec Explore.Session.predictions

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let exp1 k = Rig.experiment1 ~partitions:k ()
let exp2 k = Rig.experiment2 ~partitions:k ()

let first_feasible spec =
  let report = explore_run Explore.Iterative spec in
  match report.Explore.outcome.Search.feasible with
  | s :: _ -> s
  | [] -> Alcotest.fail "expected a feasible system"

(* a spec with two chips and an on-chip memory, exercising memory paths *)
let memory_spec () =
  let g = Chop_dfg.Benchmarks.memory_pipeline ~blocks:("A", "B") () in
  let pg = Chop_dfg.Partition.whole g in
  let mem name =
    Chop_tech.Memory.make ~name ~words:64 ~word_width:16 ~ports:1 ~access:120.
      ~placement:(Chop_tech.Memory.On_chip 4000.)
  in
  Spec.make
    ~memories:[ mem "A"; mem "B" ]
    ~memory_hosts:[ ("A", "chip1"); ("B", "chip1") ]
    ~graph:g ~library:Chop_tech.Mosis.experiment_library
    ~chips:[ { Spec.chip_name = "chip1"; package = Chop_tech.Mosis.package_84 } ]
    ~partitioning:pg
    ~assignment:[ ("P1", "chip1") ]
    ~clocks:(Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1 ~transfer_ratio:1)
    ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle)
    ~criteria:(Chop_bad.Feasibility.criteria ~perf:50000. ~delay:50000. ())
    ()

(* ------------------------------------------------------------------ *)
(* Spec *)

let test_spec_builds () =
  let spec = exp1 2 in
  Alcotest.(check int) "two chips" 2 (List.length spec.Spec.chips);
  Alcotest.(check int) "two assignments" 2 (List.length spec.Spec.assignment)

let test_spec_rejects_unassigned_partition () =
  let g = Chop_dfg.Benchmarks.ar_lattice_filter () in
  let pg = Chop_dfg.Partition.by_levels g ~k:2 in
  match
    Spec.make ~graph:g ~library:Chop_tech.Mosis.experiment_library
      ~chips:[ { Spec.chip_name = "c"; package = Chop_tech.Mosis.package_84 } ]
      ~partitioning:pg
      ~assignment:[ ("P1", "c") ]
      ~clocks:(Chop_tech.Clocking.make ~main:300. ~datapath_ratio:10 ~transfer_ratio:1)
      ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle)
      ~criteria:(Chop_bad.Feasibility.criteria ~perf:30000. ~delay:30000. ())
      ()
  with
  | exception Spec.Invalid_spec _ -> ()
  | _ -> Alcotest.fail "unassigned partition accepted"

let test_spec_rejects_unknown_chip () =
  let g = Chop_dfg.Benchmarks.ar_lattice_filter () in
  let pg = Chop_dfg.Partition.whole g in
  match
    Spec.make ~graph:g ~library:Chop_tech.Mosis.experiment_library
      ~chips:[ { Spec.chip_name = "c"; package = Chop_tech.Mosis.package_84 } ]
      ~partitioning:pg
      ~assignment:[ ("P1", "ghost") ]
      ~clocks:(Chop_tech.Clocking.make ~main:300. ~datapath_ratio:10 ~transfer_ratio:1)
      ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle)
      ~criteria:(Chop_bad.Feasibility.criteria ~perf:30000. ~delay:30000. ())
      ()
  with
  | exception Spec.Invalid_spec _ -> ()
  | _ -> Alcotest.fail "unknown chip accepted"

let test_spec_rejects_undeclared_memory () =
  let g = Chop_dfg.Benchmarks.memory_pipeline ~blocks:("A", "B") () in
  let pg = Chop_dfg.Partition.whole g in
  match
    Spec.make ~graph:g ~library:Chop_tech.Mosis.experiment_library
      ~chips:[ { Spec.chip_name = "c"; package = Chop_tech.Mosis.package_84 } ]
      ~partitioning:pg
      ~assignment:[ ("P1", "c") ]
      ~clocks:(Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1 ~transfer_ratio:1)
      ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle)
      ~criteria:(Chop_bad.Feasibility.criteria ~perf:30000. ~delay:30000. ())
      ()
  with
  | exception Spec.Invalid_spec _ -> ()
  | _ -> Alcotest.fail "undeclared memory accepted"

let test_spec_rejects_hostless_onchip_memory () =
  let g = Chop_dfg.Benchmarks.memory_pipeline ~blocks:("A", "B") () in
  let pg = Chop_dfg.Partition.whole g in
  let mem name =
    Chop_tech.Memory.make ~name ~words:64 ~word_width:16 ~ports:1 ~access:120.
      ~placement:(Chop_tech.Memory.On_chip 4000.)
  in
  match
    Spec.make
      ~memories:[ mem "A"; mem "B" ]
      ~graph:g ~library:Chop_tech.Mosis.experiment_library
      ~chips:[ { Spec.chip_name = "c"; package = Chop_tech.Mosis.package_84 } ]
      ~partitioning:pg
      ~assignment:[ ("P1", "c") ]
      ~clocks:(Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1 ~transfer_ratio:1)
      ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle)
      ~criteria:(Chop_bad.Feasibility.criteria ~perf:30000. ~delay:30000. ())
      ()
  with
  | exception Spec.Invalid_spec _ -> ()
  | _ -> Alcotest.fail "hostless on-chip memory accepted"

let test_spec_accessors () =
  let spec = memory_spec () in
  Alcotest.(check string) "chip lookup" "chip1" (Spec.chip spec "chip1").Spec.chip_name;
  Alcotest.(check string) "chip of partition" "chip1"
    (Spec.chip_of_partition spec "P1").Spec.chip_name;
  Alcotest.(check int) "partitions on chip" 1
    (List.length (Spec.partitions_on spec "chip1"));
  Alcotest.(check (option string)) "memory host" (Some "chip1") (Spec.memory_host spec "A");
  Alcotest.(check (list string)) "accessors of A" [ "P1" ] (Spec.partitions_accessing spec "A");
  Alcotest.(check int) "memories of P1" 2
    (List.length (Spec.memories_of_partition spec "P1"))

(* ------------------------------------------------------------------ *)
(* Transfer *)

let test_transfer_single_partition () =
  let spec = exp1 1 in
  let tasks = Transfer.create spec in
  (* in + out, no inter-partition flows *)
  Alcotest.(check int) "two io tasks" 2 (List.length tasks);
  List.iter
    (fun t -> Alcotest.(check bool) "io crosses chip" true t.Transfer.cross_chip)
    tasks

let test_transfer_two_partitions () =
  let spec = exp1 2 in
  let tasks = Transfer.create spec in
  let flows =
    List.filter
      (fun t ->
        match (t.Transfer.src, t.Transfer.dst) with
        | Transfer.Partition_end _, Transfer.Partition_end _ -> true
        | _ -> false)
      tasks
  in
  Alcotest.(check int) "one inter-partition flow" 1 (List.length flows);
  let f = List.hd flows in
  Alcotest.(check bool) "flow crosses chips" true f.Transfer.cross_chip;
  Alcotest.(check bool) "flow has bits" true (f.Transfer.bits > 0)

let test_transfer_same_chip_flow_needs_no_pins () =
  (* both partitions on one chip: the flow must not be cross-chip *)
  let g = Chop_dfg.Benchmarks.ar_lattice_filter () in
  let pg = Chop_dfg.Partition.by_levels g ~k:2 in
  let spec =
    Spec.make ~graph:g ~library:Chop_tech.Mosis.experiment_library
      ~chips:[ { Spec.chip_name = "c"; package = Chop_tech.Mosis.package_84 } ]
      ~partitioning:pg
      ~assignment:[ ("P1", "c"); ("P2", "c") ]
      ~clocks:(Chop_tech.Clocking.make ~main:300. ~datapath_ratio:10 ~transfer_ratio:1)
      ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle)
      ~criteria:(Chop_bad.Feasibility.criteria ~perf:30000. ~delay:30000. ())
      ()
  in
  let tasks = Transfer.create spec in
  let flow =
    List.find
      (fun t ->
        match (t.Transfer.src, t.Transfer.dst) with
        | Transfer.Partition_end _, Transfer.Partition_end _ -> true
        | _ -> false)
      tasks
  in
  Alcotest.(check bool) "on-chip" false flow.Transfer.cross_chip;
  (* P1 consumes the primary inputs AND drives the y1/y2 outputs; P2 drives
     the remaining outputs: 3 cross-chip io tasks x 2 pins.  The on-chip
     flow reserves none. *)
  Alcotest.(check int) "no control pins for the flow" 6
    (Transfer.control_pins_on spec tasks "c")

let test_transfer_control_pins () =
  let spec = exp1 2 in
  let tasks = Transfer.create spec in
  (* chip1: input io + y1/y2 output io + flow out = 3 tasks -> 6 pins.
     chip2: flow in + output io = 2 tasks -> 4 pins. *)
  Alcotest.(check int) "chip1" 6 (Transfer.control_pins_on spec tasks "chip1");
  Alcotest.(check int) "chip2" 4 (Transfer.control_pins_on spec tasks "chip2")

let test_transfer_memory_lines () =
  let spec = memory_spec () in
  (* two hosted+accessed blocks: 2 select/rw lines each, no bus pins *)
  Alcotest.(check int) "4 lines" 4 (Transfer.memory_lines_on spec "chip1")

let test_chips_of () =
  let spec = exp1 2 in
  let tasks = Transfer.create spec in
  List.iter
    (fun t ->
      let chips = Transfer.chips_of t in
      match (t.Transfer.src, t.Transfer.dst) with
      | Transfer.World, _ | _, Transfer.World ->
          Alcotest.(check int) "io touches one chip" 1 (List.length chips)
      | _ -> Alcotest.(check int) "flow touches two" 2 (List.length chips))
    tasks

(* ------------------------------------------------------------------ *)
(* Integration *)

let test_integration_feasible_combo () =
  let spec = exp1 1 in
  let per_partition, _ = explore_predictions spec in
  let ctx = Integration.context spec in
  let comb = List.map (fun (l, ps) -> (l, List.hd ps)) per_partition in
  let s = Integration.integrate ctx comb in
  Alcotest.(check bool) "clock at least main" true (s.Integration.clock >= 300.);
  Alcotest.(check bool) "delay cycles > ii is allowed" true
    (s.Integration.delay_cycles > 0);
  Alcotest.(check int) "chip reports" 1 (List.length s.Integration.chip_reports)

let test_integration_rejects_wrong_combination () =
  let spec = exp1 2 in
  let per_partition, _ = explore_predictions spec in
  let ctx = Integration.context spec in
  let comb = [ (fst (List.hd per_partition), List.hd (snd (List.hd per_partition))) ] in
  match Integration.integrate ctx comb with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "partial combination accepted"

let test_integration_rate_mismatch_detected () =
  let spec = exp1 2 in
  let per_partition, _ = explore_predictions spec in
  let ctx = Integration.context spec in
  (* find two pipelined predictions with different rates *)
  let pipelined l =
    List.filter
      (fun p -> p.Chop_bad.Prediction.style = Chop_tech.Style.Pipelined)
      (List.assoc l (List.map (fun (l, ps) -> (l, ps)) per_partition))
  in
  let p1s = pipelined "P1" and p2s = pipelined "P2" in
  let differing =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if
              Chop_bad.Prediction.ii_main spec.Spec.clocks a
              <> Chop_bad.Prediction.ii_main spec.Spec.clocks b
            then Some (a, b)
            else None)
          p2s)
      p1s
  in
  match differing with
  | [] -> () (* pruning left no mismatched pair: nothing to assert *)
  | (a, b) :: _ -> (
      let s = Integration.integrate ctx [ ("P1", a); ("P2", b) ] in
      match s.Integration.failure with
      | Integration.Rate_mismatch _ -> ()
      | _ -> Alcotest.fail "mismatch not detected")

let test_integration_buffer_formula () =
  let spec = exp1 2 in
  let s = first_feasible spec in
  List.iter
    (fun d ->
      if d.Integration.task.Transfer.cross_chip then begin
        let l = float_of_int s.Integration.ii_main in
        let expected =
          float_of_int d.Integration.task.Transfer.bits
          *. (ceil (float_of_int d.Integration.wait_main /. l)
             +. (float_of_int d.Integration.transfer_main /. l))
          |> ceil |> int_of_float
        in
        Alcotest.(check int) "B = D*(ceil(W/l)+X/l)" expected d.Integration.buffer_bits
      end)
    s.Integration.dtms

let test_integration_dtm_on_both_chips () =
  let spec = exp1 2 in
  let s = first_feasible spec in
  (* every chip involved in cross-chip transfers carries DTM area *)
  List.iter
    (fun cr ->
      Alcotest.(check bool) "dtm area present" true (cr.Integration.dtm_area > 0.))
    s.Integration.chip_reports

let test_integration_memory_resource () =
  let spec = memory_spec () in
  let report = explore_run Explore.Enumeration spec in
  Alcotest.(check bool) "memory design feasible" true
    (report.Explore.outcome.Search.feasible <> [])

let test_integration_transfer_clock_floor () =
  let spec = exp1 2 in
  let s = first_feasible spec in
  (* pad delay alone is 2 x 25 ns; the adjusted clock covers it *)
  Alcotest.(check bool) "clock covers pads" true (s.Integration.clock >= 50.)

let test_total_area_and_objectives () =
  let spec = exp1 1 in
  let s = first_feasible spec in
  let t = Integration.total_area s in
  Alcotest.(check bool) "positive" true Chop_util.Triplet.(t.likely > 0.);
  let o = Integration.objectives s in
  Alcotest.(check int) "3 objectives" 3 (Array.length o);
  Alcotest.(check (float 1e-6)) "first is perf" s.Integration.perf_ns o.(0)

let test_integration_failure_kinds () =
  let spec = exp1 2 in
  let ctx = Integration.context spec in
  let per_partition, _ = explore_predictions spec in
  let comb = List.map (fun (l, ps) -> (l, List.hd ps)) per_partition in
  (* Too_slow: an interval below the partitions' rate *)
  (match (Integration.integrate ctx ~ii_target:1 comb).Integration.failure with
  | Integration.Too_slow -> ()
  | _ -> Alcotest.fail "expected Too_slow");
  (* Delay_exceeded: a delay constraint nothing can meet *)
  let tight =
    Advisor.set_constraints spec
      ~criteria:(Chop_bad.Feasibility.criteria ~perf:30000. ~delay:5. ())
  in
  let ctx_tight = Integration.context tight in
  (match (Integration.integrate ctx_tight comb).Integration.failure with
  | Integration.Delay_exceeded -> ()
  | f ->
      Alcotest.fail
        (Printf.sprintf "expected Delay_exceeded, got %s"
           (match f with
           | Integration.No_failure -> "No_failure"
           | Integration.Rate_mismatch _ -> "Rate_mismatch"
           | Integration.Area_violation _ -> "Area_violation"
           | Integration.Data_clash -> "Data_clash"
           | Integration.Too_slow -> "Too_slow"
           | Integration.Delay_exceeded -> "Delay_exceeded"
           | Integration.Structural r -> "Structural: " ^ r)));
  (* Area_violation: pick the biggest raw predictions (mul1-heavy) *)
  let raw, _ =
    explore_predictions
      (Rig.experiment1 ~partitions:2
         ~params:{ Spec.default_params with discard_inferior = false }
         ())
  in
  let biggest =
    List.map
      (fun (l, ps) ->
        ( l,
          List.fold_left
            (fun best p ->
              if
                Chop_util.Triplet.mean p.Chop_bad.Prediction.area
                > Chop_util.Triplet.mean best.Chop_bad.Prediction.area
              then p
              else best)
            (List.hd ps) ps ))
      raw
  in
  (match (Integration.integrate ctx biggest).Integration.failure with
  | Integration.Area_violation labels ->
      Alcotest.(check bool) "violating partitions named" true (labels <> [])
  | _ -> Alcotest.fail "expected Area_violation")

let test_integration_structural_pin_exhaustion () =
  (* a 10-pin package cannot even carry the reserved control lines *)
  let g = Chop_dfg.Benchmarks.ar_lattice_filter () in
  let pg = Chop_dfg.Partition.by_levels g ~k:2 in
  let tiny =
    Chop_tech.Chip.make ~name:"tiny" ~width:311.02 ~height:362.20 ~pins:10
      ~pad_delay:25. ~pad_area:297.6
  in
  let spec =
    Rig.custom ~graph:g ~partitioning:pg ~package:tiny
      ~clocks:(Chop_tech.Clocking.make ~main:300. ~datapath_ratio:10 ~transfer_ratio:1)
      ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle)
      ~criteria:(Chop_bad.Feasibility.criteria ~perf:30000. ~delay:30000. ())
      ()
  in
  let ctx = Integration.context spec in
  let per_partition, _ = explore_predictions spec in
  let comb = List.map (fun (l, ps) -> (l, List.hd ps)) per_partition in
  match (Integration.integrate ctx comb).Integration.failure with
  | Integration.Structural _ -> ()
  | _ -> Alcotest.fail "expected Structural pin exhaustion"

let test_integration_shared_remote_memory () =
  (* two partitions on different chips both read block M hosted on chip1:
     the remote chip pays bus pins, and M's single port serializes them *)
  let b = Chop_dfg.Graph.builder ~name:"shared_mem" () in
  let width = 16 in
  let r1 = Chop_dfg.Graph.add_node b ~name:"r1" ~op:(Chop_dfg.Op.Mem_read "M") ~width in
  let c1 = Chop_dfg.Graph.add_node b ~name:"c1" ~op:Chop_dfg.Op.Const ~width in
  let m1 = Chop_dfg.Graph.add_node b ~name:"m1" ~op:Chop_dfg.Op.Mult ~width in
  Chop_dfg.Graph.add_edge b ~src:r1 ~dst:m1;
  Chop_dfg.Graph.add_edge b ~src:c1 ~dst:m1;
  let r2 = Chop_dfg.Graph.add_node b ~name:"r2" ~op:(Chop_dfg.Op.Mem_read "M") ~width in
  let a2 = Chop_dfg.Graph.add_node b ~name:"a2" ~op:Chop_dfg.Op.Add ~width in
  Chop_dfg.Graph.add_edge b ~src:r2 ~dst:a2;
  Chop_dfg.Graph.add_edge b ~src:m1 ~dst:a2;
  let o = Chop_dfg.Graph.add_node b ~name:"y" ~op:Chop_dfg.Op.Output ~width in
  Chop_dfg.Graph.add_edge b ~src:a2 ~dst:o;
  let g = Chop_dfg.Graph.build b in
  let pg =
    Chop_dfg.Partition.partitioning g
      [ Chop_dfg.Partition.make ~label:"P1" [ r1; m1 ];
        Chop_dfg.Partition.make ~label:"P2" [ r2; a2 ] ]
  in
  let mem =
    Chop_tech.Memory.make ~name:"M" ~words:64 ~word_width:16 ~ports:1
      ~access:120. ~placement:(Chop_tech.Memory.On_chip 4000.)
  in
  let spec =
    Spec.make ~memories:[ mem ] ~memory_hosts:[ ("M", "chip1") ] ~graph:g
      ~library:Chop_tech.Mosis.experiment_library
      ~chips:
        [ { Spec.chip_name = "chip1"; package = Chop_tech.Mosis.package_84 };
          { Spec.chip_name = "chip2"; package = Chop_tech.Mosis.package_84 } ]
      ~partitioning:pg
      ~assignment:[ ("P1", "chip1"); ("P2", "chip2") ]
      ~clocks:(Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1 ~transfer_ratio:1)
      ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle)
      ~criteria:(Chop_bad.Feasibility.criteria ~perf:50000. ~delay:50000. ())
      ()
  in
  (* the remote chip (chip2) reserves bus pins for the on-chip block it
     does not host *)
  Alcotest.(check bool) "remote bus pins reserved" true
    (Transfer.memory_lines_on spec "chip2" >= 16 + 2);
  Alcotest.(check int) "host pays only select/rw" 2
    (Transfer.memory_lines_on spec "chip1");
  let report = explore_run Explore.Iterative spec in
  (match report.Explore.outcome.Search.feasible with
  | [] -> Alcotest.fail "shared-memory system should be feasible"
  | s :: _ ->
      let ctx = Integration.context spec in
      let sim = Sysim.simulate ctx ~instances:6 s in
      Alcotest.(check bool) "simulation consistent" true
        (Sysim.throughput_consistent s sim));
  Alcotest.(check (list string)) "both partitions access M" [ "P1"; "P2" ]
    (Spec.partitions_accessing spec "M")

(* ------------------------------------------------------------------ *)
(* Heuristics + Explore *)

let test_exp1_shape_two_partitions_faster () =
  let best spec =
    (first_feasible spec).Integration.perf_ns
  in
  let p1 = best (exp1 1) and p2 = best (exp1 2) in
  Alcotest.(check bool) "2 chips ~2x faster" true (p2 < p1)

let test_exp2_reaches_higher_performance () =
  let best spec = (first_feasible spec).Integration.perf_ns in
  (* multi-cycle (exp2) 3-partition designs beat exp1 3-partition designs *)
  Alcotest.(check bool) "multi-cycle faster" true (best (exp2 3) < best (exp1 3))

let test_enum_vs_iter_same_best_ii () =
  let spec = exp2 3 in
  let best h =
    let r = explore_run h spec in
    match r.Explore.outcome.Search.feasible with
    | s :: _ -> s.Integration.ii_main
    | [] -> max_int
  in
  Alcotest.(check int) "same fastest interval" (best Explore.Enumeration)
    (best Explore.Iterative)

let test_iter_fewer_trials_on_large_space () =
  let spec = exp2 3 in
  let trials h =
    (explore_run h spec).Explore.outcome.Search.stats.Search.implementation_trials
  in
  Alcotest.(check bool) "iterative explores far less" true
    (trials Explore.Iterative * 5 < trials Explore.Enumeration)

let test_branch_bound_matches_enumeration () =
  List.iter
    (fun spec ->
      let best h =
        match (explore_run h spec).Explore.outcome.Search.feasible with
        | s :: _ ->
            Some (s.Integration.ii_main, s.Integration.delay_cycles)
        | [] -> None
      in
      let e = best Explore.Enumeration and b = best Explore.Branch_bound in
      Alcotest.(check bool) "same best design" true (e = b))
    [ exp1 2; exp2 2; exp2 3 ]

let test_branch_bound_never_more_integrations () =
  List.iter
    (fun spec ->
      let integ h =
        (explore_run h spec).Explore.outcome.Search.stats.Search.integrations
      in
      Alcotest.(check bool) "bounds help" true
        (integ Explore.Branch_bound <= integ Explore.Enumeration))
    [ exp1 2; exp2 3 ]

let test_explore_bad_stats () =
  let r = explore_run Explore.Iterative (exp1 2) in
  Alcotest.(check int) "stats per partition" 2 (List.length r.Explore.bad);
  List.iter
    (fun b ->
      Alcotest.(check bool) "kept <= feasible <= total" true
        (b.Explore.kept <= b.Explore.feasible_predictions
        && b.Explore.feasible_predictions <= b.Explore.total_predictions))
    r.Explore.bad

let test_keep_all_explodes_space () =
  let run_e ?(keep_all = false) ~pre_prune spec =
    Explore.with_engine
      (Explore.Config.make ~heuristic:Explore.Enumeration ~keep_all ~pre_prune
         ())
      spec Explore.Session.run
  in
  let pruned = run_e ~pre_prune:true (exp1 2) in
  (* the full Figure 7/8 dump needs the pre-pruner off *)
  let all = run_e ~keep_all:true ~pre_prune:false (exp1 2) in
  let explored = List.length all.Explore.outcome.Search.explored in
  Alcotest.(check bool) "keep-all records everything" true (explored > 100);
  Alcotest.(check int) "pruned records nothing" 0
    (List.length pruned.Explore.outcome.Search.explored);
  Alcotest.(check bool) "keep-all takes more trials" true
    (all.Explore.outcome.Search.stats.Search.implementation_trials
    > pruned.Explore.outcome.Search.stats.Search.implementation_trials);
  let uniq = Explore.unique_designs all.Explore.outcome.Search.explored in
  Alcotest.(check bool) "unique <= total" true (uniq <= explored);
  Alcotest.(check bool) "duplicates exist" true (uniq < explored);
  (* dominance pre-pruning shrinks the dump but never the feasible front *)
  let defaulted = run_e ~keep_all:true ~pre_prune:true (exp1 2) in
  Alcotest.(check bool) "pre-pruned dump is no larger" true
    (List.length defaulted.Explore.outcome.Search.explored <= explored);
  Alcotest.(check string) "pre-pruning preserves the feasible front"
    (Search.to_csv all.Explore.outcome.Search.feasible)
    (Search.to_csv defaulted.Explore.outcome.Search.feasible)

let test_candidate_intervals_within_constraint () =
  let spec = exp1 2 in
  let per_partition, _ = explore_predictions spec in
  let ctx = Integration.context spec in
  let ls = Iter_heuristic.candidate_intervals ctx per_partition in
  Alcotest.(check bool) "non-empty" true (ls <> []);
  let sorted = List.sort Int.compare ls in
  Alcotest.(check (list int)) "ascending unique" sorted ls;
  List.iter
    (fun l ->
      Alcotest.(check bool) "within perf at nominal clock" true
        (float_of_int l *. 300. <= 30000.))
    ls

let test_feasible_sorted_fastest_first () =
  let r = explore_run Explore.Enumeration (exp2 2) in
  let perfs =
    List.map (fun s -> s.Integration.perf_ns) r.Explore.outcome.Search.feasible
  in
  let rec ascending = function
    | a :: (b :: _ as rest) -> a <= b && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "ascending perf" true (ascending perfs)

(* ------------------------------------------------------------------ *)
(* Report *)

let test_guideline_content () =
  let spec = exp1 2 in
  let s = first_feasible spec in
  let text = Report.guideline spec s in
  Alcotest.(check bool) "mentions partitions" true (contains text "Partition P1");
  Alcotest.(check bool) "mentions dtm" true (contains text "Data transfer module");
  Alcotest.(check bool) "mentions chips" true (contains text "Chip chip1");
  Alcotest.(check bool) "mentions buffer" true (contains text "buffer")

let test_timeline_and_csv () =
  let spec = exp1 2 in
  let s = first_feasible spec in
  let text = Report.timeline s in
  Alcotest.(check bool) "shows pu bars" true (contains text "pu_P1");
  Alcotest.(check bool) "shows dt bars" true (contains text "dt_");
  let csv = Search.to_csv [ s ] in
  Alcotest.(check bool) "header" true (contains csv "ii_main,clock_ns");
  Alcotest.(check int) "one data row" 3 (List.length (String.split_on_char '\n' csv))

let test_summary_row () =
  let spec = exp1 1 in
  let s = first_feasible spec in
  let row = Report.summary_row spec s in
  Alcotest.(check int) "3 cells" 3 (List.length row);
  Alcotest.(check string) "ii" (string_of_int s.Integration.ii_main) (List.nth row 0)

(* ------------------------------------------------------------------ *)
(* Advisor *)

let test_advisor_what_if () =
  let j = Advisor.what_if (exp1 2) in
  Alcotest.(check bool) "feasible" true j.Advisor.feasible;
  Alcotest.(check bool) "has best" true (j.Advisor.best <> None);
  Alcotest.(check bool) "advice text" true (String.length j.Advisor.advice > 10)

let test_advisor_move_partition () =
  let spec = exp1 2 in
  let spec' = Advisor.move_partition spec ~partition:"P2" ~to_chip:"chip1" in
  Alcotest.(check string) "moved" "chip1"
    (Spec.chip_of_partition spec' "P2").Spec.chip_name;
  match Advisor.move_partition spec ~partition:"P2" ~to_chip:"ghost" with
  | exception Advisor.Rejected _ -> ()
  | _ -> Alcotest.fail "unknown chip accepted"

let test_advisor_move_operation () =
  let spec = exp1 2 in
  let p2 = Chop_dfg.Partition.find spec.Spec.partitioning "P2" in
  (* move one of P2's operations into P1; pick one whose move keeps the
     quotient acyclic: the first in topological order *)
  let candidate = List.hd p2.Chop_dfg.Partition.members in
  (match Advisor.move_operation spec ~op:candidate ~to_partition:"P1" with
  | spec' ->
      let p1' = Chop_dfg.Partition.find spec'.Spec.partitioning "P1" in
      Alcotest.(check bool) "moved" true
        (List.mem candidate p1'.Chop_dfg.Partition.members)
  | exception Advisor.Rejected _ -> ());
  match Advisor.move_operation spec ~op:candidate ~to_partition:"nope" with
  | exception Advisor.Rejected _ -> ()
  | _ -> Alcotest.fail "unknown partition accepted"

let test_advisor_move_operation_rejects_cycle () =
  (* moving a middle-level op from P1 to P2 and back-feeding would cycle;
     find an op whose move breaks acyclicity and check the rejection *)
  let spec = exp1 3 in
  let p1 = Chop_dfg.Partition.find spec.Spec.partitioning "P1" in
  let g = spec.Spec.graph in
  (* an op in P1 all of whose successors are in P3 creates P3->...->P3?  We
     instead verify the guard differently: moving an op with successors in
     P2 from P1 to P3 creates P3 -> P2 while P2 -> P3 exists. *)
  let candidates =
    List.filter
      (fun id ->
        List.exists
          (fun s ->
            match Chop_dfg.Partition.part_of spec.Spec.partitioning s with
            | p -> p.Chop_dfg.Partition.label = "P2"
            | exception Not_found -> false)
          (Chop_dfg.Graph.succs g id))
      p1.Chop_dfg.Partition.members
  in
  match candidates with
  | [] -> ()
  | op :: _ -> (
      match Advisor.move_operation spec ~op ~to_partition:"P3" with
      | exception Advisor.Rejected _ -> ()
      | _ -> Alcotest.fail "cyclic move accepted")

let test_advisor_swap_package () =
  let spec = exp1 2 in
  let spec' = Advisor.swap_package spec ~chip:"chip1" Chop_tech.Mosis.package_64 in
  Alcotest.(check int) "pins changed" 64
    (Spec.chip spec' "chip1").Spec.package.Chop_tech.Chip.pins

let test_advisor_set_constraints_breaks_feasibility () =
  let spec = exp1 2 in
  let tight =
    Advisor.set_constraints spec
      ~criteria:(Chop_bad.Feasibility.criteria ~perf:600. ~delay:600. ())
  in
  let j = Advisor.what_if tight in
  Alcotest.(check bool) "infeasible" false j.Advisor.feasible

let test_advisor_rehost_memory () =
  let spec = memory_spec () in
  (* rehosting to the same (only) chip is a no-op but must be accepted *)
  let spec' = Advisor.rehost_memory spec ~block:"A" ~to_chip:"chip1" in
  Alcotest.(check (option string)) "host" (Some "chip1") (Spec.memory_host spec' "A")

let test_advisor_optimize_memory_hosts () =
  (* two chips; block A is hot on P1's chip, so hosting it there should be
     at least as good as hosting it on chip2 *)
  let g = Chop_dfg.Benchmarks.memory_pipeline ~blocks:("A", "B") () in
  let pg = Chop_dfg.Partition.whole g in
  let mem name =
    Chop_tech.Memory.make ~name ~words:64 ~word_width:16 ~ports:1 ~access:120.
      ~placement:(Chop_tech.Memory.On_chip 4000.)
  in
  let chips =
    [ { Spec.chip_name = "chip1"; package = Chop_tech.Mosis.package_84 };
      { Spec.chip_name = "chip2"; package = Chop_tech.Mosis.package_84 } ]
  in
  let spec =
    Spec.make
      ~memories:[ mem "A"; mem "B" ]
      ~memory_hosts:[ ("A", "chip2"); ("B", "chip2") ]
      ~graph:g ~library:Chop_tech.Mosis.experiment_library ~chips
      ~partitioning:pg
      ~assignment:[ ("P1", "chip1") ]
      ~clocks:(Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1 ~transfer_ratio:1)
      ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle)
      ~criteria:(Chop_bad.Feasibility.criteria ~perf:50000. ~delay:50000. ())
      ()
  in
  let before = Advisor.what_if spec in
  let optimized, after = Advisor.optimize_memory_hosts spec in
  Alcotest.(check bool) "optimization never loses" true
    (match (before.Advisor.best, after.Advisor.best) with
    | Some b, Some a -> a.Integration.perf_ns <= b.Integration.perf_ns
    | None, Some _ -> true
    | None, None -> true
    | Some _, None -> false);
  (* all on-chip blocks still have hosts *)
  Alcotest.(check bool) "hosts assigned" true
    (Spec.memory_host optimized "A" <> None && Spec.memory_host optimized "B" <> None)

let test_advisor_compare_specs () =
  let a = exp1 1 and b = exp1 2 in
  let text = Advisor.compare_specs a b in
  Alcotest.(check bool) "mentions improvement" true
    (contains text "improves performance")

(* ------------------------------------------------------------------ *)
(* Specfile *)

let demo_spec_text = {chop|
# a two-chip multiply-accumulate
graph demo width=16
node x input
node k const
node m mult x k
node a add m x
node y output a

chip chip1 pkg84
chip chip2 pins=64 die=311.02x362.20 pad_delay=25 pad_area=297.6
memory M words=64 width=16 ports=1 access=120 off_chip_pins=28
partition P1 = m
partition P2 = a
assign P1 chip1
assign P2 chip2
library extended
clock main=300 datapath=1 transfer=1
style multi_cycle
criteria perf=30000 delay=30000 delay_prob=0.8
params alloc_cap=4 max_iis=4 testability=0.0
|chop}

let test_specfile_parse () =
  let spec = Specfile.parse demo_spec_text in
  Alcotest.(check int) "two chips" 2 (List.length spec.Spec.chips);
  Alcotest.(check int) "graph ops" 2 (Chop_dfg.Graph.op_count spec.Spec.graph);
  Alcotest.(check int) "two partitions" 2
    (List.length spec.Spec.partitioning.Chop_dfg.Partition.parts);
  Alcotest.(check int) "one memory" 1 (List.length spec.Spec.memories);
  Alcotest.(check int) "alloc cap" 4 spec.Spec.params.Spec.alloc_cap;
  Alcotest.(check (float 1e-9)) "perf" 30000.
    spec.Spec.criteria.Chop_bad.Feasibility.perf_constraint;
  (* the parsed spec is actually explorable *)
  let report = explore_run Explore.Iterative spec in
  Alcotest.(check bool) "explorable" true
    (report.Explore.outcome.Search.feasible <> [])

let test_specfile_roundtrip () =
  let spec = Specfile.parse demo_spec_text in
  let reparsed = Specfile.parse (Specfile.print spec) in
  Alcotest.(check int) "chips" (List.length spec.Spec.chips)
    (List.length reparsed.Spec.chips);
  Alcotest.(check int) "ops" (Chop_dfg.Graph.op_count spec.Spec.graph)
    (Chop_dfg.Graph.op_count reparsed.Spec.graph);
  Alcotest.(check int) "library size" (List.length spec.Spec.library)
    (List.length reparsed.Spec.library);
  Alcotest.(check int) "memories" 1 (List.length reparsed.Spec.memories);
  (* behaviourally identical graphs *)
  Alcotest.(check bool) "graphs equivalent" true
    (let g1 = spec.Spec.graph and g2 = reparsed.Spec.graph in
     Chop_dfg.Graph.op_profile g1 = Chop_dfg.Graph.op_profile g2)

let test_specfile_roundtrip_experiment () =
  let spec = exp1 2 in
  let reparsed = Specfile.parse (Specfile.print spec) in
  (* the reparsed experiment gives the same best design *)
  let best s =
    match (explore_run Explore.Iterative s).Explore.outcome.Search.feasible with
    | x :: _ -> (x.Integration.ii_main, x.Integration.delay_cycles)
    | [] -> (-1, -1)
  in
  Alcotest.(check (pair int int)) "same outcome" (best spec) (best reparsed)

let replace_once text old_s new_s =
  let n = String.length text and no = String.length old_s in
  let rec find i =
    if i + no > n then None
    else if String.sub text i no = old_s then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> text
  | Some i ->
      String.sub text 0 i ^ new_s ^ String.sub text (i + no) (n - i - no)

let test_specfile_roundtrip_all_benchmarks () =
  List.iter
    (fun graph ->
      let partitioning =
        let levels = List.length (Chop_dfg.Analysis.levels graph) in
        if levels >= 2 then Chop_dfg.Partition.by_levels graph ~k:2
        else Chop_dfg.Partition.whole graph
      in
      let spec =
        Rig.custom ~library:Chop_tech.Mosis.extended_library ~graph ~partitioning
          ~package:Chop_tech.Mosis.package_64
          ~clocks:(Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1 ~transfer_ratio:1)
          ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle)
          ~criteria:(Chop_bad.Feasibility.criteria ~perf:50000. ~delay:50000. ())
          ()
      in
      let reparsed = Specfile.parse (Specfile.print spec) in
      Alcotest.(check (list (pair string int)))
        (Chop_dfg.Graph.name graph ^ " profile survives")
        (Chop_dfg.Graph.op_profile spec.Spec.graph)
        (Chop_dfg.Graph.op_profile reparsed.Spec.graph);
      Alcotest.(check int)
        (Chop_dfg.Graph.name graph ^ " edges survive")
        (List.length (Chop_dfg.Graph.edges spec.Spec.graph))
        (List.length (Chop_dfg.Graph.edges reparsed.Spec.graph)))
    [
      Chop_dfg.Benchmarks.ar_lattice_filter ();
      Chop_dfg.Benchmarks.elliptic_wave_filter ();
      Chop_dfg.Benchmarks.fir_filter ~taps:8 ();
      Chop_dfg.Benchmarks.diffeq ();
      Chop_dfg.Benchmarks.dct8 ();
    ]

let expect_parse_error text =
  match Specfile.parse text with
  | exception Specfile.Parse_error _ -> ()
  | exception Spec.Invalid_spec _ -> ()
  | _ -> Alcotest.fail "bad spec accepted"

let test_specfile_errors () =
  expect_parse_error "node x input\n";
  expect_parse_error "graph g\nnode x banana\n";
  expect_parse_error "graph g\nnode y output ghost\n";
  expect_parse_error (demo_spec_text ^ "\nfrobnicate everything\n");
  expect_parse_error
    "graph g\nnode x input\nnode s shift x\nchip c pkg84\npartition P = s\nassign P c\n";
  (* ^ missing criteria *)
  expect_parse_error
    (replace_once demo_spec_text "assign P2 chip2" "assign P2 nowhere")

let test_specfile_load_from_file () =
  let path = Filename.temp_file "chopspec" ".chop" in
  let oc = open_out path in
  output_string oc demo_spec_text;
  close_out oc;
  let spec = Specfile.load path in
  Sys.remove path;
  Alcotest.(check int) "loaded" 2 (List.length spec.Spec.chips)

let test_specfile_line_numbers () =
  match Specfile.parse "graph g\nnode x banana\n" with
  | exception Specfile.Parse_error (line, _) -> Alcotest.(check int) "line 2" 2 line
  | _ -> Alcotest.fail "expected error"

let expect_parse_error_with text fragments =
  match Specfile.parse text with
  | exception Specfile.Parse_error (_, msg) ->
      List.iter
        (fun f ->
          Alcotest.(check bool)
            (Printf.sprintf "message %S mentions %S" msg f)
            true (contains msg f))
        fragments
  | _ -> Alcotest.fail "bad spec accepted"

let test_specfile_duplicate_keys_rejected () =
  (* a repeated key would silently win by position in [attr]; the parser
     names the offending token by 0-based index instead *)
  expect_parse_error_with
    (replace_once demo_spec_text "criteria perf=30000 delay=30000 delay_prob=0.8"
       "criteria perf=30000 perf=1 delay=30000")
    [ "duplicate"; "criteria"; "\"perf\""; "token 1" ];
  expect_parse_error_with
    (demo_spec_text
    ^ "processor cpu issue=2 cycle=300 code=4 data=2 mem=256 bus=16 mem=512\n")
    [ "duplicate"; "processor"; "\"mem\""; "token 6" ]

let test_specfile_impl_unknown_model () =
  expect_parse_error_with
    (demo_spec_text ^ "impl P1 dsp\n")
    [ "unknown model"; "\"dsp\"" ];
  (* referencing a processor before its declaration is the same error *)
  expect_parse_error_with
    (demo_spec_text ^ "impl P1 cpu\nprocessor cpu issue=2 cycle=300 code=4 data=2 mem=256 bus=16\n")
    [ "unknown model"; "\"cpu\"" ]

let test_specfile_processor_impl_roundtrip () =
  let text =
    demo_spec_text
    ^ "processor cpu issue=4 cycle=300 code=4 data=2 mem=176 bus=16\n\
       impl P2 cpu\n"
  in
  let spec = Specfile.parse text in
  let reparsed = Specfile.parse (Specfile.print spec) in
  List.iter
    (fun (s : Spec.t) ->
      match s.Spec.processors with
      | [ p ] ->
          Alcotest.(check string) "name" "cpu" p.Chop_model_sw.Processor.pname;
          Alcotest.(check int) "issue" 4 p.Chop_model_sw.Processor.issue_slots;
          Alcotest.(check (float 1e-9)) "budget" 176.
            p.Chop_model_sw.Processor.memory_budget_bytes;
          Alcotest.(check (list (pair string string))) "binding"
            [ ("P2", "cpu") ] s.Spec.impls;
          Alcotest.(check string) "impl_of_partition" "cpu"
            (Spec.impl_of_partition s "P2");
          Alcotest.(check string) "unbound partitions stay hardware" "hw"
            (Spec.impl_of_partition s "P1")
      | ps -> Alcotest.failf "%d processors" (List.length ps))
    [ spec; reparsed ];
  (* identical processor signatures across the round-trip: the cache
     identity of a restored software partition is unchanged *)
  Alcotest.(check string) "signature survives"
    (Chop_model_sw.Processor.signature (List.hd spec.Spec.processors))
    (Chop_model_sw.Processor.signature (List.hd reparsed.Spec.processors))

(* ------------------------------------------------------------------ *)
(* Sysim *)

let test_sysim_matches_prediction () =
  let spec = exp1 2 in
  let ctx = Integration.context spec in
  let s = first_feasible spec in
  let r = Sysim.simulate ctx ~instances:10 s in
  (* the first instance's completion is exactly the predicted system delay *)
  Alcotest.(check int) "first latency = predicted delay"
    s.Integration.delay_cycles r.Sysim.first_latency;
  Alcotest.(check bool) "throughput within prediction" true
    (Sysim.throughput_consistent s r)

let test_sysim_steady_state_rate () =
  let spec = exp2 3 in
  let ctx = Integration.context spec in
  let s = first_feasible spec in
  let r = Sysim.simulate ctx ~instances:16 s in
  (* achieved rate is positive and no slower than the prediction allows *)
  Alcotest.(check bool) "rate positive" true (r.Sysim.achieved_ii > 0.);
  Alcotest.(check bool) "consistent" true (Sysim.throughput_consistent s r);
  Alcotest.(check bool) "makespan grows with instances" true
    (r.Sysim.makespan > r.Sysim.first_latency)

let test_sysim_single_instance () =
  let spec = exp1 1 in
  let ctx = Integration.context spec in
  let s = first_feasible spec in
  let r = Sysim.simulate ctx ~instances:1 s in
  Alcotest.(check int) "makespan = first" r.Sysim.first_latency r.Sysim.makespan

let test_sysim_rejects_failed_integration () =
  let spec = exp1 2 in
  let ctx = Integration.context spec in
  let per_partition, _ = explore_predictions spec in
  let comb = List.map (fun (l, ps) -> (l, List.hd ps)) per_partition in
  (* force an infeasible integration by demanding an impossible interval *)
  let broken = Integration.integrate ctx ~ii_target:0 comb in
  if not (Integration.feasible broken) && broken.Integration.dtms = [] then
    match Sysim.simulate ctx broken with
    | exception Sysim.Unsimulatable _ -> ()
    | _ -> Alcotest.fail "failed integration simulated"

let test_sysim_validates_instances () =
  let spec = exp1 1 in
  let ctx = Integration.context spec in
  let s = first_feasible spec in
  match Sysim.simulate ctx ~instances:0 s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 instances accepted"

(* ------------------------------------------------------------------ *)
(* Sensitivity *)

let test_sensitivity_perf_monotone () =
  let spec = exp1 2 in
  let s = Sensitivity.performance_constraint spec ~values:[ 30000.; 9000.; 3000. ] in
  Alcotest.(check int) "3 points" 3 (List.length s.Sensitivity.points);
  let feas = List.map (fun p -> p.Sensitivity.feasible) s.Sensitivity.points in
  (* relaxing a constraint can never turn a feasible point infeasible when
     sweeping downward: feasibility is monotone in the constraint *)
  Alcotest.(check bool) "monotone" true
    (match feas with
    | [ a; b; c ] -> a >= b && b >= c
    | _ -> false)

let test_sensitivity_cliff () =
  let spec = exp1 2 in
  let s = Sensitivity.performance_constraint spec ~values:[ 30000.; 9000.; 3000. ] in
  (match Sensitivity.cliff s with
  | Some v -> Alcotest.(check bool) "cliff below 9000" true (v <= 9000.)
  | None -> Alcotest.fail "expected a cliff");
  let flat = Sensitivity.performance_constraint spec ~values:[ 30000.; 29000. ] in
  Alcotest.(check bool) "no cliff when all feasible" true
    (Sensitivity.cliff flat = None)

let test_sensitivity_pins () =
  let spec = exp1 2 in
  let s = Sensitivity.pin_count spec ~values:[ 84; 10; 0 ] in
  (match s.Sensitivity.points with
  | [ p84; p10; p0 ] ->
      Alcotest.(check bool) "84 feasible" true p84.Sensitivity.feasible;
      Alcotest.(check bool) "10 infeasible" false p10.Sensitivity.feasible;
      Alcotest.(check bool) "0 infeasible" false p0.Sensitivity.feasible
  | _ -> Alcotest.fail "3 points expected")

let test_sensitivity_clock_and_delay () =
  let spec = exp1 2 in
  let c = Sensitivity.main_clock spec ~values:[ 300.; -1. ] in
  (match c.Sensitivity.points with
  | [ ok; bad ] ->
      Alcotest.(check bool) "300 feasible" true ok.Sensitivity.feasible;
      Alcotest.(check bool) "negative clock infeasible" false bad.Sensitivity.feasible
  | _ -> Alcotest.fail "2 points expected");
  let d = Sensitivity.delay_constraint spec ~values:[ 30000.; 1. ] in
  Alcotest.(check int) "2 points" 2 (List.length d.Sensitivity.points)

let test_sensitivity_grid () =
  let spec = exp1 2 in
  let grid =
    Sensitivity.performance_pins_grid spec ~perf_values:[ 30000.; 3000. ]
      ~pin_values:[ 84; 10 ]
  in
  (* generous corner feasible, starved corner not; map renders *)
  Alcotest.(check bool) "loose corner feasible" true grid.Sensitivity.cells.(0).(0);
  Alcotest.(check bool) "tight corner infeasible" false grid.Sensitivity.cells.(1).(1);
  let text = Sensitivity.render_grid grid in
  Alcotest.(check bool) "renders" true (String.length text > 20)

let test_sensitivity_render () =
  let spec = exp1 1 in
  let s = Sensitivity.performance_constraint spec ~values:[ 30000. ] in
  let text = Sensitivity.render s in
  Alcotest.(check bool) "mentions parameter" true (contains text "performance")

let test_explore_with_no_viable_partition () =
  (* a package too small for any prediction: exploration must terminate
     with a clean empty result under every heuristic *)
  let g = Chop_dfg.Benchmarks.ar_lattice_filter () in
  let tiny =
    Chop_tech.Chip.make ~name:"tiny" ~width:50. ~height:50. ~pins:84
      ~pad_delay:25. ~pad_area:1.
  in
  let spec =
    Rig.custom ~graph:g ~partitioning:(Chop_dfg.Partition.whole g) ~package:tiny
      ~clocks:(Chop_tech.Clocking.make ~main:300. ~datapath_ratio:10 ~transfer_ratio:1)
      ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle)
      ~criteria:(Chop_bad.Feasibility.criteria ~perf:30000. ~delay:30000. ())
      ()
  in
  List.iter
    (fun h ->
      let report = explore_run h spec in
      Alcotest.(check (list int)) "no feasible designs" []
        (List.map
           (fun s -> s.Integration.ii_main)
           report.Explore.outcome.Search.feasible))
    [ Explore.Enumeration; Explore.Iterative; Explore.Branch_bound ]

(* ------------------------------------------------------------------ *)
(* End-to-end robustness *)

let full_pipeline_never_crashes =
  QCheck.Test.make ~name:"random specs run the whole pipeline cleanly" ~count:25
    QCheck.(triple (8 -- 40) (0 -- 1000) (triple (1 -- 3) bool bool))
    (fun (ops, seed, (k, multicycle, pkg84)) ->
      let graph = Chop_dfg.Benchmarks.random_dag ~ops ~seed () in
      let levels = List.length (Chop_dfg.Analysis.levels graph) in
      let k = max 1 (min k levels) in
      let partitioning =
        if k = 1 then Chop_dfg.Partition.whole graph
        else Chop_dfg.Partition.by_levels graph ~k
      in
      let spec =
        Rig.custom ~graph ~partitioning
          ~package:(if pkg84 then Chop_tech.Mosis.package_84 else Chop_tech.Mosis.package_64)
          ~clocks:
            (Chop_tech.Clocking.make ~main:300.
               ~datapath_ratio:(if multicycle then 1 else 10)
               ~transfer_ratio:1)
          ~style:
            (Chop_tech.Style.both
               (if multicycle then Chop_tech.Style.Multi_cycle
                else Chop_tech.Style.Single_cycle))
          ~criteria:(Chop_bad.Feasibility.criteria ~perf:60000. ~delay:60000. ())
          ()
      in
      (* the whole pipeline: BAD -> both heuristics -> report -> simulate *)
      let ctx = Integration.context spec in
      List.for_all
        (fun h ->
          let report = explore_run h spec in
          List.for_all
            (fun s ->
              let text = Report.guideline spec s in
              let sim = Sysim.simulate ctx ~instances:4 s in
              (* the integration model budgets pins in aggregate; the greedy
                 simulator can fragment the packing, so random stress allows
                 50% slack (the curated sysim tests hold the strict 10%) *)
              String.length text > 0
              && sim.Sysim.first_latency > 0
              && Sysim.throughput_consistent ~tolerance:0.5 s sim)
            (Chop_util.Listx.take 2 report.Explore.outcome.Search.feasible))
        [ Explore.Enumeration; Explore.Iterative ])

(* ------------------------------------------------------------------ *)
(* Rig *)

let test_rig_uniform_chips () =
  let g = Chop_dfg.Benchmarks.ar_lattice_filter () in
  let pg = Chop_dfg.Partition.by_levels g ~k:3 in
  let chips, assignment = Rig.uniform_chips pg Chop_tech.Mosis.package_84 in
  Alcotest.(check int) "3 chips" 3 (List.length chips);
  Alcotest.(check int) "3 assignments" 3 (List.length assignment)

let test_rig_experiments_valid () =
  List.iter
    (fun k ->
      let s1 = exp1 k and s2 = exp2 k in
      Alcotest.(check int) "chips = partitions (exp1)" k (List.length s1.Spec.chips);
      Alcotest.(check int) "chips = partitions (exp2)" k (List.length s2.Spec.chips))
    [ 1; 2; 3 ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "chop_core"
    [
      ( "spec",
        [
          tc "builds" `Quick test_spec_builds;
          tc "rejects unassigned" `Quick test_spec_rejects_unassigned_partition;
          tc "rejects unknown chip" `Quick test_spec_rejects_unknown_chip;
          tc "rejects undeclared memory" `Quick test_spec_rejects_undeclared_memory;
          tc "rejects hostless memory" `Quick test_spec_rejects_hostless_onchip_memory;
          tc "accessors" `Quick test_spec_accessors;
        ] );
      ( "transfer",
        [
          tc "single partition io" `Quick test_transfer_single_partition;
          tc "two partitions" `Quick test_transfer_two_partitions;
          tc "same-chip flow" `Quick test_transfer_same_chip_flow_needs_no_pins;
          tc "control pins" `Quick test_transfer_control_pins;
          tc "memory lines" `Quick test_transfer_memory_lines;
          tc "chips_of" `Quick test_chips_of;
        ] );
      ( "integration",
        [
          tc "feasible combo" `Quick test_integration_feasible_combo;
          tc "rejects wrong combination" `Quick test_integration_rejects_wrong_combination;
          tc "rate mismatch" `Quick test_integration_rate_mismatch_detected;
          tc "buffer formula" `Quick test_integration_buffer_formula;
          tc "dtm on both chips" `Quick test_integration_dtm_on_both_chips;
          tc "memory resource" `Quick test_integration_memory_resource;
          tc "transfer clock floor" `Quick test_integration_transfer_clock_floor;
          tc "total area + objectives" `Quick test_total_area_and_objectives;
          tc "failure kinds" `Quick test_integration_failure_kinds;
          tc "structural pin exhaustion" `Quick test_integration_structural_pin_exhaustion;
          tc "shared remote memory" `Quick test_integration_shared_remote_memory;
        ] );
      ( "search",
        [
          tc "2 partitions faster (exp1 shape)" `Quick test_exp1_shape_two_partitions_faster;
          tc "exp2 beats exp1 (multi-cycle)" `Quick test_exp2_reaches_higher_performance;
          tc "enum and iter agree on best ii" `Quick test_enum_vs_iter_same_best_ii;
          tc "iter cheaper on large spaces" `Quick test_iter_fewer_trials_on_large_space;
          tc "bad stats" `Quick test_explore_bad_stats;
          tc "branch-and-bound matches enum" `Quick test_branch_bound_matches_enumeration;
          tc "branch-and-bound prunes" `Quick test_branch_bound_never_more_integrations;
          tc "keep-all explodes space" `Quick test_keep_all_explodes_space;
          tc "candidate intervals" `Quick test_candidate_intervals_within_constraint;
          tc "feasible sorted" `Quick test_feasible_sorted_fastest_first;
        ] );
      ( "report",
        [
          tc "guideline content" `Quick test_guideline_content;
          tc "summary row" `Quick test_summary_row;
          tc "timeline + csv" `Quick test_timeline_and_csv;
        ] );
      ( "advisor",
        [
          tc "what_if" `Quick test_advisor_what_if;
          tc "move partition" `Quick test_advisor_move_partition;
          tc "move operation" `Quick test_advisor_move_operation;
          tc "move rejects cycle" `Quick test_advisor_move_operation_rejects_cycle;
          tc "swap package" `Quick test_advisor_swap_package;
          tc "tight constraints infeasible" `Quick test_advisor_set_constraints_breaks_feasibility;
          tc "rehost memory" `Quick test_advisor_rehost_memory;
          tc "optimize memory hosts" `Quick test_advisor_optimize_memory_hosts;
          tc "compare specs" `Quick test_advisor_compare_specs;
        ] );
      ( "specfile",
        [
          tc "parse" `Quick test_specfile_parse;
          tc "roundtrip" `Quick test_specfile_roundtrip;
          tc "roundtrip experiment" `Quick test_specfile_roundtrip_experiment;
          tc "errors" `Quick test_specfile_errors;
          tc "line numbers" `Quick test_specfile_line_numbers;
          tc "load from file" `Quick test_specfile_load_from_file;
          tc "roundtrip all benchmarks" `Quick test_specfile_roundtrip_all_benchmarks;
          tc "duplicate keys rejected" `Quick test_specfile_duplicate_keys_rejected;
          tc "impl unknown model" `Quick test_specfile_impl_unknown_model;
          tc "processor/impl roundtrip" `Quick test_specfile_processor_impl_roundtrip;
        ] );
      ( "sysim",
        [
          tc "matches prediction" `Quick test_sysim_matches_prediction;
          tc "steady-state rate" `Quick test_sysim_steady_state_rate;
          tc "single instance" `Quick test_sysim_single_instance;
          tc "rejects failed integration" `Quick test_sysim_rejects_failed_integration;
          tc "validates instances" `Quick test_sysim_validates_instances;
        ] );
      ( "sensitivity",
        [
          tc "perf monotone" `Quick test_sensitivity_perf_monotone;
          tc "cliff" `Quick test_sensitivity_cliff;
          tc "pins" `Quick test_sensitivity_pins;
          tc "clock + delay" `Quick test_sensitivity_clock_and_delay;
          tc "render" `Quick test_sensitivity_render;
          tc "2d grid" `Quick test_sensitivity_grid;
        ] );
      ( "degenerate",
        [ tc "no viable partition" `Quick test_explore_with_no_viable_partition ] );
      ( "robustness",
        [ QCheck_alcotest.to_alcotest full_pipeline_never_crashes ] );
      ( "rig",
        [
          tc "uniform chips" `Quick test_rig_uniform_chips;
          tc "experiments valid" `Quick test_rig_experiments_valid;
        ] );
    ]
