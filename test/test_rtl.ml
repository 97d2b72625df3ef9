(* Tests for chop_rtl: resource binding, netlist construction, the Verilog
   dump and prediction-vs-synthesis validation. *)

let ar () = Chop_dfg.Benchmarks.ar_lattice_filter ()

(* one-shot helpers over a fresh session (the deprecated wrappers are gone) *)
let explore_run heuristic spec =
  Chop.Explore.with_engine
    (Chop.Explore.Config.make ~heuristic ())
    spec Chop.Explore.Session.run

let explore_predictions spec =
  Chop.Explore.with_engine Chop.Explore.Config.default spec
    Chop.Explore.Session.predictions


let sched ?(g = ar ()) alloc =
  Chop_sched.List_sched.run ~latency:(fun _ -> 1) ~alloc g

let mset names =
  List.map
    (fun name -> Chop_tech.Component.find Chop_tech.Mosis.experiment_library ~name)
    names

let clocks1 = Chop_tech.Clocking.make ~main:300. ~datapath_ratio:10 ~transfer_ratio:1

let cfg1 () =
  Chop_bad.Predictor.config ~library:Chop_tech.Mosis.experiment_library
    ~clocks:clocks1 ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle) ()

(* ------------------------------------------------------------------ *)
(* Binding *)

let test_fu_binding_respects_alloc () =
  let s = sched [ ("add", 2); ("mult", 3) ] in
  let binding = Chop_rtl.Binding.bind_functional_units s in
  Alcotest.(check int) "every op bound" 28 (List.length binding);
  List.iter
    (fun (_, b) ->
      let cap = Chop_sched.Schedule.alloc_get s.Chop_sched.Schedule.alloc b.Chop_rtl.Binding.fu_class in
      Alcotest.(check bool) "instance within allocation" true
        (b.Chop_rtl.Binding.fu_index < cap))
    binding

let test_fu_binding_no_overlap () =
  let s = sched [ ("add", 2); ("mult", 2) ] in
  let binding = Chop_rtl.Binding.bind_functional_units s in
  (* two ops on the same instance must not overlap in time *)
  List.iter
    (fun (id1, b1) ->
      List.iter
        (fun (id2, b2) ->
          if id1 < id2 && b1 = b2 then begin
            let s1 = Chop_sched.Schedule.start s id1
            and f1 = Chop_sched.Schedule.finish s id1
            and s2 = Chop_sched.Schedule.start s id2
            and f2 = Chop_sched.Schedule.finish s id2 in
            Alcotest.(check bool) "disjoint occupancy" true (f1 <= s2 || f2 <= s1)
          end)
        binding)
    binding

let test_value_intervals_positive () =
  let s = sched [ ("add", 2); ("mult", 2) ] in
  let ivs = Chop_rtl.Binding.value_intervals s in
  Alcotest.(check bool) "some intervals" true (List.length ivs > 10);
  List.iter
    (fun iv ->
      Alcotest.(check bool) "death after birth" true
        (iv.Chop_rtl.Binding.death > iv.Chop_rtl.Binding.birth))
    ivs

let test_register_binding_disjoint_lifetimes () =
  let s = sched [ ("add", 2); ("mult", 2) ] in
  let assignment, count = Chop_rtl.Binding.bind_registers s in
  Alcotest.(check bool) "registers used" true (count > 0);
  let ivs = Chop_rtl.Binding.value_intervals s in
  let interval_of p =
    List.find (fun iv -> iv.Chop_rtl.Binding.producer = p) ivs
  in
  List.iter
    (fun (p1, r1) ->
      List.iter
        (fun (p2, r2) ->
          if p1 < p2 && r1 = r2 then begin
            let a = interval_of p1 and b = interval_of p2 in
            Alcotest.(check bool) "sharing implies disjoint" true
              (a.Chop_rtl.Binding.death <= b.Chop_rtl.Binding.birth
              || b.Chop_rtl.Binding.death <= a.Chop_rtl.Binding.birth)
          end)
        assignment)
    assignment

let test_register_count_matches_lifetime_peak () =
  (* left-edge on interval graphs is optimal: register count = peak number
     of simultaneously live values = BAD's lifetime prediction *)
  let s = sched [ ("add", 3); ("mult", 4) ] in
  let _, count = Chop_rtl.Binding.bind_registers s in
  let demand = Chop_sched.Lifetime.analyze s in
  Alcotest.(check int) "bits agree" demand.Chop_sched.Lifetime.register_bits
    (count * 16)

let binding_valid_on_random_dags =
  QCheck.Test.make ~name:"binding is consistent on random dags" ~count:30
    QCheck.(pair (5 -- 30) (0 -- 300))
    (fun (ops, seed) ->
      let g = Chop_dfg.Benchmarks.random_dag ~ops ~seed () in
      let alloc = List.map (fun (c, _) -> (c, 2)) (Chop_dfg.Graph.op_profile g) in
      let s = Chop_sched.List_sched.run ~latency:(fun _ -> 1) ~alloc g in
      let binding = Chop_rtl.Binding.bind_functional_units s in
      let assignment, count = Chop_rtl.Binding.bind_registers s in
      List.length binding = ops
      && List.for_all (fun (_, r) -> r < count) assignment)

(* ------------------------------------------------------------------ *)
(* Synth / Netlist *)

let test_netlist_structure () =
  let s = sched [ ("add", 2); ("mult", 2) ] in
  let nl = Chop_rtl.Synth.netlist ~module_set:(mset [ "add2"; "mul2" ]) s in
  Alcotest.(check int) "4 FUs" 4 (List.length nl.Chop_rtl.Netlist.fus);
  Alcotest.(check bool) "registers" true (nl.Chop_rtl.Netlist.registers.Chop_rtl.Netlist.count > 0);
  Alcotest.(check bool) "muxes" true (Chop_rtl.Netlist.mux_bits nl > 0);
  Alcotest.(check int) "fsm states = schedule length"
    s.Chop_sched.Schedule.length nl.Chop_rtl.Netlist.controller.Chop_rtl.Netlist.states;
  Alcotest.(check bool) "connections" true
    (List.length nl.Chop_rtl.Netlist.connections > 10)

let test_netlist_area_positive_and_reasonable () =
  let s = sched [ ("add", 2); ("mult", 2) ] in
  let nl = Chop_rtl.Synth.netlist ~module_set:(mset [ "add2"; "mul2" ]) s in
  let area = Chop_rtl.Netlist.cell_area nl in
  (* at least the functional units *)
  Alcotest.(check bool) "at least FU area" true (area >= (2. *. 2880.) +. (2. *. 9800.));
  Alcotest.(check bool) "below the die" true (area < 112000.)

let test_netlist_missing_class_rejected () =
  let s = sched [ ("add", 2); ("mult", 2) ] in
  match Chop_rtl.Synth.netlist ~module_set:(mset [ "add2" ]) s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing multiplier accepted"

let test_netlist_port_fanin_bounded_by_sharing () =
  (* a port mux can never select among more sources than the operations the
     unit hosts; with a single multiplier, port steering must exist.
     (Interestingly, the *register file* damps serial fan-in: short
     lifetimes collapse many sources onto few registers — one reason BAD's
     mux prediction is only approximate, which Validate quantifies.) *)
  List.iter
    (fun alloc ->
      let s = sched alloc in
      let binding = Chop_rtl.Binding.bind_functional_units s in
      let nl = Chop_rtl.Synth.netlist ~module_set:(mset [ "add2"; "mul2" ]) s in
      List.iter
        (fun f ->
          let hosted =
            List.length
              (List.filter
                 (fun (_, b) ->
                   Printf.sprintf "%s_%d" b.Chop_rtl.Binding.fu_class
                     b.Chop_rtl.Binding.fu_index
                   = f.Chop_rtl.Netlist.fu_name)
                 binding)
          in
          List.iter
            (fun m ->
              Alcotest.(check bool) "fanin <= hosted ops" true
                (m.Chop_rtl.Netlist.fanin <= hosted))
            f.Chop_rtl.Netlist.port_muxes)
        nl.Chop_rtl.Netlist.fus)
    [ [ ("add", 1); ("mult", 1) ]; [ ("add", 2); ("mult", 3) ] ];
  let serial = Chop_rtl.Synth.netlist ~module_set:(mset [ "add2"; "mul2" ]) (sched [ ("add", 1); ("mult", 1) ]) in
  Alcotest.(check bool) "single units still steer" true
    (List.exists (fun f -> f.Chop_rtl.Netlist.port_muxes <> []) serial.Chop_rtl.Netlist.fus)

let test_netlist_pipelined_folding () =
  let s = sched [ ("add", 3); ("mult", 4) ] in
  let seq = Chop_rtl.Synth.netlist ~module_set:(mset [ "add2"; "mul2" ]) s in
  let ii = Chop_sched.Pipeline.min_ii s in
  if ii < s.Chop_sched.Schedule.length then begin
    let pipe = Chop_rtl.Synth.netlist ~ii ~module_set:(mset [ "add2"; "mul2" ]) s in
    Alcotest.(check bool) "folded register file at least as large" true
      (pipe.Chop_rtl.Netlist.registers.Chop_rtl.Netlist.count
      >= seq.Chop_rtl.Netlist.registers.Chop_rtl.Netlist.count);
    Alcotest.(check int) "controller wraps at ii" ii
      pipe.Chop_rtl.Netlist.controller.Chop_rtl.Netlist.states
  end;
  match Chop_rtl.Synth.netlist ~ii:0 ~module_set:(mset [ "add2"; "mul2" ]) s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ii 0 accepted"

let test_netlist_memory_ops () =
  let g = Chop_dfg.Benchmarks.memory_pipeline ~blocks:("A", "B") () in
  let alloc =
    List.map
      (fun (c, _) -> (c, 1))
      (Chop_dfg.Graph.op_profile g)
  in
  let s = Chop_sched.List_sched.run ~latency:(fun _ -> 1) ~alloc g in
  let nl = Chop_rtl.Synth.netlist ~module_set:(mset [ "add2"; "mul2" ]) s in
  (* memory ports synthesize to the memory interface, not FUs *)
  Alcotest.(check int) "2 datapath FUs" 2 (List.length nl.Chop_rtl.Netlist.fus)

(* ------------------------------------------------------------------ *)
(* Verilog *)

let test_verilog_emission () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let s = sched [ ("add", 2); ("mult", 2) ] in
  let nl = Chop_rtl.Synth.netlist ~name:"ar demo!" ~module_set:(mset [ "add2"; "mul2" ]) s in
  let v = Chop_rtl.Verilog.emit nl in
  Alcotest.(check bool) "module header sanitized" true (contains v "module ar_demo_");
  Alcotest.(check bool) "registers declared" true (contains v "reg [15:0] reg0;");
  Alcotest.(check bool) "endmodule" true (contains v "endmodule");
  Alcotest.(check bool) "controller" true (contains v "assign done")

(* ------------------------------------------------------------------ *)
(* Floorplan *)

let test_floorplan_covers_blocks () =
  let s = sched [ ("add", 2); ("mult", 2) ] in
  let nl = Chop_rtl.Synth.netlist ~module_set:(mset [ "add2"; "mul2" ]) s in
  let blocks = Chop_rtl.Floorplan.blocks_of_netlist nl in
  (* 4 FUs + register file + steering + controller *)
  Alcotest.(check int) "7 blocks" 7 (List.length blocks);
  let fp = Chop_rtl.Floorplan.plan ~core_width:300. ~core_height:340. blocks in
  Alcotest.(check int) "all placed" 7 (List.length fp.Chop_rtl.Floorplan.placements);
  Alcotest.(check bool) "utilization sane" true
    (fp.Chop_rtl.Floorplan.utilization > 0. && fp.Chop_rtl.Floorplan.utilization <= 1.)

let test_floorplan_placements_inside_and_disjoint () =
  let s = sched [ ("add", 2); ("mult", 2) ] in
  let nl = Chop_rtl.Synth.netlist ~module_set:(mset [ "add2"; "mul2" ]) s in
  let fp =
    Chop_rtl.Floorplan.plan ~core_width:300. ~core_height:340.
      (Chop_rtl.Floorplan.blocks_of_netlist nl)
  in
  let eps = 1e-6 in
  List.iter
    (fun p ->
      let open Chop_rtl.Floorplan in
      Alcotest.(check bool) "inside core" true
        (p.x >= -.eps && p.y >= -.eps
        && p.x +. p.w <= 300. +. eps
        && p.y +. p.h <= 340. +. eps);
      (* a leaf's rectangle is at least its block's area *)
      Alcotest.(check bool) "area sufficient" true
        (p.w *. p.h +. eps >= p.block.block_area))
    fp.Chop_rtl.Floorplan.placements;
  (* pairwise disjoint *)
  let open Chop_rtl.Floorplan in
  List.iteri
    (fun i p1 ->
      List.iteri
        (fun j p2 ->
          if i < j then
            Alcotest.(check bool) "disjoint" true
              (p1.x +. p1.w <= p2.x +. eps
              || p2.x +. p2.w <= p1.x +. eps
              || p1.y +. p1.h <= p2.y +. eps
              || p2.y +. p2.h <= p1.y +. eps))
        fp.placements)
    fp.placements

let test_floorplan_rejects_overflow () =
  let blocks = [ { Chop_rtl.Floorplan.block_name = "big"; block_area = 1e6 } ] in
  match Chop_rtl.Floorplan.plan ~core_width:100. ~core_height:100. blocks with
  | exception Chop_rtl.Floorplan.Does_not_fit _ -> ()
  | _ -> Alcotest.fail "overflow accepted"

let test_floorplan_validates () =
  (match Chop_rtl.Floorplan.plan ~core_width:0. ~core_height:10. [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad core accepted");
  match
    Chop_rtl.Floorplan.plan ~core_width:10. ~core_height:10. []
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty blocks accepted"

let test_floorplan_on_package () =
  let s = sched [ ("add", 2); ("mult", 2) ] in
  let nl = Chop_rtl.Synth.netlist ~module_set:(mset [ "add2"; "mul2" ]) s in
  (match Chop_rtl.Floorplan.on_package Chop_tech.Mosis.package_84 nl with
  | Ok fp ->
      Alcotest.(check bool) "fits the 84-pin die" true
        (fp.Chop_rtl.Floorplan.utilization <= 1.)
  | Error e -> Alcotest.fail e);
  (* a design too big for the die must be rejected gracefully *)
  let huge = sched [ ("add", 3); ("mult", 4) ] in
  let nl2 = Chop_rtl.Synth.netlist ~module_set:(mset [ "add1"; "mul1" ]) huge in
  match Chop_rtl.Floorplan.on_package Chop_tech.Mosis.package_84 nl2 with
  | Ok _ -> Alcotest.fail "4 x mul1 cannot fit a MOSIS die"
  | Error _ -> ()

let floorplan_random_netlists =
  QCheck.Test.make ~name:"floorplans are consistent on random designs" ~count:20
    QCheck.(pair (6 -- 25) (0 -- 200))
    (fun (ops, seed) ->
      let g = Chop_dfg.Benchmarks.random_dag ~ops ~seed () in
      let alloc = List.map (fun (c, _) -> (c, 2)) (Chop_dfg.Graph.op_profile g) in
      let s = Chop_sched.List_sched.run ~latency:(fun _ -> 1) ~alloc g in
      let nl = Chop_rtl.Synth.netlist ~module_set:(mset [ "add3"; "mul3" ]) s in
      match Chop_rtl.Floorplan.on_package Chop_tech.Mosis.package_84 nl with
      | Ok fp ->
          List.length fp.Chop_rtl.Floorplan.placements
          = List.length (Chop_rtl.Floorplan.blocks_of_netlist nl)
      | Error _ -> true (* too big is a legal outcome *))

(* ------------------------------------------------------------------ *)
(* Validate *)

let nonpipelined_predictions () =
  let cfg = cfg1 () in
  let preds = Chop_bad.Predictor.predict cfg ~label:"P1" (ar ()) in
  ( cfg,
    List.filter
      (fun p -> p.Chop_bad.Prediction.style = Chop_tech.Style.Non_pipelined)
      preds )

let test_validate_pipelined_registers () =
  (* pipelined predictions now validate too: the synthesized register file
     is folded at the prediction's initiation interval *)
  let cfg = cfg1 () in
  let preds = Chop_bad.Predictor.predict cfg ~label:"P1" (ar ()) in
  let pipelined =
    List.filter
      (fun p -> p.Chop_bad.Prediction.style = Chop_tech.Style.Pipelined)
      preds
  in
  List.iter
    (fun p ->
      let c = Chop_rtl.Validate.compare_with cfg p (ar ()) in
      Alcotest.(check int) "register bits exact (folded)"
        c.Chop_rtl.Validate.predicted_register_bits
        c.Chop_rtl.Validate.actual_register_bits)
    (Chop_util.Listx.take 6 pipelined)

let test_validate_registers_exact () =
  (* BAD's register prediction equals left-edge binding for non-pipelined
     designs: lifetime peak = interval-graph chromatic number *)
  let cfg, preds = nonpipelined_predictions () in
  List.iter
    (fun p ->
      let c = Chop_rtl.Validate.compare_with cfg p (ar ()) in
      Alcotest.(check int) "register bits exact"
        c.Chop_rtl.Validate.predicted_register_bits
        c.Chop_rtl.Validate.actual_register_bits)
    (Chop_util.Listx.take 8 preds)

let test_validate_area_bounded () =
  let cfg, preds = nonpipelined_predictions () in
  List.iter
    (fun p ->
      let c = Chop_rtl.Validate.compare_with cfg p (ar ()) in
      Alcotest.(check bool) "actual cell area within predicted bound" true
        c.Chop_rtl.Validate.area_within_bounds)
    (Chop_util.Listx.take 8 preds)

let test_validate_mux_error_moderate () =
  let cfg, preds = nonpipelined_predictions () in
  List.iter
    (fun p ->
      let c = Chop_rtl.Validate.compare_with cfg p (ar ()) in
      Alcotest.(check bool) "mux error within 60%" true
        (Float.abs c.Chop_rtl.Validate.mux_error <= 0.6))
    (Chop_util.Listx.take 8 preds)

let test_accuracy_report_renders () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let cfg, preds = nonpipelined_predictions () in
  let text = Chop_rtl.Validate.accuracy_report cfg (ar ()) (Chop_util.Listx.take 4 preds) in
  Alcotest.(check bool) "mean error line" true (contains text "mean absolute error")

(* ------------------------------------------------------------------ *)
(* Rtlsim *)

let ar_consts g v =
  List.filter_map
    (fun n ->
      if n.Chop_dfg.Graph.op = Chop_dfg.Op.Const then Some (n.Chop_dfg.Graph.name, v)
      else None)
    (Chop_dfg.Graph.nodes g)

let test_rtlsim_matches_eval () =
  let g = ar () in
  let inputs = [ ("f_in", 37); ("b_in", 113) ] in
  let consts = ar_consts g 3 in
  let reference =
    List.sort compare (Chop_dfg.Eval.run ~inputs ~consts g)
  in
  List.iter
    (fun alloc ->
      let s = Chop_sched.List_sched.run ~latency:(fun _ -> 1) ~alloc g in
      let got = List.sort compare (Chop_rtl.Rtlsim.run ~inputs ~consts s) in
      Alcotest.(check (list (pair string int))) "bound datapath = behavior"
        reference got)
    [ [ ("add", 1); ("mult", 1) ]; [ ("add", 2); ("mult", 3) ];
      [ ("add", 12); ("mult", 16) ] ]

let test_rtlsim_multicycle () =
  let g = ar () in
  let inputs = [ ("f_in", 5); ("b_in", 9) ] in
  let consts = ar_consts g 2 in
  let latency n =
    if n.Chop_dfg.Graph.op = Chop_dfg.Op.Mult then 3 else 1
  in
  let s = Chop_sched.List_sched.run ~latency ~alloc:[ ("add", 2); ("mult", 2) ] g in
  Alcotest.(check (list (pair string int))) "multicycle binding"
    (List.sort compare (Chop_dfg.Eval.run ~inputs ~consts g))
    (List.sort compare (Chop_rtl.Rtlsim.run ~inputs ~consts s))

let test_rtlsim_memory () =
  let g = Chop_dfg.Benchmarks.memory_pipeline ~blocks:("A", "B") () in
  let alloc = List.map (fun (c, _) -> (c, 1)) (Chop_dfg.Graph.op_profile g) in
  let s = Chop_sched.List_sched.run ~latency:(fun _ -> 1) ~alloc g in
  let memory = Chop_dfg.Eval.constant_memory 7 in
  let got = Chop_rtl.Rtlsim.run ~consts:(ar_consts g 2) ~memory s in
  Alcotest.(check (list (pair string int))) "acc" [ ("y", 28) ] got;
  Alcotest.(check (list (pair string int))) "write recorded" [ ("B", 28) ]
    memory.Chop_dfg.Eval.writes

let rtlsim_equals_eval_on_random =
  QCheck.Test.make ~name:"bound execution equals functional evaluation"
    ~count:60
    QCheck.(triple (5 -- 35) (0 -- 500) (pair (1 -- 3) (0 -- 4095)))
    (fun (ops, seed, (units, stim)) ->
      let g = Chop_dfg.Benchmarks.random_dag ~ops ~seed () in
      let alloc = List.map (fun (c, _) -> (c, units)) (Chop_dfg.Graph.op_profile g) in
      let s = Chop_sched.List_sched.run ~latency:(fun _ -> 1) ~alloc g in
      let inputs =
        List.map
          (fun n -> (n.Chop_dfg.Graph.name, (stim + n.Chop_dfg.Graph.id) land 0xfff))
          (Chop_dfg.Graph.inputs g)
      in
      List.sort compare (Chop_dfg.Eval.run ~inputs g)
      = List.sort compare (Chop_rtl.Rtlsim.run ~inputs s))

(* ------------------------------------------------------------------ *)
(* System *)

let test_system_synthesis_fits () =
  let spec = Chop.Rig.experiment1 ~partitions:2 () in
  let ctx = Chop.Integration.context spec in
  let report = explore_run Chop.Explore.Iterative spec in
  match report.Chop.Explore.outcome.Chop.Search.feasible with
  | [] -> Alcotest.fail "expected a feasible system"
  | best :: _ ->
      let sys = Chop_rtl.System.synthesize ctx best in
      Alcotest.(check int) "two chips" 2 (List.length sys.Chop_rtl.System.chips);
      Alcotest.(check bool) "every chip floorplans" true
        (Chop_rtl.System.all_fit sys);
      List.iter
        (fun cd ->
          Alcotest.(check int) "one PU per chip" 1
            (List.length cd.Chop_rtl.System.pu_netlists);
          Alcotest.(check bool) "has transfer modules" true
            (cd.Chop_rtl.System.dtms <> []);
          (* a CHOP-feasible chip must synthesize below its usable area *)
          Alcotest.(check bool) "cell area below usable" true
            (cd.Chop_rtl.System.total_cell_area
            < Chop_tech.Chip.project_area cd.Chop_rtl.System.package))
        sys.Chop_rtl.System.chips;
      Alcotest.(check int) "verilog per chip" 2
        (List.length sys.Chop_rtl.System.verilog)

let test_system_multi_partition_chip () =
  (* Figure 2 style: two partitions on one chip synthesize to two PUs *)
  let g = Chop_dfg.Benchmarks.ar_lattice_filter () in
  let pg = Chop_dfg.Partition.by_levels g ~k:2 in
  let spec =
    Chop.Spec.make ~graph:g ~library:Chop_tech.Mosis.experiment_library
      ~chips:[ { Chop.Spec.chip_name = "c"; package = Chop_tech.Mosis.package_84 } ]
      ~partitioning:pg
      ~assignment:[ ("P1", "c"); ("P2", "c") ]
      ~clocks:(Chop_tech.Clocking.make ~main:300. ~datapath_ratio:10 ~transfer_ratio:1)
      ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle)
      ~criteria:(Chop_bad.Feasibility.criteria ~perf:30000. ~delay:30000. ())
      ()
  in
  let ctx = Chop.Integration.context spec in
  let report = explore_run Chop.Explore.Iterative spec in
  match report.Chop.Explore.outcome.Chop.Search.feasible with
  | [] -> () (* both halves on one die may simply not fit: a legal outcome *)
  | best :: _ ->
      let sys = Chop_rtl.System.synthesize ctx best in
      let cd = List.hd sys.Chop_rtl.System.chips in
      Alcotest.(check int) "two PUs on the chip" 2
        (List.length cd.Chop_rtl.System.pu_netlists)

let test_system_rejects_failed_integration () =
  let spec = Chop.Rig.experiment1 ~partitions:2 () in
  let ctx = Chop.Integration.context spec in
  let per_partition, _ = explore_predictions spec in
  let comb = List.map (fun (l, ps) -> (l, List.hd ps)) per_partition in
  let broken = Chop.Integration.integrate ctx ~ii_target:0 comb in
  if broken.Chop.Integration.chip_reports = [] then
    match Chop_rtl.System.synthesize ctx broken with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "failed integration synthesized"

let test_system_summary_renders () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let spec = Chop.Rig.experiment1 ~partitions:2 () in
  let ctx = Chop.Integration.context spec in
  let report = explore_run Chop.Explore.Iterative spec in
  match report.Chop.Explore.outcome.Chop.Search.feasible with
  | [] -> Alcotest.fail "expected a feasible system"
  | best :: _ ->
      let sys = Chop_rtl.System.synthesize ctx best in
      let text = Chop_rtl.System.summary sys in
      Alcotest.(check bool) "mentions chips" true (contains text "chip1")

let test_system_board_verilog () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let spec = Chop.Rig.experiment1 ~partitions:2 () in
  let ctx = Chop.Integration.context spec in
  let report = explore_run Chop.Explore.Iterative spec in
  match report.Chop.Explore.outcome.Chop.Search.feasible with
  | [] -> Alcotest.fail "expected a feasible system"
  | best :: _ ->
      let sys = Chop_rtl.System.synthesize ctx best in
      let top = Chop_rtl.System.board_verilog ctx best sys in
      Alcotest.(check bool) "module header" true
        (contains top "module ar_lattice_filter_board");
      Alcotest.(check bool) "buses declared" true (contains top "_bus;");
      Alcotest.(check bool) "chips instantiated" true (contains top "chip_chip1");
      Alcotest.(check bool) "handshake" true (contains top "_req, ")

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "chop_rtl"
    [
      ( "binding",
        [
          tc "fu binding respects alloc" `Quick test_fu_binding_respects_alloc;
          tc "fu binding no overlap" `Quick test_fu_binding_no_overlap;
          tc "value intervals" `Quick test_value_intervals_positive;
          tc "register sharing disjoint" `Quick test_register_binding_disjoint_lifetimes;
          tc "register count = lifetime peak" `Quick test_register_count_matches_lifetime_peak;
          QCheck_alcotest.to_alcotest binding_valid_on_random_dags;
        ] );
      ( "synth",
        [
          tc "structure" `Quick test_netlist_structure;
          tc "area sane" `Quick test_netlist_area_positive_and_reasonable;
          tc "missing class rejected" `Quick test_netlist_missing_class_rejected;
          tc "port fanin bounded by sharing" `Quick test_netlist_port_fanin_bounded_by_sharing;
          tc "pipelined folding" `Quick test_netlist_pipelined_folding;
          tc "memory ops" `Quick test_netlist_memory_ops;
        ] );
      ("verilog", [ tc "emission" `Quick test_verilog_emission ]);
      ( "floorplan",
        [
          tc "covers blocks" `Quick test_floorplan_covers_blocks;
          tc "inside + disjoint" `Quick test_floorplan_placements_inside_and_disjoint;
          tc "rejects overflow" `Quick test_floorplan_rejects_overflow;
          tc "validates" `Quick test_floorplan_validates;
          tc "on package" `Quick test_floorplan_on_package;
          QCheck_alcotest.to_alcotest floorplan_random_netlists;
        ] );
      ( "rtlsim",
        [
          tc "matches eval" `Quick test_rtlsim_matches_eval;
          tc "multicycle" `Quick test_rtlsim_multicycle;
          tc "memory" `Quick test_rtlsim_memory;
          QCheck_alcotest.to_alcotest rtlsim_equals_eval_on_random;
        ] );
      ( "system",
        [
          tc "synthesis fits" `Quick test_system_synthesis_fits;
          tc "multi-partition chip" `Quick test_system_multi_partition_chip;
          tc "rejects failed integration" `Quick test_system_rejects_failed_integration;
          tc "summary" `Quick test_system_summary_renders;
          tc "board verilog" `Quick test_system_board_verilog;
        ] );
      ( "validate",
        [
          tc "registers exact" `Quick test_validate_registers_exact;
          tc "pipelined registers exact" `Quick test_validate_pipelined_registers;
          tc "area bounded" `Quick test_validate_area_bounded;
          tc "mux error moderate" `Quick test_validate_mux_error_moderate;
          tc "report renders" `Quick test_accuracy_report_renders;
        ] );
    ]
