(* Tests for chop_bad: data-path estimation, controller prediction,
   allocation enumeration, feasibility criteria and the BAD predictor. *)

open Chop_bad

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let ar () = Chop_dfg.Benchmarks.ar_lattice_filter ()

let clocks1 = Chop_tech.Clocking.make ~main:300. ~datapath_ratio:10 ~transfer_ratio:1
let clocks2 = Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1 ~transfer_ratio:1

let cfg1 () =
  Predictor.config ~library:Chop_tech.Mosis.experiment_library ~clocks:clocks1
    ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle) ()

let cfg2 () =
  Predictor.config ~library:Chop_tech.Mosis.experiment_library ~clocks:clocks2
    ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle) ()

let chip_area =
  Chop_tech.Chip.usable_area Chop_tech.Mosis.package_84 ~signal_pins:42

let criteria1 = Feasibility.criteria ~perf:30000. ~delay:30000. ()

let mset names =
  List.map (fun name -> Chop_tech.Component.find Chop_tech.Mosis.experiment_library ~name) names

(* ------------------------------------------------------------------ *)
(* Datapath *)

let sched alloc =
  Chop_sched.List_sched.run ~latency:(fun _ -> 1) ~alloc (ar ())

let test_datapath_estimate_positive () =
  let est = Datapath.estimate ~module_set:(mset [ "add2"; "mul2" ]) (sched [ ("add", 2); ("mult", 2) ]) in
  Alcotest.(check bool) "registers" true (est.Datapath.register_bits > 0);
  Alcotest.(check bool) "muxes" true (est.Datapath.mux_count > 0);
  Alcotest.(check bool) "nets" true (est.Datapath.nets > 0);
  Alcotest.(check (float 1e-6)) "fu area = 2 adders + 2 mults"
    ((2. *. 2880.) +. (2. *. 9800.)) est.Datapath.fu_area

let test_datapath_sharing_increases_muxes () =
  let shared = Datapath.estimate ~module_set:(mset [ "add2"; "mul2" ]) (sched [ ("add", 1); ("mult", 1) ]) in
  let parallel = Datapath.estimate ~module_set:(mset [ "add2"; "mul2" ]) (sched [ ("add", 12); ("mult", 16) ]) in
  Alcotest.(check bool) "more sharing, more muxes" true
    (shared.Datapath.mux_count > parallel.Datapath.mux_count)

let test_datapath_mux_select_delay () =
  let shared = Datapath.estimate ~module_set:(mset [ "add2"; "mul2" ]) (sched [ ("add", 1); ("mult", 1) ]) in
  Alcotest.(check bool) "tree delay present" true (shared.Datapath.mux_select_delay > 0.)

let test_datapath_register_area_consistent () =
  let est = Datapath.estimate ~module_set:(mset [ "add2"; "mul2" ]) (sched [ ("add", 2); ("mult", 2) ]) in
  Alcotest.(check (float 1e-6)) "31 mil^2 per bit"
    (float_of_int est.Datapath.register_bits *. 31.) est.Datapath.register_area

(* ------------------------------------------------------------------ *)
(* Control *)

let test_control_shape_states () =
  let s = sched [ ("add", 2); ("mult", 2) ] in
  let est = Datapath.estimate ~module_set:(mset [ "add2"; "mul2" ]) s in
  let seq = Control.shape ~sched:s ~est ~ii:4 ~pipelined:false in
  let pipe = Control.shape ~sched:s ~est ~ii:4 ~pipelined:true in
  (* a pipelined controller wraps at the initiation interval *)
  Alcotest.(check bool) "pipelined has fewer terms" true
    (pipe.Chop_tech.Pla.product_terms < seq.Chop_tech.Pla.product_terms);
  Alcotest.(check bool) "area positive" true (Control.area seq > 0.);
  Alcotest.(check bool) "delay positive" true (Control.delay seq > 0.)

(* ------------------------------------------------------------------ *)
(* Alloc_enum *)

let test_alloc_enum_box () =
  let allocs = Alloc_enum.enumerate ~cap:8 ~latency:(fun _ -> 1) ~memport_units:[] (ar ()) in
  (* add 1..3, mult 1..4 on the AR lattice *)
  Alcotest.(check int) "12 allocations" 12 (List.length allocs);
  List.iter (fun a -> Chop_sched.Schedule.validate_alloc a) allocs

let test_alloc_enum_cap () =
  let allocs = Alloc_enum.enumerate ~cap:2 ~latency:(fun _ -> 1) ~memport_units:[] (ar ()) in
  Alcotest.(check int) "capped to 2x2" 4 (List.length allocs);
  List.iter
    (fun a -> List.iter (fun (_, n) -> Alcotest.(check bool) "within cap" true (n <= 2)) a)
    allocs

let test_alloc_enum_memport () =
  let g = Chop_dfg.Benchmarks.memory_pipeline ~blocks:("A", "B") () in
  let units = [ ("memport:A", 2); ("memport:B", 1) ] in
  let allocs = Alloc_enum.enumerate ~cap:4 ~latency:(fun _ -> 1) ~memport_units:units g in
  List.iter
    (fun a ->
      Alcotest.(check int) "port A fixed" 2 (Chop_sched.Schedule.alloc_get a "memport:A");
      Alcotest.(check int) "port B fixed" 1 (Chop_sched.Schedule.alloc_get a "memport:B"))
    allocs;
  match Alloc_enum.enumerate ~cap:4 ~latency:(fun _ -> 1) ~memport_units:[] g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing port declaration accepted for memory graph"

(* ------------------------------------------------------------------ *)
(* Feasibility *)

let test_criteria_defaults () =
  let c = Feasibility.criteria ~perf:1000. ~delay:2000. () in
  Alcotest.(check (float 1e-9)) "perf prob" 1.0 c.Feasibility.perf_prob;
  Alcotest.(check (float 1e-9)) "delay prob" 0.8 c.Feasibility.delay_prob;
  Alcotest.(check bool) "no power budget" true (c.Feasibility.power_budget = None)

let test_criteria_validates () =
  (match Feasibility.criteria ~perf:0. ~delay:1. () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "perf 0 accepted");
  match Feasibility.criteria ~perf_prob:1.5 ~perf:1. ~delay:1. () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "prob > 1 accepted"

let test_check_area () =
  let c = criteria1 in
  let small = Chop_util.Triplet.spread 100. in
  Alcotest.(check bool) "fits" true
    (Feasibility.is_feasible (Feasibility.check_area c ~available:1000. [ small ]));
  let big = Chop_util.Triplet.spread 2000. in
  Alcotest.(check bool) "overflows" false
    (Feasibility.is_feasible (Feasibility.check_area c ~available:1000. [ big ]))

let test_check_area_at_prob_boundary () =
  (* area_prob = 1.0 demands the upper bound fits *)
  let c = criteria1 in
  let t = Chop_util.Triplet.make ~low:500. ~likely:800. ~high:1100. in
  Alcotest.(check bool) "high > available fails" false
    (Feasibility.is_feasible (Feasibility.check_area c ~available:1000. [ t ]));
  let relaxed = Feasibility.criteria ~area_prob:0.5 ~perf:1. ~delay:1. () in
  Alcotest.(check bool) "relaxed passes" true
    (Feasibility.is_feasible (Feasibility.check_area relaxed ~available:1000. [ t ]))

let test_check_perf_delay_power () =
  let c = criteria1 in
  Alcotest.(check bool) "perf ok" true
    (Feasibility.is_feasible (Feasibility.check_perf c 30000.));
  Alcotest.(check bool) "perf bad" false
    (Feasibility.is_feasible (Feasibility.check_perf c 30001.));
  Alcotest.(check bool) "delay ok at 0.8" true
    (Feasibility.is_feasible
       (Feasibility.check_delay c (Chop_util.Triplet.make ~low:29000. ~likely:29500. ~high:30100.)));
  Alcotest.(check bool) "power unconstrained" true
    (Feasibility.is_feasible (Feasibility.check_power c 1e9));
  let pc = Feasibility.criteria ~power_budget:10. ~perf:1. ~delay:1. () in
  Alcotest.(check bool) "power bad" false
    (Feasibility.is_feasible (Feasibility.check_power pc 11.))

(* ------------------------------------------------------------------ *)
(* Predictor *)

let test_predict_counts_exp1 () =
  let preds = Predictor.predict (cfg1 ()) ~label:"P1" (ar ()) in
  (* 9 module sets x 12 allocations x styles: a few hundred predictions *)
  Alcotest.(check bool) "hundreds of predictions" true
    (List.length preds > 100 && List.length preds < 1000)

let test_predict_multicycle_finer () =
  let p1 = List.length (Predictor.predict (cfg1 ()) ~label:"P1" (ar ())) in
  let p2 = List.length (Predictor.predict (cfg2 ()) ~label:"P1" (ar ())) in
  Alcotest.(check bool) "multi-cycle explores more" true (p2 > p1)

let test_predict_empty_graph () =
  let b = Chop_dfg.Graph.builder () in
  let i = Chop_dfg.Graph.add_node b ~op:Chop_dfg.Op.Input ~width:8 in
  ignore i;
  let g = Chop_dfg.Graph.build b in
  Alcotest.(check int) "no ops, no predictions" 0
    (List.length (Predictor.predict (cfg1 ()) ~label:"X" g))

let test_predict_uncovered_library () =
  let cfg =
    Predictor.config ~library:[ Chop_tech.Mosis.register_cell ] ~clocks:clocks1
      ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle) ()
  in
  Alcotest.(check int) "no coverage, no predictions" 0
    (List.length (Predictor.predict cfg ~label:"X" (ar ())))

let test_predict_undeclared_memory_rejected () =
  let g = Chop_dfg.Benchmarks.memory_pipeline ~blocks:("A", "B") () in
  match Predictor.predict (cfg1 ()) ~label:"X" g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "undeclared memory accepted"

let test_predict_with_memories () =
  let m name =
    Chop_tech.Memory.make ~name ~words:64 ~word_width:16 ~ports:1 ~access:120.
      ~placement:(Chop_tech.Memory.On_chip 4000.)
  in
  let cfg =
    Predictor.config ~memories:[ m "A"; m "B" ]
      ~library:Chop_tech.Mosis.experiment_library ~clocks:clocks2
      ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle) ()
  in
  let g = Chop_dfg.Benchmarks.memory_pipeline ~blocks:("A", "B") () in
  let preds = Predictor.predict cfg ~label:"M" g in
  Alcotest.(check bool) "predictions exist" true (List.length preds > 0);
  let p = List.hd preds in
  Alcotest.(check bool) "memory bandwidth recorded" true
    (List.mem_assoc "A" p.Prediction.mem_bandwidth
    && List.mem_assoc "B" p.Prediction.mem_bandwidth)

let test_predictions_internally_consistent () =
  let preds = Predictor.predict (cfg1 ()) ~label:"P1" (ar ()) in
  List.iter
    (fun p ->
      Alcotest.(check bool) "ii <= latency" true
        (p.Prediction.timing.ii_dp <= p.Prediction.timing.latency_dp);
      Alcotest.(check bool) "clock >= main" true
        (p.Prediction.timing.clock_main >= 300.);
      Alcotest.(check bool) "area ordered" true
        Chop_util.Triplet.(p.Prediction.area.low <= p.Prediction.area.high);
      Alcotest.(check bool) "positive area" true
        Chop_util.Triplet.(p.Prediction.area.low > 0.);
      match p.Prediction.style with
      | Chop_tech.Style.Pipelined ->
          Alcotest.(check bool) "pipelined beats restart" true
            (p.Prediction.timing.ii_dp < p.Prediction.timing.latency_dp)
      | Chop_tech.Style.Non_pipelined ->
          Alcotest.(check int) "nonpipelined ii = latency"
            p.Prediction.timing.latency_dp p.Prediction.timing.ii_dp)
    preds

let test_single_cycle_clock_stretches () =
  (* a mul3-based single-cycle design cannot run at the nominal clock:
     7370 ns exceeds the 3000 ns data-path cycle *)
  let preds = Predictor.predict (cfg1 ()) ~label:"P1" (ar ()) in
  let mul3_preds =
    List.filter
      (fun p ->
        List.exists
          (fun c -> c.Chop_tech.Component.cname = "mul3")
          p.Prediction.module_set)
      preds
  in
  Alcotest.(check bool) "mul3 predictions exist" true (mul3_preds <> []);
  List.iter
    (fun p ->
      Alcotest.(check bool) "stretched clock" true
        (p.Prediction.timing.clock_main > 700.))
    mul3_preds

let test_prune_keeps_feasible_frontier () =
  let cfg = cfg1 () in
  let preds = Predictor.predict cfg ~label:"P1" (ar ()) in
  let kept = Predictor.prune cfg ~criteria:criteria1 ~chip_area preds in
  Alcotest.(check bool) "something survives" true (List.length kept > 0);
  Alcotest.(check bool) "prune shrinks" true (List.length kept < List.length preds);
  List.iter
    (fun p ->
      Alcotest.(check bool) "survivor is feasible" true
        (Feasibility.partition_feasible criteria1 ~clocks:clocks1 ~chip_area p))
    kept

let test_testability_overhead_grows_area () =
  let plain = Predictor.predict (cfg1 ()) ~label:"P1" (ar ()) in
  let cfg_t =
    Predictor.config ~testability_overhead:0.15
      ~library:Chop_tech.Mosis.experiment_library ~clocks:clocks1
      ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle) ()
  in
  let scanned = Predictor.predict cfg_t ~label:"P1" (ar ()) in
  let mean_area ps =
    Chop_util.Listx.sum_byf (fun p -> Chop_util.Triplet.mean p.Prediction.area) ps
    /. float_of_int (List.length ps)
  in
  Alcotest.(check bool) "scan costs ~15% area" true
    (mean_area scanned > 1.1 *. mean_area plain)

let test_describe_mentions_decisions () =
  let preds = Predictor.predict (cfg1 ()) ~label:"P1" (ar ()) in
  let text = Prediction.describe clocks1 (List.hd preds) in
  Alcotest.(check bool) "mentions style" true
    (contains text "design style");
  Alcotest.(check bool) "mentions registers" true
    (contains text "registers");
  Alcotest.(check bool) "mentions multiplexers" true
    (contains text "multiplexers")

let test_compare_speed_orders () =
  let preds = Predictor.predict (cfg1 ()) ~label:"P1" (ar ()) in
  let sorted = List.sort Prediction.compare_speed preds in
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        a.Prediction.timing.ii_dp <= b.Prediction.timing.ii_dp && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "ascending ii" true (monotone sorted)

let test_force_directed_scheduler_option () =
  let cfg =
    Predictor.config ~scheduler:Predictor.Force_directed
      ~library:Chop_tech.Mosis.experiment_library ~clocks:clocks1
      ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle) ()
  in
  let preds = Predictor.predict cfg ~label:"P1" (ar ()) in
  Alcotest.(check bool) "fds path produces predictions" true (List.length preds > 50);
  (* every prediction remains internally consistent *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "ii <= latency" true
        (p.Prediction.timing.ii_dp <= p.Prediction.timing.latency_dp))
    preds

let test_chaining_improves_single_cycle () =
  let plain = cfg1 () in
  let chained =
    Chop_bad.Predictor.config ~chaining:true
      ~library:Chop_tech.Mosis.experiment_library ~clocks:clocks1
      ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle) ()
  in
  let best cfg =
    Chop_bad.Predictor.predict cfg ~label:"P1" (ar ())
    |> List.fold_left
         (fun acc p -> min acc p.Chop_bad.Prediction.timing.Chop_bad.Prediction.latency_dp)
         max_int
  in
  Alcotest.(check bool) "chaining reaches shorter latencies" true
    (best chained < best plain)

(* ------------------------------------------------------------------ *)
(* Software model *)

let cpu ?(name = "cpu") ?(issue = 4) ?(mem = 4096.) () =
  Chop_model_sw.Processor.make ~name ~issue_slots:issue ~cycle_ns:300.
    ~code_bytes_per_op:4 ~data_bytes_per_value:2 ~memory_budget_bytes:mem
    ~bus_bits:16

let test_sw_predict_one_per_width () =
  let preds =
    Chop_model_sw.Sw_predict.predict (cpu ()) ~clocks:clocks2 ~label:"S" (ar ())
  in
  Alcotest.(check int) "one prediction per issue width" 4 (List.length preds);
  List.iteri
    (fun i p ->
      Alcotest.(check int) "issue width recorded" (i + 1)
        (List.assoc "issue" p.Prediction.alloc);
      Alcotest.(check int) "sequential execution: ii = latency"
        p.Prediction.timing.latency_dp p.Prediction.timing.ii_dp;
      Alcotest.(check (float 1e-9)) "system clock untouched" 300.
        p.Prediction.timing.clock_main;
      Alcotest.(check bool) "footprint is exact" true
        Chop_util.Triplet.(p.Prediction.area.low = p.Prediction.area.high))
    preds

let test_sw_wider_issue_shortens_schedule () =
  let preds =
    Chop_model_sw.Sw_predict.predict (cpu ()) ~clocks:clocks2 ~label:"S" (ar ())
  in
  let iis = List.map (fun p -> p.Prediction.timing.ii_dp) preds in
  let rec weakly_dec = function
    | a :: (b :: _ as rest) -> a >= b && weakly_dec rest
    | _ -> true
  in
  Alcotest.(check bool) "cycle count weakly decreases with width" true
    (weakly_dec iis);
  Alcotest.(check bool) "width 4 strictly beats width 1" true
    (List.nth iis 3 < List.hd iis)

let test_sw_footprint_is_code_plus_data () =
  let p = cpu () in
  let sub = ar () in
  List.iteri
    (fun i pr ->
      let cycles = pr.Prediction.timing.ii_dp in
      let code, data =
        Chop_model_sw.Sw_predict.footprint_bytes p ~issue:(i + 1) ~cycles sub
      in
      Alcotest.(check (float 1e-9)) "area triplet carries code+data bytes"
        (float_of_int (code + data))
        pr.Prediction.area.Chop_util.Triplet.likely;
      Alcotest.(check int) "register bits mirror the data bytes" (data * 8)
        pr.Prediction.register_bits)
    (Chop_model_sw.Sw_predict.predict p ~clocks:clocks2 ~label:"S" sub)

let test_sw_budget_screens_footprint () =
  let model mem = Chop.Model.Software (cpu ~mem ()) in
  let cfg = cfg2 () in
  let preds = Chop.Model.predict (model 4096.) cfg ~label:"S" (ar ()) in
  Alcotest.(check bool) "predictions exist" true (preds <> []);
  Alcotest.(check bool) "a roomy budget keeps an implementation" true
    (Chop.Model.prune (model 4096.) cfg ~criteria:criteria1 ~capacity:4096.
       preds
    <> []);
  Alcotest.(check int) "a 32-byte budget keeps none" 0
    (List.length
       (Chop.Model.prune (model 32.) cfg ~criteria:criteria1 ~capacity:32.
          preds))

let test_cache_keys_disjoint_across_models () =
  let sub = ar () in
  let cfg = cfg1 () in
  let id model =
    Chop.Pred_cache.Key.raw_id (Chop.Pred_cache.Key.raw ~sub ~cfg ~model)
  in
  let hw = id Chop.Model.Hardware in
  let sw = id (Chop.Model.Software (cpu ())) in
  Alcotest.(check bool) "hardware and software keys never collide" true
    (hw <> sw);
  Alcotest.(check bool) "processor parameters are cache identity" true
    (sw <> id (Chop.Model.Software (cpu ~issue:2 ())));
  Alcotest.(check string) "equal processors, equal keys" sw
    (id (Chop.Model.Software (cpu ())));
  (* content addressing holds within each model: a renumbered isomorphic
     graph probes the same entry *)
  let renum = Chop_dfg.Transform.renumber sub in
  let id' model =
    Chop.Pred_cache.Key.raw_id
      (Chop.Pred_cache.Key.raw ~sub:renum ~cfg ~model)
  in
  Alcotest.(check string) "hw key is structural" hw (id' Chop.Model.Hardware);
  Alcotest.(check string) "sw key is structural" sw
    (id' (Chop.Model.Software (cpu ())))

(* Every field of every prediction, floats in exact hexadecimal, so any
   change to an integer or to the order of a float sum shows. *)
let add_prediction buf p =
  let add fmt = Printf.bprintf buf fmt in
  let triplet t =
    add "(%h,%h,%h)" t.Chop_util.Triplet.low t.Chop_util.Triplet.likely
      t.Chop_util.Triplet.high
  in
  add "%s|%s|" p.Prediction.partition_label
    (match p.Prediction.style with
    | Chop_tech.Style.Pipelined -> "p"
    | Chop_tech.Style.Non_pipelined -> "n");
  List.iter
    (fun c ->
      add "%s:%s:%d:%h:%h:%h;" c.Chop_tech.Component.cname
        c.Chop_tech.Component.cls c.Chop_tech.Component.width
        c.Chop_tech.Component.area c.Chop_tech.Component.delay
        c.Chop_tech.Component.power)
    p.Prediction.module_set;
  List.iter (fun (cls, n) -> add "%s=%d;" cls n) p.Prediction.alloc;
  let t = p.Prediction.timing in
  add "|%d:%d:%d:%h:%h|" t.Prediction.ii_dp t.Prediction.latency_dp
    t.Prediction.stages t.Prediction.clock_main t.Prediction.overhead;
  triplet p.Prediction.area;
  let b = p.Prediction.breakdown in
  add "|%h:%h:%h:%h:" b.Prediction.functional_units b.Prediction.registers
    b.Prediction.multiplexers b.Prediction.controller;
  triplet b.Prediction.wiring;
  let s = p.Prediction.controller_shape in
  add "|%d:%d|%d:%d:%d|" p.Prediction.register_bits p.Prediction.mux_count
    s.Chop_tech.Pla.inputs s.Chop_tech.Pla.outputs
    s.Chop_tech.Pla.product_terms;
  List.iter (fun (blk, n) -> add "%s=%d;" blk n) p.Prediction.mem_bandwidth;
  add "|%h\n" p.Prediction.power

let digest_predictions preds =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "%d\n" (List.length preds);
  List.iter (add_prediction buf) preds;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* a four-times larger chip under a power budget: most graphs keep
   some predictions, and the power check rejects others *)
let criteria_power =
  Feasibility.criteria ~delay_prob:0.5 ~power_budget:60. ~perf:60000.
    ~delay:120000. ()

let pinned_graphs =
  [
    ("ar", ar);
    ("ewf", fun () -> Chop_dfg.Benchmarks.elliptic_wave_filter ());
    ("fir8", fun () -> Chop_dfg.Benchmarks.fir_filter ~taps:8 ());
    ("fir16", fun () -> Chop_dfg.Benchmarks.fir_filter ~taps:16 ());
    ("diffeq", fun () -> Chop_dfg.Benchmarks.diffeq ());
    ("dct8", fun () -> Chop_dfg.Benchmarks.dct8 ());
    ("rand60", fun () -> Chop_dfg.Benchmarks.random_dag ~ops:60 ~seed:3 ());
  ]

let pinned_memories =
  [
    Chop_tech.Memory.make ~name:"A" ~words:64 ~word_width:16 ~ports:2
      ~access:120. ~placement:(Chop_tech.Memory.On_chip 4000.);
    Chop_tech.Memory.make ~name:"B" ~words:256 ~word_width:16 ~ports:1
      ~access:450. ~placement:(Chop_tech.Memory.Off_chip_package 40);
  ]

let pinned_configs ?(memories = []) () =
  let lib = Chop_tech.Mosis.experiment_library in
  let both = Chop_tech.Style.both in
  [
    ( "list-1c",
      Predictor.config ~memories ~library:lib ~clocks:clocks1
        ~style:(both Chop_tech.Style.Single_cycle) () );
    ( "list-mc",
      Predictor.config ~memories ~library:lib ~clocks:clocks2
        ~style:(both Chop_tech.Style.Multi_cycle) () );
    ( "chain-1c",
      Predictor.config ~memories ~chaining:true ~library:lib ~clocks:clocks1
        ~style:(both Chop_tech.Style.Single_cycle) () );
  ]

(* (graph, config) cases whose predictions are pinned below *)
let pinned_cases () =
  List.concat_map
    (fun (gname, g) ->
      List.map (fun (cname, cfg) -> (gname ^ "/" ^ cname, cfg, g)) (pinned_configs ()))
    pinned_graphs
  @ List.map
      (fun (cname, cfg) ->
        ( "mempipe/" ^ cname,
          cfg,
          fun () -> Chop_dfg.Benchmarks.memory_pipeline ~blocks:("A", "B") () ))
      (pinned_configs ~memories:pinned_memories ())
  @ List.map
      (fun (gname, g) ->
        ( gname ^ "/fd-1c",
          Predictor.config ~scheduler:Predictor.Force_directed
            ~library:Chop_tech.Mosis.experiment_library ~clocks:clocks1
            ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle) (),
          g ))
      (List.filter (fun (n, _) -> n = "fir8" || n = "diffeq") pinned_graphs)

(* One line per case: the digest of [predict], then of [prune] under the
   paper's criteria and under [criteria_power] on a four-times larger chip. *)
let pinned_digest (name, cfg, g) =
  let preds = Predictor.predict cfg ~label:"P" (g ()) in
  let prune criteria chip_area =
    digest_predictions (Predictor.prune cfg ~criteria ~chip_area preds)
  in
  Printf.sprintf "%s %s %s %s" name (digest_predictions preds)
    (prune criteria1 chip_area)
    (prune criteria_power (4. *. chip_area))

(* Recorded from the predictor as it was before its per-graph,
   per-module-set and per-schedule work was hoisted out of the
   design-point loop: a mismatch means some prediction changed. *)
let pinned_expected =
  [
    "ar/list-1c 4ebcb7d36ed879dc1d120d2b712e7d0a f7facf87d3e62c85eebc5b33eb6a5284 cca308cb73f39f32a03def6e952ff471";
    "ar/list-mc da727b7bd42cabd13bf5ddfe9ec53b87 aa0becc360fbb555ef2c9d03f38030fe d5ddfff465f3ec8a24cd13efb6102297";
    "ar/chain-1c 88c575459f011746ef558101fb58f76c 826dcd858e97bf2b2dfd3e737c56ddeb 67b859c05273d976da6d16b79986b6fd";
    "ewf/list-1c 2d37fbe4393a17d95874e46cb04fc799 897316929176464ebc9ad085f31e7284 897316929176464ebc9ad085f31e7284";
    "ewf/list-mc 0651ee8473fa33d03b04531461b361ee 897316929176464ebc9ad085f31e7284 af4afcf58083b48491f570123f8a17d3";
    "ewf/chain-1c 3cc4a068c77d188725444c30fb491438 897316929176464ebc9ad085f31e7284 d4c9b41d5a8fa56e2a346810d2c2c9d1";
    "fir8/list-1c 1bc236ae1e069730cc01da22d84f1cee 79bee298c42245cf481193828d327dd8 1276cf2e19543757079ca7f6239466f3";
    "fir8/list-mc b7ae9788f546fff30e5a0145655f2e01 043b76d1d1283f0ad29cd8ad09c9516c 043b76d1d1283f0ad29cd8ad09c9516c";
    "fir8/chain-1c 243771b09cefa43d8bd6361e38b012d6 97e5e081c9dd129041d12314a97aefc7 c58f88e4a0c25651103fa0016fd94d97";
    "fir16/list-1c 23bb93fa3eca29bf3912ab310659feb0 e9284e5e8dd78cf10f03a3fff156689f 6755ad191874137392b5ea3118a94090";
    "fir16/list-mc 1aec12ebd862d16fe6b1f4d0bcf84c22 e62a16fa06d1007ed13c5bb18a88e074 76dcb56911785a5a1b1d10dca10d85ce";
    "fir16/chain-1c 2e7ecbac4fe93a41ba517024147d9071 ae03ed0937a735511642b83fccfc20b6 514167484a3dc1b276e20453d3b03784";
    "diffeq/list-1c 5303756c9cade1c7d4c83d9348ea3c81 96a039899cdbd3dc04d7fa00e2829c6c 3c94125c491ee24d373cd00bf2b526dd";
    "diffeq/list-mc 0946ed7796aae001741b201ea7b06d49 245fd84a1618ad16eb5ae4f86bbed249 5fc4638536c7f49c12e12be48373bc30";
    "diffeq/chain-1c 1b0464504c65c8951c7a0a84cb9957ed 23e8a9ad9b292ed3b4d7f97fe4da37c0 23e8a9ad9b292ed3b4d7f97fe4da37c0";
    "dct8/list-1c faf2ad296c0799359fe547da59b8b97a 289b0cb13e8b7497beaad2664a6f0c5b 63fd46823ba180418a15ec8c856f8b98";
    "dct8/list-mc f4b6c660270fb7102748d613a4652f6e edea4add568aff8935c10339fe559bf0 8a11b014c085f4ba5adc67f3a49eb86e";
    "dct8/chain-1c 78d9fc8b14b27b716f35bb2a4367da87 ebc5ba96bf241df94fd55f77cd6ac1c3 00c08b86206b5a25f85654c147bbc232";
    "rand60/list-1c 9c6f1785a185ba1ee59b9feeb2374a86 897316929176464ebc9ad085f31e7284 6de1b82a6d6abc582ae55e5102437db5";
    "rand60/list-mc 45efa4ddff01fbe6cafa2c034d5a75e7 897316929176464ebc9ad085f31e7284 beb77a9169914cdbb35f00a6c5942c4e";
    "rand60/chain-1c 0167b68c37a3bfbdf7d7acd502c9aae5 897316929176464ebc9ad085f31e7284 7038232d9e6141dddfec6e7f2cc2bc4f";
    "mempipe/list-1c bd0136c9cb89c5b85dd30c5a0471c49d 25aedc028e4e39fac213efd0932d024d 73096d21a18e304e2b660fe2a64ae5db";
    "mempipe/list-mc 8e000ed42334dcceca79250369206c63 36460729eb09b70d2bed421dd95aea9a 36460729eb09b70d2bed421dd95aea9a";
    "mempipe/chain-1c 541d6b7738cf74ba9827aba8359362bc 10b64381c247c5ad4f1e7e01f2e15e3b 10b64381c247c5ad4f1e7e01f2e15e3b";
    "fir8/fd-1c 7a40376be3fd458d8dc323846b2373c3 3608f75db56e7add4939356f47d740a8 26b012c62e157b29665fb2b953a8aabf";
    "diffeq/fd-1c 15ce0587c06162a632d4a2e47cc934ad df035ec5f1751a01c18f06feb3c4672a 5f008731ee7aeff4d774343a9e810d30";
  ]

let test_predictions_pinned () =
  Alcotest.(check (list string)) "prediction digests" pinned_expected
    (List.map pinned_digest (pinned_cases ()))

let predictor_deterministic =
  QCheck.Test.make ~name:"predictor is deterministic" ~count:5
    QCheck.(0 -- 3)
    (fun k ->
      let g =
        if k = 0 then ar () else Chop_dfg.Benchmarks.fir_filter ~taps:(4 + k) ()
      in
      let a = Predictor.predict (cfg1 ()) ~label:"X" g in
      let b = Predictor.predict (cfg1 ()) ~label:"X" g in
      a = b)

(* ------------------------------------------------------------------ *)
(* Latency classes *)

(* Predicting with the whole library must equal predicting with each of
   its module sets alone, in module-set order: a one-set library has
   nothing to share, so this is the per-module-set answer, and BAD's
   sharing of schedules across the module sets of a latency class must
   not show.  Component delays come from a short list so that, against
   the 300 ns multi-cycle data-path cycle, some alternatives share a
   latency and others do not; equal delays share a chain delay; and
   3500 ns outgrows the single-cycle chaining budget. *)
let class_delays = [| 20.; 150.; 280.; 450.; 1000.; 1000.; 2000.; 3500. |]

let class_configs =
  [|
    ("list-1c", Predictor.List_based, false, Chop_tech.Style.Single_cycle);
    ("list-mc", Predictor.List_based, false, Chop_tech.Style.Multi_cycle);
    ("chain-1c", Predictor.List_based, true, Chop_tech.Style.Single_cycle);
    ("fd-1c", Predictor.Force_directed, false, Chop_tech.Style.Single_cycle);
    ("fd-mc", Predictor.Force_directed, false, Chop_tech.Style.Multi_cycle);
  |]

(* A random add/mult DAG and a library of one to three alternatives per
   class; force-directed cases keep to at most 6 operations. *)
let class_case seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let name, scheduler, chaining, timing =
    class_configs.(int (Array.length class_configs))
  in
  let ops = if scheduler = Predictor.Force_directed then 2 + int 5 else 2 + int 11 in
  let library =
    List.concat_map
      (fun cls ->
        List.init (1 + int 3) (fun i ->
            Chop_tech.Component.make
              ~name:(Printf.sprintf "%s%d" cls i)
              ~cls ~width:16
              ~area:(float_of_int (1000 * (1 + int 5)))
              ~delay:class_delays.(int (Array.length class_delays))
              ()))
      [ "add"; "mult" ]
  in
  let cfg =
    Predictor.config ~alloc_cap:4 ~max_pipelined_iis:3 ~scheduler ~chaining
      ~library
      ~clocks:(if timing = Chop_tech.Style.Single_cycle then clocks1 else clocks2)
      ~style:(Chop_tech.Style.both timing) ()
  in
  (name, cfg, Chop_dfg.Benchmarks.random_dag ~ops ~seed ())

let print_class_case seed =
  let name, cfg, g = class_case seed in
  Printf.sprintf "seed %d: %s, %d ops, library %s" seed name
    (Chop_dfg.Graph.op_count g)
    (String.concat " "
       (List.map
          (fun c ->
            Printf.sprintf "%s(%g ns)" c.Chop_tech.Component.cname
              c.Chop_tech.Component.delay)
          cfg.Predictor.library))

let latency_classes_invisible =
  QCheck.Test.make ~name:"latency classes are invisible" ~count:160
    (QCheck.make ~print:print_class_case QCheck.Gen.nat)
    (fun seed ->
      let _, cfg, g = class_case seed in
      Predictor.predict cfg ~label:"P" g
      = List.concat_map
          (fun m -> Predictor.predict { cfg with Predictor.library = m } ~label:"P" g)
          (Chop_tech.Component.module_sets cfg.Predictor.library g))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "chop_bad"
    [
      ( "datapath",
        [
          tc "estimate positive" `Quick test_datapath_estimate_positive;
          tc "sharing increases muxes" `Quick test_datapath_sharing_increases_muxes;
          tc "mux select delay" `Quick test_datapath_mux_select_delay;
          tc "register area" `Quick test_datapath_register_area_consistent;
        ] );
      ("control", [ tc "shape" `Quick test_control_shape_states ]);
      ( "alloc_enum",
        [
          tc "box" `Quick test_alloc_enum_box;
          tc "cap" `Quick test_alloc_enum_cap;
          tc "memport" `Quick test_alloc_enum_memport;
        ] );
      ( "feasibility",
        [
          tc "defaults" `Quick test_criteria_defaults;
          tc "validates" `Quick test_criteria_validates;
          tc "check area" `Quick test_check_area;
          tc "area probability boundary" `Quick test_check_area_at_prob_boundary;
          tc "perf/delay/power" `Quick test_check_perf_delay_power;
        ] );
      ( "predictor",
        [
          tc "counts (exp 1)" `Quick test_predict_counts_exp1;
          tc "multi-cycle finer" `Quick test_predict_multicycle_finer;
          tc "empty graph" `Quick test_predict_empty_graph;
          tc "uncovered library" `Quick test_predict_uncovered_library;
          tc "undeclared memory" `Quick test_predict_undeclared_memory_rejected;
          tc "with memories" `Quick test_predict_with_memories;
          tc "internally consistent" `Quick test_predictions_internally_consistent;
          tc "single-cycle clock stretch" `Quick test_single_cycle_clock_stretches;
          tc "prune" `Quick test_prune_keeps_feasible_frontier;
          tc "testability overhead" `Quick test_testability_overhead_grows_area;
          tc "describe" `Quick test_describe_mentions_decisions;
          tc "compare_speed" `Quick test_compare_speed_orders;
          tc "force-directed scheduler" `Quick test_force_directed_scheduler_option;
          tc "chaining improves single-cycle" `Quick test_chaining_improves_single_cycle;
          tc "every prediction pinned" `Quick test_predictions_pinned;
          QCheck_alcotest.to_alcotest predictor_deterministic;
          QCheck_alcotest.to_alcotest latency_classes_invisible;
        ] );
      ( "software model",
        [
          tc "one prediction per issue width" `Quick
            test_sw_predict_one_per_width;
          tc "wider issue shortens schedule" `Quick
            test_sw_wider_issue_shortens_schedule;
          tc "footprint is code+data" `Quick test_sw_footprint_is_code_plus_data;
          tc "budget screens footprint" `Quick test_sw_budget_screens_footprint;
          tc "cache keys disjoint across models" `Quick
            test_cache_keys_disjoint_across_models;
        ] );
    ]
