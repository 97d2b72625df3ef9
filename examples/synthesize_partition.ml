(* From prediction to structure: take the best feasible 2-chip AR filter
   implementation CHOP finds, rebuild the schedule each partition
   prediction describes, bind it onto functional units and a left-edge
   register file, and emit the resulting netlists — the paper's "immediate
   task is to synthesize ... some partitioned designs" (section 5).

   Run with:  dune exec examples/synthesize_partition.exe *)

let () =
  let spec = Chop.Rig.experiment1 ~partitions:2 () in
  let report =
    Chop.Explore.Session.run
      (Chop.Explore.Session.create Chop.Explore.Config.default spec)
  in
  match report.Chop.Explore.outcome.Chop.Search.feasible with
  | [] -> print_endline "no feasible implementation to synthesize"
  | best :: _ ->
      Printf.printf
        "synthesizing the II=%d, delay=%d implementation partition by \
         partition\n\n"
        best.Chop.Integration.ii_main best.Chop.Integration.delay_cycles;
      List.iter
        (fun (label, p) ->
          let part = Chop_dfg.Partition.find spec.Chop.Spec.partitioning label in
          let sub = Chop_dfg.Partition.subgraph spec.Chop.Spec.partitioning part in
          let cfg = Chop.Explore.predictor_config spec ~label in
          let latency =
            Chop_bad.Predictor.latency_function cfg
              ~module_set:p.Chop_bad.Prediction.module_set
          in
          let sched =
            Chop_sched.List_sched.run ~latency ~alloc:p.Chop_bad.Prediction.alloc
              sub
          in
          let netlist =
            Chop_rtl.Synth.netlist ~name:label
              ~module_set:p.Chop_bad.Prediction.module_set sched
          in
          Format.printf "%a@." Chop_rtl.Netlist.pp netlist;
          Printf.printf "  predicted registers: %d bits, actual: %d bits\n"
            p.Chop_bad.Prediction.register_bits
            (Chop_rtl.Netlist.register_bits netlist);
          Printf.printf "  predicted muxes: %d bits, actual: %d bits\n"
            p.Chop_bad.Prediction.mux_count
            (Chop_rtl.Netlist.mux_bits netlist);
          Printf.printf "  predicted area: %s, actual cells: %.0f mil^2\n\n"
            (Chop_util.Triplet.to_string p.Chop_bad.Prediction.area)
            (Chop_rtl.Netlist.cell_area netlist);
          ignore best)
        best.Chop.Integration.combination;
      (* full Verilog dump of the first partition *)
      let label, p = List.hd best.Chop.Integration.combination in
      let part = Chop_dfg.Partition.find spec.Chop.Spec.partitioning label in
      let sub = Chop_dfg.Partition.subgraph spec.Chop.Spec.partitioning part in
      let cfg = Chop.Explore.predictor_config spec ~label in
      let latency =
        Chop_bad.Predictor.latency_function cfg
          ~module_set:p.Chop_bad.Prediction.module_set
      in
      let sched =
        Chop_sched.List_sched.run ~latency ~alloc:p.Chop_bad.Prediction.alloc sub
      in
      let netlist =
        Chop_rtl.Synth.netlist ~name:label
          ~module_set:p.Chop_bad.Prediction.module_set sched
      in
      print_endline "Verilog rendering of the first partition:\n";
      print_string (Chop_rtl.Verilog.emit netlist);
      (* and lay it out on the MOSIS die (the paper's "synthesize and
         layout") *)
      print_endline "\nfloorplan on the 84-pin MOSIS die:\n";
      (match Chop_rtl.Floorplan.on_package Chop_tech.Mosis.package_84 netlist with
      | Ok fp -> Format.printf "%a@." Chop_rtl.Floorplan.pp fp
      | Error e -> Printf.printf "does not fit: %s\n" e);
      (* and the complete multi-chip artifact *)
      let ctx = Chop.Integration.context spec in
      let sys = Chop_rtl.System.synthesize ctx best in
      print_endline "\nchip-level summary:\n";
      print_string (Chop_rtl.System.summary sys);
      print_endline "\nboard-level top module:\n";
      print_string (Chop_rtl.System.board_verilog ctx best sys)
