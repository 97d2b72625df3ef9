let guideline spec system =
  let buf = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "Predicted global implementation:\n";
  addf "  initiation interval : %d main cycles\n" system.Integration.ii_main;
  addf "  system delay        : %d main cycles (%s ns)\n"
    system.Integration.delay_cycles
    (Chop_util.Triplet.to_string system.Integration.delay);
  addf "  adjusted clock      : %.0f ns\n" system.Integration.clock;
  addf "  performance         : %.0f ns per initiation\n\n"
    system.Integration.perf_ns;
  List.iter
    (fun (label, p) ->
      let chip = Spec.chip_of_partition spec label in
      addf "%s (on chip %s):\n"
        (Chop_bad.Prediction.describe spec.Spec.clocks p)
        chip.Spec.chip_name;
      addf "\n";
      ignore label)
    system.Integration.combination;
  List.iter
    (fun d ->
      let t = d.Integration.task in
      if t.Transfer.cross_chip then begin
        addf "Data transfer module %s:\n" t.Transfer.dt_name;
        addf "  - %d bits at %d pins, transfer time %d cycle(s),\n"
          t.Transfer.bits d.Integration.bandwidth d.Integration.transfer_main;
        addf "  - wait %d cycle(s), buffer %d bits,\n" d.Integration.wait_main
          d.Integration.buffer_bits;
        let s = d.Integration.ctrl_shape in
        addf "  - controller PLA: %d inputs, %d outputs, %d product terms.\n"
          s.Chop_tech.Pla.inputs s.Chop_tech.Pla.outputs
          s.Chop_tech.Pla.product_terms
      end)
    system.Integration.dtms;
  List.iter
    (fun cr ->
      addf "Chip %s: %d signal pins, area %s / %.0f mil^2 available\n"
        cr.Integration.instance.Spec.chip_name cr.Integration.signal_pins
        (Chop_util.Triplet.to_string
           (Chop_util.Triplet.sum cr.Integration.area_parts))
        cr.Integration.available)
    system.Integration.chip_reports;
  Buffer.contents buf

let summary_row _spec system =
  [
    string_of_int system.Integration.ii_main;
    string_of_int system.Integration.delay_cycles;
    Printf.sprintf "%.0f" system.Integration.clock;
  ]

let timeline (system : Integration.system) =
  match system.Integration.task_schedule with
  | None -> "  (no schedule)\n"
  | Some sched ->
      let bars =
        List.map
          (fun p ->
            {
              Chop_util.Gantt.bar_label = p.Chop_sched.Urgency.task.Chop_sched.Urgency.tname;
              start = p.Chop_sched.Urgency.start_step;
              finish = p.Chop_sched.Urgency.finish_step;
            })
          sched.Chop_sched.Urgency.placed
      in
      Chop_util.Gantt.render bars
