(* Partition the fifth-order elliptic wave filter (the other canonical
   ADAM-era benchmark) onto one to three chips, comparing the 64-pin and
   84-pin MOSIS packages — the "target chip set" modification group of the
   paper's section 2.7.

   Run with:  dune exec examples/ewf_multichip.exe *)

open Chop_util

let spec_for ~k ~package =
  let graph = Chop_dfg.Benchmarks.elliptic_wave_filter () in
  let partitioning =
    if k = 1 then Chop_dfg.Partition.whole graph
    else Chop_dfg.Partition.by_levels graph ~k
  in
  Chop.Rig.custom ~graph ~partitioning ~package
    ~clocks:(Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1 ~transfer_ratio:1)
    ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle)
    ~criteria:(Chop_bad.Feasibility.criteria ~perf:20000. ~delay:20000. ())
    ()

let () =
  print_endline "Elliptic wave filter (26 add, 8 mult) on 1-3 chips\n";
  let table =
    Texttable.create
      [
        ("Chips", Texttable.Right); ("Package", Texttable.Center);
        ("Feasible", Texttable.Right); ("Best II", Texttable.Right);
        ("Delay cycles", Texttable.Right); ("Clock ns", Texttable.Right);
        ("Pins/chip used", Texttable.Right);
      ]
  in
  List.iter
    (fun k ->
      List.iter
        (fun (pname, package) ->
          let spec = spec_for ~k ~package in
          let report =
            Chop.Explore.Session.run
              (Chop.Explore.Session.create Chop.Explore.Config.default spec)
          in
          let feas = report.Chop.Explore.outcome.Chop.Search.feasible in
          let cells =
            match feas with
            | [] -> [ "-"; "-"; "-"; "-" ]
            | s :: _ ->
                let pins =
                  List.map
                    (fun cr -> string_of_int cr.Chop.Integration.signal_pins)
                    s.Chop.Integration.chip_reports
                  |> String.concat "/"
                in
                [
                  string_of_int s.Chop.Integration.ii_main;
                  string_of_int s.Chop.Integration.delay_cycles;
                  Printf.sprintf "%.0f" s.Chop.Integration.clock;
                  pins;
                ]
          in
          Texttable.add_row table
            ([ string_of_int k; pname; string_of_int (List.length feas) ] @ cells))
        [ ("pkg64", Chop_tech.Mosis.package_64); ("pkg84", Chop_tech.Mosis.package_84) ];
      Texttable.add_separator table)
    [ 1; 2; 3 ];
  Texttable.print table;
  print_endline
    "\nThe EWF is addition-dominated: cheap adders keep every chip small, so\n\
     the partitioning is pin-limited rather than area-limited — exactly the\n\
     regime where the paper's integration predictions matter."
