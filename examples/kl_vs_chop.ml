(* The paper's core methodological argument (section 1.1): classic
   Kernighan-Lin min-cut partitioning [4] optimizes cut bits, but "it is
   questionable if one can directly correlate 'sum of costs of values cut'
   to the pin count requirement or 'sum of sizes of operations in a
   partition' to the area of chips".  This example partitions the AR
   filter with KL and with horizontal level cuts, then lets CHOP judge
   both.

   Run with:  dune exec examples/kl_vs_chop.exe *)

open Chop_util

let judge pg =
  let g = pg.Chop_dfg.Partition.graph in
  if List.length pg.Chop_dfg.Partition.parts < 2 then None
  else
    let spec =
      Chop.Rig.custom ~graph:g ~partitioning:pg
        ~package:Chop_tech.Mosis.package_84
        ~clocks:
          (Chop_tech.Clocking.make ~main:300. ~datapath_ratio:10 ~transfer_ratio:1)
        ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle)
        ~criteria:(Chop_bad.Feasibility.criteria ~perf:30000. ~delay:30000. ())
        ()
    in
    let report =
      Chop.Explore.Session.run
        (Chop.Explore.Session.create Chop.Explore.Config.default spec)
    in
    Some report.Chop.Explore.outcome.Chop.Search.feasible

let () =
  let g = Chop_dfg.Benchmarks.ar_lattice_filter () in
  print_endline "AR filter bipartitioned two ways, judged by CHOP:\n";
  let table =
    Texttable.create
      [
        ("Strategy", Texttable.Left); ("Cut bits", Texttable.Right);
        ("Part sizes", Texttable.Center); ("CHOP verdict", Texttable.Left);
      ]
  in
  List.iter
    (fun strategy ->
      let pg = Chop_baseline.Autopart.generate g ~k:2 strategy in
      let cut = Chop_dfg.Partition.cut_bits_total pg in
      let sizes =
        List.map
          (fun p -> string_of_int (List.length p.Chop_dfg.Partition.members))
          pg.Chop_dfg.Partition.parts
        |> String.concat "+"
      in
      let verdict =
        match judge pg with
        | None -> "degenerate (KL legalization merged the sides)"
        | Some [] -> "infeasible under the 30 000 ns constraints"
        | Some (best :: _) ->
            Printf.sprintf "feasible: II %d, delay %d cycles"
              best.Chop.Integration.ii_main best.Chop.Integration.delay_cycles
      in
      Texttable.add_row table
        [ Chop_baseline.Autopart.strategy_name strategy; string_of_int cut;
          sizes; verdict ])
    [ Chop_baseline.Autopart.Levels; Chop_baseline.Autopart.Min_cut 1;
      Chop_baseline.Autopart.Random_balanced 42 ];
  Texttable.print table;
  print_endline
    "\nMin-cut can beat the level cut on cut bits yet produce unbalanced or\n\
     rate-incompatible partitions; CHOP's feasibility analysis — areas,\n\
     rates, pins, buffers — is the judgement that matters for multi-chip\n\
     behavioral design."
