(* Quickstart: partition the HAL differential-equation kernel onto two
   MOSIS chips and ask CHOP whether the design is feasible.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. The behavioral specification: a data-flow graph. *)
  let graph = Chop_dfg.Benchmarks.diffeq () in
  Format.printf "%a@." Chop_dfg.Graph.pp graph;

  (* 2. Partition it: two horizontal cuts of the level structure. *)
  let partitioning = Chop_dfg.Partition.by_levels graph ~k:2 in
  Format.printf "%a@." Chop_dfg.Partition.pp partitioning;

  (* 3. Describe the implementation technology and constraints:
     Table 1's 3u library, one 84-pin MOSIS package per partition, a 300 ns
     main clock with multi-cycle operations, and 25 us performance/delay
     budgets at the paper's feasibility probabilities. *)
  let spec =
    Chop.Rig.custom ~graph ~partitioning ~package:Chop_tech.Mosis.package_84
      ~clocks:
        (Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1 ~transfer_ratio:1)
      ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle)
      ~criteria:(Chop_bad.Feasibility.criteria ~perf:25000. ~delay:25000. ())
      ()
  in

  (* 4. Explore: create an engine session (heuristic, parallelism and
     prediction caching live in the config), then run it.  BAD predicts
     implementations per partition; CHOP searches combinations and predicts
     system-integration overhead. *)
  let config = Chop.Explore.Config.make ~heuristic:Chop.Explore.Iterative () in
  let engine = Chop.Explore.Session.create config spec in
  let report = Chop.Explore.Session.run engine in
  List.iter
    (fun b ->
      Printf.printf "BAD %s: %d predictions, %d feasible, %d kept\n"
        b.Chop.Explore.label b.Chop.Explore.total_predictions
        b.Chop.Explore.feasible_predictions b.Chop.Explore.kept)
    report.Chop.Explore.bad;

  (* 5. Read the verdicts: each feasible global implementation comes with
     full designer guidelines. *)
  match report.Chop.Explore.outcome.Chop.Search.feasible with
  | [] -> print_endline "No feasible implementation under these constraints."
  | best :: _ ->
      Printf.printf "\n%d feasible non-inferior implementation(s); best:\n\n"
        (List.length report.Chop.Explore.outcome.Chop.Search.feasible);
      print_string (Chop.Report.guideline spec best)
