(* The paper's own workload: explore single-chip vs multi-chip
   implementations of the AR lattice filter element (Figure 6) under the
   experiment-1 conditions, with both search heuristics.

   Run with:  dune exec examples/ar_filter_explore.exe *)

open Chop_util

let explore k heuristic =
  let spec = Chop.Rig.experiment1 ~partitions:k () in
  let engine =
    Chop.Explore.Session.create (Chop.Explore.Config.make ~heuristic ()) spec
  in
  (spec, Chop.Explore.Session.run engine)

let () =
  print_endline "AR lattice filter, single-cycle style, 30 000 ns constraints";
  print_endline "(the paper's experiment 1, Tables 3 and 4)\n";
  let table =
    Texttable.create
      ~title:"Feasible non-inferior designs per partition count"
      [
        ("Partitions", Texttable.Right); ("Heuristic", Texttable.Center);
        ("Trials", Texttable.Right); ("Feasible", Texttable.Right);
        ("Best II", Texttable.Right); ("Delay", Texttable.Right);
        ("Clock ns", Texttable.Right);
      ]
  in
  List.iter
    (fun k ->
      List.iter
        (fun h ->
          let _, report = explore k h in
          let st = report.Chop.Explore.outcome.Chop.Search.stats in
          let best = report.Chop.Explore.outcome.Chop.Search.feasible in
          let cells =
            match best with
            | [] -> [ "-"; "-"; "-" ]
            | s :: _ ->
                [
                  string_of_int s.Chop.Integration.ii_main;
                  string_of_int s.Chop.Integration.delay_cycles;
                  Printf.sprintf "%.0f" s.Chop.Integration.clock;
                ]
          in
          Texttable.add_row table
            ([
               string_of_int k;
               Format.asprintf "%a" Chop.Explore.pp_heuristic h;
               string_of_int st.Chop.Search.implementation_trials;
               string_of_int (List.length best);
             ]
            @ cells))
        [ Chop.Explore.Enumeration; Chop.Explore.Iterative ];
      Texttable.add_separator table)
    [ 1; 2; 3 ];
  Texttable.print table;

  (* The headline result: doubling the chips roughly doubles performance. *)
  let best_perf k =
    let _, report = explore k Chop.Explore.Iterative in
    match report.Chop.Explore.outcome.Chop.Search.feasible with
    | s :: _ -> s.Chop.Integration.perf_ns
    | [] -> infinity
  in
  let p1 = best_perf 1 and p2 = best_perf 2 in
  Printf.printf
    "\nSingle chip sustains one result every %.0f ns; two chips every %.0f ns \
     (%.1fx speedup from partitioning).\n"
    p1 p2 (p1 /. p2);

  (* Guideline for the best two-chip design, as in the paper's section 3.1 *)
  let spec, report = explore 2 Chop.Explore.Iterative in
  match report.Chop.Explore.outcome.Chop.Search.feasible with
  | [] -> ()
  | best :: _ ->
      print_endline "\nDesigner guideline for the best 2-chip implementation:\n";
      print_string (Chop.Report.guideline spec best);
      print_endline "\nSystem timeline (main-clock cycles):\n";
      print_string (Chop.Report.timeline best)
