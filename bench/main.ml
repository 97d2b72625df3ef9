(* Reproduction harness: regenerates every table and figure of the paper's
   evaluation section (Tables 3-6, Figures 7-8), plus ablation benches for
   the design choices called out in DESIGN.md and Bechamel micro-benchmarks
   of the two search heuristics.

   Run with:  dune exec bench/main.exe
   CPU times are wall-clock seconds on this host (the paper reports a
   Solbourne Series 5e/900); compare shapes and ratios, not absolutes. *)

open Chop_util

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

let heuristics = [ ("E", Chop.Explore.Enumeration); ("I", Chop.Explore.Iterative) ]

(* Engine-based exploration with the prediction cache off, so every timed
   run measures honest recomputation; with_engine joins the worker domains
   after each run, so the hundreds of bench explorations never accumulate
   live domains.  [pre_prune] defaults to the engine default (on); the
   paper-fidelity sections that reproduce the unpruned design space pass
   [~pre_prune:false] explicitly. *)
let explore ?(heuristic = Chop.Explore.Iterative) ?(keep_all = false)
    ?(pre_prune = true) ?(jobs = 1) spec =
  Chop.Explore.with_engine
    (Chop.Explore.Config.make ~heuristic ~keep_all ~pre_prune ~jobs
       ~cache:Chop.Explore.Config.Off ())
    spec Chop.Explore.Session.run

let bad_predictions spec =
  Chop.Explore.with_engine
    (Chop.Explore.Config.make ~cache:Chop.Explore.Config.Off ())
    spec Chop.Explore.Session.predictions

(* ------------------------------------------------------------------ *)
(* Inputs: Tables 1 and 2 *)

let print_inputs () =
  section "Inputs — Table 1 (3u design library) and Table 2 (MOSIS packages)";
  let t1 =
    Texttable.create ~title:"Table 1: library used in the experiments"
      [
        ("Module", Texttable.Left); ("Class", Texttable.Left);
        ("Bits", Texttable.Right); ("Area mil^2", Texttable.Right);
        ("Delay ns", Texttable.Right);
      ]
  in
  List.iter
    (fun c ->
      Texttable.add_row t1
        [
          c.Chop_tech.Component.cname; c.Chop_tech.Component.cls;
          string_of_int c.Chop_tech.Component.width;
          Printf.sprintf "%.0f" c.Chop_tech.Component.area;
          Printf.sprintf "%.0f" c.Chop_tech.Component.delay;
        ])
    Chop_tech.Mosis.experiment_library;
  Texttable.print t1;
  print_newline ();
  let t2 =
    Texttable.create ~title:"Table 2: MOSIS standard chip packages"
      [
        ("No", Texttable.Right); ("Width mil", Texttable.Right);
        ("Height mil", Texttable.Right); ("Pins", Texttable.Right);
        ("Pad delay ns", Texttable.Right); ("Pad area mil^2", Texttable.Right);
      ]
  in
  List.iteri
    (fun i c ->
      Texttable.add_row t2
        [
          string_of_int (i + 1);
          Printf.sprintf "%.2f" c.Chop_tech.Chip.width;
          Printf.sprintf "%.2f" c.Chop_tech.Chip.height;
          string_of_int c.Chop_tech.Chip.pins;
          Printf.sprintf "%.1f" c.Chop_tech.Chip.pad_delay;
          Printf.sprintf "%.2f" c.Chop_tech.Chip.pad_area;
        ])
    Chop_tech.Mosis.packages;
  Texttable.print t2

(* ------------------------------------------------------------------ *)
(* Tables 3 and 5: statistics on the results from BAD *)

let bad_statistics ~title spec_of =
  let t =
    Texttable.create ~title
      [
        ("Partition Count", Texttable.Right);
        ("Total predictions", Texttable.Right);
        ("Feasible in isolation", Texttable.Right);
        ("Kept after pruning", Texttable.Right);
      ]
  in
  List.iter
    (fun k ->
      let spec = spec_of k in
      let _, stats = bad_predictions spec in
      let total = Listx.sum_by (fun b -> b.Chop.Explore.total_predictions) stats in
      let feas = Listx.sum_by (fun b -> b.Chop.Explore.feasible_predictions) stats in
      let kept = Listx.sum_by (fun b -> b.Chop.Explore.kept) stats in
      Texttable.add_row t
        [ string_of_int k; string_of_int total; string_of_int feas;
          string_of_int kept ])
    [ 1; 2; 3 ];
  Texttable.print t;
  print_endline
    "(the paper's \"Number of feasible predictions\" corresponds to the kept\n\
     column: BAD discards infeasible and inferior predictions immediately)"

(* ------------------------------------------------------------------ *)
(* Tables 4 and 6: search results *)

let search_results ~title ~rows spec_of =
  let t =
    Texttable.create ~title
      [
        ("Partition Count", Texttable.Right); ("Package", Texttable.Center);
        ("H", Texttable.Center); ("CPU Time", Texttable.Right);
        ("Imp. Trials", Texttable.Right); ("Feasible", Texttable.Right);
        ("Initiation Interval", Texttable.Right); ("Delay", Texttable.Right);
        ("Clock Cycle ns", Texttable.Right);
      ]
  in
  List.iter
    (fun (k, pkg_name, package) ->
      List.iter
        (fun (hname, h) ->
          let spec = spec_of k package in
          let report = explore ~heuristic:h spec in
          let st = report.Chop.Explore.outcome.Chop.Search.stats in
          let feas = report.Chop.Explore.outcome.Chop.Search.feasible in
          let designs = Listx.take 2 feas in
          (match designs with
          | [] ->
              Texttable.add_row t
                [
                  string_of_int k; pkg_name; hname;
                  Printf.sprintf "%.3f" st.Chop.Search.cpu_seconds;
                  string_of_int st.Chop.Search.implementation_trials;
                  "0"; "-"; "-"; "-";
                ]
          | first :: rest ->
              Texttable.add_row t
                [
                  string_of_int k; pkg_name; hname;
                  Printf.sprintf "%.3f" st.Chop.Search.cpu_seconds;
                  string_of_int st.Chop.Search.implementation_trials;
                  string_of_int (List.length feas);
                  string_of_int first.Chop.Integration.ii_main;
                  string_of_int first.Chop.Integration.delay_cycles;
                  Printf.sprintf "%.0f" first.Chop.Integration.clock;
                ];
              List.iter
                (fun s ->
                  Texttable.add_row t
                    [
                      ""; ""; ""; ""; ""; "";
                      string_of_int s.Chop.Integration.ii_main;
                      string_of_int s.Chop.Integration.delay_cycles;
                      Printf.sprintf "%.0f" s.Chop.Integration.clock;
                    ])
                rest);
          ())
        heuristics;
      Texttable.add_separator t)
    rows;
  Texttable.print t

(* ------------------------------------------------------------------ *)
(* Figures 7 and 8: the explored design space under keep-all *)

let ascii_scatter ~title points =
  Printf.printf "%s\n" title;
  print_string
    (Scatter.render ~x_label:"system delay (ns)"
       ~y_label:"performance, initiation x clock (ns)" points)

let design_space ~title ~partition_counts spec_of =
  section title;
  let all_points = ref [] in
  let total = ref 0 and cpu = ref 0. in
  let uniq = ref 0 in
  List.iter
    (fun k ->
      let spec = spec_of k in
      let t0 = Sys.time () in
      (* pre-pruning off: these figures reproduce the paper's *unpruned*
         design-space dumps *)
      let report =
        explore ~heuristic:Chop.Explore.Enumeration ~keep_all:true
          ~pre_prune:false spec
      in
      cpu := !cpu +. (Sys.time () -. t0);
      let explored = report.Chop.Explore.outcome.Chop.Search.explored in
      total := !total + List.length explored;
      uniq := !uniq + Chop.Explore.unique_designs explored;
      List.iter
        (fun s ->
          if s.Chop.Integration.chip_reports <> [] then
            all_points :=
              (Triplet.mean s.Chop.Integration.delay, s.Chop.Integration.perf_ns)
              :: !all_points)
        explored)
    partition_counts;
  Printf.printf
    "designs encountered without pruning: %d total (%d unique), CPU %.2f s\n\n"
    !total !uniq !cpu;
  ascii_scatter ~title:"design-space scatter (each cell counts designs):"
    !all_points

(* ------------------------------------------------------------------ *)
(* Ablations *)

let ablation_pruning () =
  section "Ablation: two-level pruning (the paper's Figure 7 CPU argument)";
  let spec = Chop.Rig.experiment1 ~partitions:2 () in
  (* pre-pruning off on both sides: this ablation isolates the paper's
     own two-level pruning, not this implementation's dominance pass *)
  let timed keep_all =
    let t0 = Sys.time () in
    let report =
      explore ~heuristic:Chop.Explore.Enumeration ~keep_all ~pre_prune:false
        spec
    in
    let dt = Sys.time () -. t0 in
    (dt, report.Chop.Explore.outcome.Chop.Search.stats.Chop.Search.integrations)
  in
  let t_pruned, n_pruned = timed false in
  let t_all, n_all = timed true in
  Printf.printf
    "pruned search:   %d integrations in %.3f s\nkeep-all search: %d \
     integrations in %.3f s\npruning speedup: %.1fx fewer integrations\n"
    n_pruned t_pruned n_all t_all
    (float_of_int n_all /. float_of_int (max 1 n_pruned))

let ablation_testability () =
  section "Ablation: testability overhead (paper section 5, future work)";
  let t =
    Texttable.create
      [
        ("Scan overhead", Texttable.Right); ("Feasible designs", Texttable.Right);
        ("Best II", Texttable.Right);
      ]
  in
  List.iter
    (fun overhead ->
      let params = { Chop.Spec.default_params with Chop.Spec.testability_overhead = overhead } in
      let spec = Chop.Rig.experiment1 ~params ~partitions:2 () in
      let report = explore spec in
      let feas = report.Chop.Explore.outcome.Chop.Search.feasible in
      Texttable.add_row t
        [
          Printf.sprintf "%.0f%%" (overhead *. 100.);
          string_of_int (List.length feas);
          (match feas with
          | [] -> "-"
          | s :: _ -> string_of_int s.Chop.Integration.ii_main);
        ])
    [ 0.0; 0.10; 0.20; 0.35 ];
  Texttable.print t;
  print_endline "(scan-path area squeezes the feasible set, as anticipated)"

let ablation_power () =
  section "Ablation: power-consumption constraints (paper section 5)";
  let t =
    Texttable.create
      [
        ("Budget mW/chip", Texttable.Right); ("Feasible designs", Texttable.Right);
      ]
  in
  List.iter
    (fun budget ->
      let criteria =
        Chop_bad.Feasibility.criteria ?power_budget:budget ~perf:30000.
          ~delay:30000. ()
      in
      let graph = Chop_dfg.Benchmarks.ar_lattice_filter () in
      let partitioning = Chop_dfg.Partition.by_levels graph ~k:2 in
      let spec =
        Chop.Rig.custom ~graph ~partitioning ~package:Chop_tech.Mosis.package_84
          ~clocks:
            (Chop_tech.Clocking.make ~main:300. ~datapath_ratio:10
               ~transfer_ratio:1)
          ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle)
          ~criteria ()
      in
      let report = explore ~heuristic:Chop.Explore.Enumeration spec in
      Texttable.add_row t
        [
          (match budget with None -> "unconstrained" | Some b -> Printf.sprintf "%.0f" b);
          string_of_int
            (List.length report.Chop.Explore.outcome.Chop.Search.feasible);
        ])
    [ None; Some 120.; Some 60.; Some 30. ];
  Texttable.print t

let ablation_packing () =
  section
    "Ablation: packing partitions onto fewer chips (Figure 2 allows several \
     partitions per chip)";
  let t =
    Texttable.create
      [
        ("Chips", Texttable.Right); ("Feasible", Texttable.Right);
        ("Best II", Texttable.Right); ("Chip-set cost $", Texttable.Right);
      ]
  in
  let spec3 = Chop.Rig.experiment1 ~partitions:3 () in
  let m = Chop_tech.Cost.default_3u in
  List.iter
    (fun chips ->
      let spec =
        if chips = 3 then spec3 else Chop_baseline.Packing.pack spec3 ~chips
      in
      let cost =
        Chop_tech.Cost.chip_set_cost m
          (List.map (fun c -> c.Chop.Spec.package) spec.Chop.Spec.chips)
      in
      let feas =
        (explore spec).Chop.Explore.outcome
          .Chop.Search.feasible
      in
      Texttable.add_row t
        [
          string_of_int chips;
          string_of_int (List.length feas);
          (match feas with
          | [] -> "-"
          | s :: _ -> string_of_int s.Chop.Integration.ii_main);
          Printf.sprintf "%.0f" cost;
        ])
    [ 3; 2; 1 ];
  Texttable.print t;
  print_endline
    "(the same three partitions packed onto two chips keep the II-30 rate\n\
     at two thirds of the cost; one chip cannot hold them)"

let ablation_transformations () =
  section
    "Ablation: high-level transformations before partitioning (the paper's \
     section 4 proposes CHOP to study exactly this)";
  (* a serially-accumulated 8-tap filter: the naive behavioral description
     has an 8-deep add chain *)
  let serial_program =
    {
      Chop_dfg.Behavior.prog_name = "serial_fir8";
      width = 16;
      inputs = [ "x0"; "x1"; "x2"; "x3"; "x4"; "x5"; "x6"; "x7" ];
      outputs = [ "acc" ];
      body =
        Chop_dfg.Behavior.Assign
          ( "acc",
            Chop_dfg.Behavior.Bin
              ( Chop_dfg.Behavior.Mul,
                Chop_dfg.Behavior.Var "x0",
                Chop_dfg.Behavior.Const "h0" ) )
        :: List.map
             (fun i ->
               Chop_dfg.Behavior.Assign
                 ( "acc",
                   Chop_dfg.Behavior.Bin
                     ( Chop_dfg.Behavior.Add,
                       Chop_dfg.Behavior.Var "acc",
                       Chop_dfg.Behavior.Bin
                         ( Chop_dfg.Behavior.Mul,
                           Chop_dfg.Behavior.Var (Printf.sprintf "x%d" i),
                           Chop_dfg.Behavior.Const (Printf.sprintf "h%d" i) ) ) ))
             (Listx.range 1 7);
    }
  in
  let naive = Chop_dfg.Behavior.compile serial_program in
  let balanced = Chop_dfg.Transform.balance_associative naive in
  let t =
    Texttable.create
      [
        ("Form", Texttable.Left); ("Critical path", Texttable.Right);
        ("Feasible", Texttable.Right); ("Best II", Texttable.Right);
        ("Best delay", Texttable.Right);
      ]
  in
  List.iter
    (fun (name, graph) ->
      let partitioning = Chop_dfg.Partition.whole graph in
      let spec =
        Chop.Rig.custom ~graph ~partitioning
          ~package:Chop_tech.Mosis.package_84
          ~clocks:
            (Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1
               ~transfer_ratio:1)
          ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle)
          ~criteria:(Chop_bad.Feasibility.criteria ~perf:8000. ~delay:8000. ())
          ()
      in
      let feas =
        (explore spec).Chop.Explore.outcome
          .Chop.Search.feasible
      in
      Texttable.add_row t
        [
          name;
          string_of_int (Chop_dfg.Analysis.critical_path graph);
          string_of_int (List.length feas);
          (match feas with
          | [] -> "-"
          | s :: _ -> string_of_int s.Chop.Integration.ii_main);
          (match feas with
          | [] -> "-"
          | s :: _ -> string_of_int s.Chop.Integration.delay_cycles);
        ])
    [ ("serial (as written)", naive); ("balanced (tree-height reduced)", balanced) ];
  Texttable.print t;
  print_endline
    "(the same behavior, re-associated before partitioning, halves the\n\
     dependence depth and widens the feasible set — the transformation /\n\
     partitioning interaction section 4 proposes CHOP to study)"

let ablation_chaining () =
  section "Ablation: operator chaining inside the long single-cycle step";
  let t =
    Texttable.create
      [
        ("Chaining", Texttable.Left); ("Predictions", Texttable.Right);
        ("Kept", Texttable.Right); ("Best partition latency (dp)", Texttable.Right);
      ]
  in
  let g = Chop_dfg.Benchmarks.ar_lattice_filter () in
  let clocks =
    Chop_tech.Clocking.make ~main:300. ~datapath_ratio:10 ~transfer_ratio:1
  in
  List.iter
    (fun (name, chaining) ->
      let cfg =
        Chop_bad.Predictor.config ~chaining
          ~library:Chop_tech.Mosis.experiment_library ~clocks
          ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle) ()
      in
      let preds = Chop_bad.Predictor.predict cfg ~label:"P1" g in
      let crit = Chop_bad.Feasibility.criteria ~perf:30000. ~delay:30000. () in
      let chip_area =
        Chop_tech.Chip.usable_area Chop_tech.Mosis.package_84 ~signal_pins:42
      in
      let kept = Chop_bad.Predictor.prune cfg ~criteria:crit ~chip_area preds in
      let best =
        List.fold_left
          (fun acc (p : Chop_bad.Prediction.t) ->
            min acc p.Chop_bad.Prediction.timing.Chop_bad.Prediction.latency_dp)
          max_int preds
      in
      Texttable.add_row t
        [
          name; string_of_int (List.length preds);
          string_of_int (List.length kept); string_of_int best;
        ])
    [ ("off", false); ("on", true) ];
  Texttable.print t;
  print_endline
    "(chaining packs dependent multiply/add pairs into one 3 000 ns step:\n\
     the same hardware reaches roughly half the schedule length)"

let ablation_cost () =
  section "Ablation: manufacturing cost vs performance (section 2.7)";
  let t =
    Texttable.create
      [
        ("Chips", Texttable.Right); ("Best II", Texttable.Right);
        ("Perf ns", Texttable.Right); ("Chip-set cost $", Texttable.Right);
        ("$ per 1/ns", Texttable.Right);
      ]
  in
  let m = Chop_tech.Cost.default_3u in
  List.iter
    (fun k ->
      let spec = Chop.Rig.experiment1 ~partitions:k () in
      let cost =
        Chop_tech.Cost.chip_set_cost m
          (List.map (fun c -> c.Chop.Spec.package) spec.Chop.Spec.chips)
      in
      match
        (explore spec).Chop.Explore.outcome
          .Chop.Search.feasible
      with
      | [] ->
          Texttable.add_row t
            [ string_of_int k; "-"; "-"; Printf.sprintf "%.0f" cost; "-" ]
      | s :: _ ->
          Texttable.add_row t
            [
              string_of_int k;
              string_of_int s.Chop.Integration.ii_main;
              Printf.sprintf "%.0f" s.Chop.Integration.perf_ns;
              Printf.sprintf "%.0f" cost;
              Printf.sprintf "%.0f" (cost *. s.Chop.Integration.perf_ns);
            ])
    [ 1; 2; 3 ];
  Texttable.print t;
  print_endline
    "(the second chip buys its 2x throughput almost linearly in cost; the\n\
     third buys nothing — CHOP's feasibility feedback is what exposes that\n\
     before any silicon is committed)"

let ablation_technology_scaling () =
  section
    "Ablation: process shrink — how the partitioning pressure of 1991 \
     melts at finer nodes";
  let t =
    Texttable.create
      [
        ("Node", Texttable.Left); ("1 chip", Texttable.Center);
        ("2 chips", Texttable.Center);
        ("Best II (fewest chips)", Texttable.Right);
      ]
  in
  List.iter
    (fun (node, factor) ->
      let library =
        if factor = 1.0 then Chop_tech.Mosis.experiment_library
        else Chop_tech.Component.shrink_library ~factor Chop_tech.Mosis.experiment_library
      in
      let feas k =
        let graph = Chop_dfg.Benchmarks.ar_lattice_filter () in
        let partitioning =
          if k = 1 then Chop_dfg.Partition.whole graph
          else Chop_dfg.Partition.by_levels graph ~k
        in
        (* the clock scales with the node; the market's constraint does not *)
        let spec =
          Chop.Rig.custom ~library ~graph ~partitioning
            ~package:Chop_tech.Mosis.package_84
            ~clocks:
              (Chop_tech.Clocking.make ~main:(300. *. factor) ~datapath_ratio:10
                 ~transfer_ratio:1)
            ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle)
            ~criteria:
              (Chop_bad.Feasibility.criteria ~perf:9000. ~delay:30000. ())
            ()
        in
        (explore spec).Chop.Explore.outcome
          .Chop.Search.feasible
      in
      let f1 = feas 1 and f2 = feas 2 in
      let best =
        match (f1, f2) with
        | s :: _, _ -> Printf.sprintf "%d (1 chip)" s.Chop.Integration.ii_main
        | [], s :: _ -> Printf.sprintf "%d (2 chips)" s.Chop.Integration.ii_main
        | [], [] -> "-"
      in
      Texttable.add_row t
        [
          node;
          (if f1 <> [] then "feasible" else "no");
          (if f2 <> [] then "feasible" else "no");
          best;
        ])
    [ ("3.0 um", 1.0); ("2.0 um", 0.67); ("1.2 um", 0.4) ];
  Texttable.print t;
  print_endline
    "(a 9 000 ns throughput target that demands two 3 um chips fits one\n\
     chip after a shrink — the partitioning problem itself is\n\
     technology-relative, which is why behavioral multi-chip partitioning\n\
     faded as processes scaled)"

let ablation_pin_sensitivity () =
  section
    "Ablation: pin-count sensitivity (the paper's section 2.7 \
     \"target chip set\" argument)";
  let spec = Chop.Rig.experiment1 ~partitions:2 () in
  let sweep =
    Chop.Sensitivity.pin_count spec ~values:[ 84; 64; 48; 40; 32; 24; 16 ]
  in
  print_string (Chop.Sensitivity.render sweep);
  (match Chop.Sensitivity.cliff sweep with
  | Some v -> Printf.printf "feasibility cliff at %.0f pins\n" v
  | None -> print_endline "no feasibility cliff in the swept range");
  print_endline
    "(fewer pins -> slower transfers -> longer system delay, until the\n\
     reserved control/memory lines exhaust the package entirely)"

let ablation_heuristics () =
  section
    "Ablation: the three search heuristics on the hardest run (experiment \
     2, 3 partitions)";
  let t =
    Texttable.create
      [
        ("Heuristic", Texttable.Left); ("Trials", Texttable.Right);
        ("Integrations", Texttable.Right); ("Best II", Texttable.Right);
        ("CPU s", Texttable.Right);
      ]
  in
  let spec = Chop.Rig.experiment2 ~partitions:3 () in
  List.iter
    (fun (name, h) ->
      let report = explore ~heuristic:h spec in
      let st = report.Chop.Explore.outcome.Chop.Search.stats in
      Texttable.add_row t
        [
          name;
          string_of_int st.Chop.Search.implementation_trials;
          string_of_int st.Chop.Search.integrations;
          (match report.Chop.Explore.outcome.Chop.Search.feasible with
          | [] -> "-"
          | s :: _ -> string_of_int s.Chop.Integration.ii_main);
          Printf.sprintf "%.3f" st.Chop.Search.cpu_seconds;
        ])
    [
      ("E (enumeration)", Chop.Explore.Enumeration);
      ("I (iterative, Fig. 5)", Chop.Explore.Iterative);
      ("B (branch-and-bound)", Chop.Explore.Branch_bound);
    ];
  Texttable.print t;
  print_endline
    "(on first-level-pruned lists every combination already passes the\n\
     bounds, so branch-and-bound degenerates to enumeration — the paper's\n\
     two-level pruning does the heavy lifting before any clever search;\n\
     the iterative heuristic stays the cheapest, as the paper observed)"

let ablation_scheduler () =
  section
    "Ablation: BAD's scheduling engine — allocation-driven list scheduling \
     vs length-driven force-directed scheduling [9]";
  let t =
    Texttable.create
      [
        ("Scheduler", Texttable.Left); ("Predictions", Texttable.Right);
        ("Kept", Texttable.Right); ("Best II (k=2)", Texttable.Right);
        ("BAD CPU s", Texttable.Right);
      ]
  in
  List.iter
    (fun (name, scheduler) ->
      let g = Chop_dfg.Benchmarks.ar_lattice_filter () in
      let clocks =
        Chop_tech.Clocking.make ~main:300. ~datapath_ratio:10 ~transfer_ratio:1
      in
      let cfg =
        Chop_bad.Predictor.config ~scheduler
          ~library:Chop_tech.Mosis.experiment_library ~clocks
          ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle) ()
      in
      let t0 = Sys.time () in
      let preds = Chop_bad.Predictor.predict cfg ~label:"P1" g in
      let dt = Sys.time () -. t0 in
      let crit = Chop_bad.Feasibility.criteria ~perf:30000. ~delay:30000. () in
      let chip_area =
        Chop_tech.Chip.usable_area Chop_tech.Mosis.package_84 ~signal_pins:42
      in
      let kept = Chop_bad.Predictor.prune cfg ~criteria:crit ~chip_area preds in
      (* best system when both partitions use this scheduler *)
      let best_ii =
        let spec = Chop.Rig.experiment1 ~partitions:2 () in
        (* rebuild predictions with the scheduler under test *)
        let per_partition =
          List.map
            (fun p ->
              let label = p.Chop_dfg.Partition.label in
              let sub =
                Chop_dfg.Partition.subgraph spec.Chop.Spec.partitioning p
              in
              let cfg = { cfg with Chop_bad.Predictor.scheduler } in
              let preds = Chop_bad.Predictor.predict cfg ~label sub in
              let area = Chop.Explore.partition_chip_area spec ~label in
              (label, Chop_bad.Predictor.prune cfg ~criteria:crit ~chip_area:area preds))
            spec.Chop.Spec.partitioning.Chop_dfg.Partition.parts
        in
        let ctx = Chop.Integration.context spec in
        let outcome = Chop.Enum_heuristic.run ctx per_partition in
        match outcome.Chop.Search.feasible with
        | s :: _ -> string_of_int s.Chop.Integration.ii_main
        | [] -> "-"
      in
      Texttable.add_row t
        [ name; string_of_int (List.length preds);
          string_of_int (List.length kept); best_ii; Printf.sprintf "%.2f" dt ])
    [ ("list (default)", Chop_bad.Predictor.List_based);
      ("force-directed", Chop_bad.Predictor.Force_directed) ];
  Texttable.print t;
  print_endline
    "(force-directed scheduling sweeps lengths and minimizes units per\n\
     length: it maps the area-lean region of the space, while list\n\
     scheduling's allocation sweep reaches the deeply parallel, faster\n\
     design points — the two engines explore complementary frontiers)"

let ablation_prediction_accuracy () =
  section
    "Ablation: BAD prediction accuracy vs synthesized netlists (the paper's \
     \"tested using the ADAM Synthesis tools ... very accurate\" claim)";
  let g = Chop_dfg.Benchmarks.ar_lattice_filter () in
  let clocks =
    Chop_tech.Clocking.make ~main:300. ~datapath_ratio:10 ~transfer_ratio:1
  in
  let cfg =
    Chop_bad.Predictor.config ~library:Chop_tech.Mosis.experiment_library
      ~clocks ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle) ()
  in
  let report_for name g =
    let preds = Chop_bad.Predictor.predict cfg ~label:name g in
    let nonpipe =
      List.filter
        (fun (p : Chop_bad.Prediction.t) ->
          p.Chop_bad.Prediction.style = Chop_tech.Style.Non_pipelined)
        preds
    in
    let sample = List.filteri (fun i _ -> i mod 13 = 0) nonpipe in
    Printf.printf "%s:\n" name;
    print_string (Chop_rtl.Validate.accuracy_report cfg g sample)
  in
  report_for "ar_lattice_filter" g;
  report_for "elliptic_wave_filter" (Chop_dfg.Benchmarks.elliptic_wave_filter ());
  report_for "dct8" (Chop_dfg.Benchmarks.dct8 ())

let ablation_baseline () =
  section "Ablation: min-cut baseline vs constraint-driven partitioning";
  let g = Chop_dfg.Benchmarks.ar_lattice_filter () in
  let t =
    Texttable.create
      [
        ("Strategy", Texttable.Left); ("Cut bits", Texttable.Right);
        ("Feasible", Texttable.Right); ("Best II", Texttable.Right);
      ]
  in
  List.iter
    (fun strategy ->
      let pg = Chop_baseline.Autopart.generate g ~k:2 strategy in
      let cut = Chop_dfg.Partition.cut_bits_total pg in
      let feas =
        if List.length pg.Chop_dfg.Partition.parts < 2 then []
        else
          let spec =
            Chop.Rig.custom ~graph:g ~partitioning:pg
              ~package:Chop_tech.Mosis.package_84
              ~clocks:
                (Chop_tech.Clocking.make ~main:300. ~datapath_ratio:10
                   ~transfer_ratio:1)
              ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle)
              ~criteria:
                (Chop_bad.Feasibility.criteria ~perf:30000. ~delay:30000. ())
              ()
          in
          (explore spec).Chop.Explore.outcome
            .Chop.Search.feasible
      in
      Texttable.add_row t
        [
          Chop_baseline.Autopart.strategy_name strategy; string_of_int cut;
          string_of_int (List.length feas);
          (match feas with
          | [] -> "-"
          | s :: _ -> string_of_int s.Chop.Integration.ii_main);
        ])
    [ Chop_baseline.Autopart.Levels; Chop_baseline.Autopart.Min_cut 1;
      Chop_baseline.Autopart.Random_balanced 42 ];
  Texttable.print t

let ablation_hwsw_codesign () =
  section
    "HW/SW co-design: the pcm_pwm feasibility triangle (implementation-model \
     backends)";
  let module Ops = Chop_server.Ops in
  let spec_with impls =
    let graph =
      match Ops.graph_of_name "pcm_pwm" with
      | Ok g -> g
      | Error m -> failwith m
    in
    Ops.build_spec
      ~processors:(Ops.processors_for ~benchmark:"pcm_pwm" ~impls)
      ~impls ~graph ~partitions:2 ~package:Chop_tech.Mosis.package_84
      ~perf:30000. ~delay:30000. ~multicycle:true
      ~strategy:(Chop_baseline.Autopart.Min_cut 1) ()
  in
  let t =
    Texttable.create
      [
        ("Binding", Texttable.Left); ("Feasible", Texttable.Right);
        ("Best perf ns", Texttable.Right); ("II", Texttable.Right);
        ("Clock ns", Texttable.Right); ("Model flips", Texttable.Right);
      ]
  in
  let row_of name feas flips =
    match feas with
    | [] -> Texttable.add_row t [ name; "0"; "-"; "-"; "-"; flips ]
    | s :: _ ->
        Texttable.add_row t
          [
            name;
            string_of_int (List.length feas);
            Printf.sprintf "%.0f" s.Chop.Integration.perf_ns;
            string_of_int s.Chop.Integration.ii_main;
            Printf.sprintf "%.0f" s.Chop.Integration.clock;
            flips;
          ]
  in
  List.iter
    (fun (name, impls) ->
      let feas =
        (explore (spec_with impls)).Chop.Explore.outcome.Chop.Search.feasible
      in
      row_of name feas "-")
    [
      ("all hardware", []);
      ("all software", [ ("P1", "cpu"); ("P2", "cpu") ]);
    ];
  let o =
    Chop_auto.run ~seed:1
      ~config:(Chop.Explore.Config.make ~cache:Chop.Explore.Config.Off ())
      (spec_with [])
  in
  let bindings =
    String.concat ", "
      (List.map
         (fun p ->
           Printf.sprintf "%s=%s" p.Chop_dfg.Partition.label
             (Chop.Spec.impl_of_partition o.Chop_auto.spec
                p.Chop_dfg.Partition.label))
         o.Chop_auto.spec.Chop.Spec.partitioning.Chop_dfg.Partition.parts)
  in
  row_of
    (Printf.sprintf "refined (%s)" bindings)
    o.Chop_auto.report.Chop.Explore.outcome.Chop.Search.feasible
    (string_of_int o.Chop_auto.impl_flips);
  Texttable.print t;
  print_endline
    "(the all-hardware seed is clock-bound by the multiplier stage and the\n\
     all-software seed is memory-starved into narrow issue; refinement\n\
     rehosts the cheap-op stage onto the embedded core and beats both —\n\
     the co-design loop the Model seam exists to close)"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks *)

let ablation_system_simulation () =
  section
    "Validation: simulating the predicted systems (multi-instance stream \
     through the macro-pipeline)";
  let t =
    Texttable.create
      [
        ("System", Texttable.Left); ("Predicted II", Texttable.Right);
        ("Simulated II", Texttable.Right); ("Predicted delay", Texttable.Right);
        ("Simulated 1st latency", Texttable.Right); ("Pin stalls", Texttable.Right);
        ("Consistent", Texttable.Center);
      ]
  in
  List.iter
    (fun (name, spec) ->
      let ctx = Chop.Integration.context spec in
      let report = explore spec in
      match report.Chop.Explore.outcome.Chop.Search.feasible with
      | [] -> Texttable.add_row t [ name; "-"; "-"; "-"; "-"; "-"; "-" ]
      | s :: _ ->
          let r = Chop.Sysim.simulate ctx ~instances:12 s in
          Texttable.add_row t
            [
              name;
              string_of_int s.Chop.Integration.ii_main;
              Printf.sprintf "%.1f" r.Chop.Sysim.achieved_ii;
              string_of_int s.Chop.Integration.delay_cycles;
              string_of_int r.Chop.Sysim.first_latency;
              string_of_int r.Chop.Sysim.pin_stalls;
              (if Chop.Sysim.throughput_consistent s r then "yes" else "NO");
            ])
    [
      ("exp1, 1 chip", Chop.Rig.experiment1 ~partitions:1 ());
      ("exp1, 2 chips", Chop.Rig.experiment1 ~partitions:2 ());
      ("exp1, 3 chips", Chop.Rig.experiment1 ~partitions:3 ());
      ("exp2, 2 chips", Chop.Rig.experiment2 ~partitions:2 ());
      ("exp2, 3 chips", Chop.Rig.experiment2 ~partitions:3 ());
    ];
  Texttable.print t;
  print_endline
    "(the executed macro-pipeline reproduces the predicted initiation\n\
     interval and first-instance delay, validating the integration model)"

let ablation_chip_level_synthesis () =
  section
    "Validation: chip-level synthesis and layout of the winning designs \
     (section 5's \"synthesize and layout\")";
  let t =
    Texttable.create
      [
        ("System", Texttable.Left); ("Chip", Texttable.Left);
        ("PUs", Texttable.Right); ("DTMs", Texttable.Right);
        ("Cell area", Texttable.Right); ("Floorplan", Texttable.Left);
      ]
  in
  List.iter
    (fun (name, spec) ->
      let ctx = Chop.Integration.context spec in
      match
        (explore spec).Chop.Explore.outcome
          .Chop.Search.feasible
      with
      | [] -> Texttable.add_row t [ name; "-"; "-"; "-"; "-"; "infeasible" ]
      | best :: _ ->
          let sys = Chop_rtl.System.synthesize ctx best in
          List.iter
            (fun cd ->
              Texttable.add_row t
                [
                  name;
                  cd.Chop_rtl.System.chip_name;
                  string_of_int (List.length cd.Chop_rtl.System.pu_netlists);
                  string_of_int (List.length cd.Chop_rtl.System.dtms);
                  Printf.sprintf "%.0f" cd.Chop_rtl.System.total_cell_area;
                  (match cd.Chop_rtl.System.floorplan with
                  | Ok fp ->
                      Printf.sprintf "fits, %.0f%%"
                        (100. *. fp.Chop_rtl.Floorplan.utilization)
                  | Error r -> "FAILS: " ^ r);
                ])
            sys.Chop_rtl.System.chips;
          Texttable.add_separator t)
    [
      ("exp1, 2 chips", Chop.Rig.experiment1 ~partitions:2 ());
      ("exp2, 3 chips", Chop.Rig.experiment2 ~partitions:3 ());
    ];
  Texttable.print t;
  print_endline
    "(every chip of every winning design synthesizes and floorplans inside\n\
     its MOSIS package — CHOP's probabilistic area verdicts hold up under\n\
     exact binding and placement)"

let secondary_workload () =
  section
    "Secondary workload: the elliptic wave filter (26 add, 8 mult) under \
     experiment-2 conditions";
  let t =
    Texttable.create
      [
        ("Partitions", Texttable.Right); ("BAD total", Texttable.Right);
        ("Kept", Texttable.Right); ("H", Texttable.Center);
        ("Trials", Texttable.Right); ("Best II", Texttable.Right);
        ("Delay", Texttable.Right); ("Clock ns", Texttable.Right);
      ]
  in
  List.iter
    (fun k ->
      let graph = Chop_dfg.Benchmarks.elliptic_wave_filter () in
      let partitioning =
        if k = 1 then Chop_dfg.Partition.whole graph
        else Chop_dfg.Partition.by_levels graph ~k
      in
      let spec =
        Chop.Rig.custom ~graph ~partitioning
          ~package:Chop_tech.Mosis.package_84
          ~clocks:
            (Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1
               ~transfer_ratio:1)
          ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle)
          ~criteria:(Chop_bad.Feasibility.criteria ~perf:20000. ~delay:20000. ())
          ()
      in
      let _, stats = bad_predictions spec in
      let total = Listx.sum_by (fun b -> b.Chop.Explore.total_predictions) stats in
      let kept = Listx.sum_by (fun b -> b.Chop.Explore.kept) stats in
      List.iter
        (fun (hname, h) ->
          let report = explore ~heuristic:h spec in
          let st = report.Chop.Explore.outcome.Chop.Search.stats in
          match report.Chop.Explore.outcome.Chop.Search.feasible with
          | [] ->
              Texttable.add_row t
                [ string_of_int k; string_of_int total; string_of_int kept;
                  hname; string_of_int st.Chop.Search.implementation_trials;
                  "-"; "-"; "-" ]
          | s :: _ ->
              Texttable.add_row t
                [
                  string_of_int k; string_of_int total; string_of_int kept;
                  hname; string_of_int st.Chop.Search.implementation_trials;
                  string_of_int s.Chop.Integration.ii_main;
                  string_of_int s.Chop.Integration.delay_cycles;
                  Printf.sprintf "%.0f" s.Chop.Integration.clock;
                ])
        heuristics;
      Texttable.add_separator t)
    [ 1; 2; 3 ];
  Texttable.print t;
  print_endline
    "(the add-dominated EWF is pin- rather than area-limited: the\n\
     single-chip form misses the 20 us target, and partitioning buys its\n\
     rate through parallel cheap adders — a different bottleneck profile\n\
     from the multiplier-heavy AR filter, handled by the same machinery)"

let scale_check () =
  section "Scale check: a 120-operation random specification on 8 chips";
  let graph = Chop_dfg.Benchmarks.random_dag ~ops:120 ~seed:2026 () in
  let partitioning =
    Chop_baseline.Autopart.generate graph ~k:8
      (Chop_baseline.Autopart.Random_balanced 5)
  in
  let spec =
    Chop.Rig.custom ~graph ~partitioning ~package:Chop_tech.Mosis.package_84
      ~clocks:(Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1 ~transfer_ratio:1)
      ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle)
      ~criteria:(Chop_bad.Feasibility.criteria ~perf:100000. ~delay:100000. ())
      ()
  in
  let t0 = Sys.time () in
  let report = explore spec in
  let dt = Sys.time () -. t0 in
  let totals =
    Listx.sum_by (fun b -> b.Chop.Explore.total_predictions) report.Chop.Explore.bad
  in
  Printf.printf
    "120 ops, 8 partitions: %d BAD predictions, %d trials, %d feasible \
     non-inferior designs, %.2f s end to end\n"
    totals
    report.Chop.Explore.outcome.Chop.Search.stats.Chop.Search.implementation_trials
    (List.length report.Chop.Explore.outcome.Chop.Search.feasible)
    dt;
  (match report.Chop.Explore.outcome.Chop.Search.feasible with
  | s :: _ ->
      Printf.printf "best: II %d, delay %d cycles, clock %.0f ns\n"
        s.Chop.Integration.ii_main s.Chop.Integration.delay_cycles
        s.Chop.Integration.clock
  | [] -> print_endline "no feasible design at these constraints");
  print_endline
    "(four times the paper's workload, eight chips, seconds end to end —\n\
     fast enough for the interactive advising loop at modern scale)"

let microbenchmarks () =
  section "Micro-benchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  let spec1 = Chop.Rig.experiment1 ~partitions:2 () in
  let spec2 = Chop.Rig.experiment2 ~partitions:2 () in
  let sub =
    Chop_dfg.Partition.subgraph spec1.Chop.Spec.partitioning
      (List.hd spec1.Chop.Spec.partitioning.Chop_dfg.Partition.parts)
  in
  let bad_cfg = Chop.Explore.predictor_config spec1 ~label:"P1" in
  let per_partition, _ = bad_predictions spec1 in
  let ctx = Chop.Integration.context spec1 in
  let comb = List.map (fun (l, ps) -> (l, List.hd ps)) per_partition in
  let tests =
    Test.make_grouped ~name:"chop"
      [
        Test.make ~name:"bad-predict-partition"
          (Staged.stage (fun () ->
               ignore (Chop_bad.Predictor.predict bad_cfg ~label:"P1" sub)));
        Test.make ~name:"system-integration"
          (Staged.stage (fun () -> ignore (Chop.Integration.integrate ctx comb)));
        Test.make ~name:"search-enumeration-exp1-k2"
          (Staged.stage (fun () ->
               ignore (explore ~heuristic:Chop.Explore.Enumeration spec1)));
        Test.make ~name:"search-iterative-exp1-k2"
          (Staged.stage (fun () ->
               ignore (explore spec1)));
        Test.make ~name:"search-enumeration-exp2-k2"
          (Staged.stage (fun () ->
               ignore (explore ~heuristic:Chop.Explore.Enumeration spec2)));
        Test.make ~name:"search-iterative-exp2-k2"
          (Staged.stage (fun () ->
               ignore (explore spec2)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> est
          | Some [] | None -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let t =
    Texttable.create
      [ ("Benchmark", Texttable.Left); ("Time per run", Texttable.Right) ]
  in
  List.iter
    (fun (name, ns) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Texttable.add_row t [ name; human ])
    rows;
  Texttable.print t

let () =
  print_endline
    "CHOP reproduction benches — Kucukcakar & Parker, DAC 1991\n\
     Workload: AR lattice filter element (Figure 6), 28 operations.";
  print_inputs ();

  section "Table 3: statistics on the results from BAD (experiment 1)";
  bad_statistics ~title:"single-cycle style, 30 000 ns constraints" (fun k ->
      Chop.Rig.experiment1 ~partitions:k ());

  section "Table 4: results of experiment 1";
  search_results ~title:"single-cycle, data-path clock 10x main"
    ~rows:
      [
        (1, "2", Chop_tech.Mosis.package_84);
        (2, "2", Chop_tech.Mosis.package_84);
        (2, "1", Chop_tech.Mosis.package_64);
        (3, "2", Chop_tech.Mosis.package_84);
      ]
    (fun k package -> Chop.Rig.experiment1 ~package ~partitions:k ());

  design_space
    ~title:
      "Figure 7: designs considered during experiment 1 (no pruning; 1- and \
       2-partition searches — the unpruned 3-partition product exceeds 4.5M \
       integrations, the same blow-up that cost the paper its swap space in \
       experiment 2)"
    ~partition_counts:[ 1; 2 ]
    (fun k -> Chop.Rig.experiment1 ~partitions:k ());

  section "Table 5: statistics on the results from BAD (experiment 2)";
  bad_statistics ~title:"multi-cycle style, 20 000 ns performance constraint"
    (fun k -> Chop.Rig.experiment2 ~partitions:k ());

  section "Table 6: results of experiment 2";
  search_results ~title:"multi-cycle, both clocks at main speed"
    ~rows:
      [
        (1, "2", Chop_tech.Mosis.package_84);
        (2, "2", Chop_tech.Mosis.package_84);
        (3, "2", Chop_tech.Mosis.package_84);
      ]
    (fun k package -> Chop.Rig.experiment2 ~package ~partitions:k ());

  design_space
    ~title:
      "Figure 8: designs considered during experiment 2 (no pruning, \
       1-partition case only — the paper hit swap-space limits beyond that)"
    ~partition_counts:[ 1 ]
    (fun k -> Chop.Rig.experiment2 ~partitions:k ());

  ablation_pruning ();
  ablation_testability ();
  ablation_power ();
  ablation_pin_sensitivity ();
  ablation_technology_scaling ();
  ablation_cost ();
  ablation_chaining ();
  ablation_transformations ();
  ablation_packing ();
  ablation_heuristics ();
  ablation_scheduler ();
  ablation_prediction_accuracy ();
  ablation_system_simulation ();
  ablation_chip_level_synthesis ();
  ablation_baseline ();
  ablation_hwsw_codesign ();
  secondary_workload ();
  scale_check ();
  microbenchmarks ();
  print_endline "\nDone.  See EXPERIMENTS.md for paper-vs-measured commentary."
