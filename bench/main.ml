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

(* ------------------------------------------------------------------ *)
(* Machine-readable exploration timing: BENCH_explore.json records the
   wall-clock of the keep-all exploration per benchmark x heuristic x jobs,
   so later changes can be tracked against these numbers.  The prediction
   cache is off and every run uses a fresh engine: each entry is an honest
   cold run. *)

let bench_explore_json ?(smoke = false) () =
  section
    (if smoke then "Exploration engine smoke run (EWF only, no JSON)"
     else "Exploration engine timing (BENCH_explore.json)");
  let ewf_spec () =
    let graph = Chop_dfg.Benchmarks.elliptic_wave_filter () in
    Chop.Rig.custom ~graph
      ~partitioning:(Chop_dfg.Partition.by_levels graph ~k:2)
      ~package:Chop_tech.Mosis.package_84
      ~clocks:
        (Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1
           ~transfer_ratio:1)
      ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle)
      ~criteria:(Chop_bad.Feasibility.criteria ~perf:20000. ~delay:20000. ())
      ()
  in
  let ar_spec () = Chop.Rig.experiment1 ~partitions:2 () in
  let benches =
    if smoke then [ ("ewf", ewf_spec) ]
    else [ ("ewf", ewf_spec); ("ar", ar_spec) ]
  in
  (* one timed keep-all run per benchmark x heuristic x jobs x pre-prune;
     the pre_prune=false rows keep the numbers comparable with the
     pre-dominance-pruning history of this file *)
  let runs =
    List.concat_map
      (fun (bench_name, spec_of) ->
        List.concat_map
          (fun (h_name, h) ->
            List.concat_map
              (fun jobs ->
                List.map
                  (fun pre_prune ->
                    let spec = spec_of () in
                    let t0 = Unix.gettimeofday () in
                    let report =
                      explore ~heuristic:h ~keep_all:true ~pre_prune ~jobs
                        spec
                    in
                    let wall = Unix.gettimeofday () -. t0 in
                    (bench_name, h_name, jobs, pre_prune, wall, report))
                  [ true; false ])
              [ 1; 4 ])
          [ ("E", Chop.Explore.Enumeration); ("B", Chop.Explore.Branch_bound) ])
      benches
  in
  let entries =
    List.map
      (fun (bench_name, h_name, jobs, pre_prune, wall, report) ->
        let m = report.Chop.Explore.metrics in
        let st = report.Chop.Explore.outcome.Chop.Search.stats in
        let trials = st.Chop.Search.implementation_trials in
        let search_wall =
          m.Chop.Explore.Metrics.search.Chop.Explore.Metrics.wall_seconds
        in
        let per_second =
          if search_wall > 0. then float_of_int trials /. search_wall else 0.
        in
        Printf.printf
          "  %-4s %-2s jobs=%d prune=%-5b %8.3f s wall  (%d explored, %d \
           trials, %d avoided, %.0f comb/s)\n"
          bench_name h_name jobs pre_prune wall
          (List.length report.Chop.Explore.outcome.Chop.Search.explored)
          trials st.Chop.Search.integrations_avoided per_second;
        Printf.sprintf
          "    {\"benchmark\": \"%s\", \"heuristic\": \"%s\", \
           \"jobs\": %d, \"keep_all\": true, \"wall_seconds\": %.6f, \
           \"predict_wall_seconds\": %.6f, \"predict_busy_seconds\": \
           %.6f, \"search_wall_seconds\": %.6f, \
           \"search_busy_seconds\": %.6f, \"merge_wall_seconds\": \
           %.6f, \"chunks\": %d, \"cache_hits\": %d, \
           \"cache_misses\": %d, \"cache_evictions\": %d, \
           \"pre_prune\": %b, \"trials\": %d, \
           \"integrations\": %d, \"integrations_avoided\": %d, \
           \"pruned_impls\": %d, \"chip_cache_hits\": %d, \
           \"combinations_per_second\": %.1f}"
          bench_name h_name jobs wall
          m.Chop.Explore.Metrics.predict.Chop.Explore.Metrics.wall_seconds
          m.Chop.Explore.Metrics.predict.Chop.Explore.Metrics.busy_seconds
          search_wall
          m.Chop.Explore.Metrics.search.Chop.Explore.Metrics.busy_seconds
          m.Chop.Explore.Metrics.merge_wall_seconds
          m.Chop.Explore.Metrics.chunk_count
          m.Chop.Explore.Metrics.cache_hits
          m.Chop.Explore.Metrics.cache_misses
          m.Chop.Explore.Metrics.cache_evictions pre_prune trials
          st.Chop.Search.integrations st.Chop.Search.integrations_avoided
          m.Chop.Explore.Metrics.pruned_impls
          m.Chop.Explore.Metrics.chip_cache_hits per_second)
      runs
  in
  (* sequential vs --jobs: same work split across the pool *)
  print_newline ();
  let t =
    Texttable.create ~title:"search wall: sequential vs --jobs 4"
      [
        ("Benchmark", Texttable.Left); ("H", Texttable.Center);
        ("Pre-prune", Texttable.Center); ("jobs=1 s", Texttable.Right);
        ("jobs=4 s", Texttable.Right); ("Speedup", Texttable.Right);
      ]
  in
  let search_wall_of want_jobs bench h prune =
    List.find_map
      (fun (b, hn, jobs, pp, _, report) ->
        if b = bench && hn = h && jobs = want_jobs && pp = prune then
          Some
            report.Chop.Explore.metrics.Chop.Explore.Metrics.search
              .Chop.Explore.Metrics.wall_seconds
        else None)
      runs
  in
  List.iter
    (fun (bench, h, prune) ->
      match (search_wall_of 1 bench h prune, search_wall_of 4 bench h prune) with
      | Some w1, Some w4 ->
          Texttable.add_row t
            [
              bench; h;
              (if prune then "on" else "off");
              Printf.sprintf "%.3f" w1;
              Printf.sprintf "%.3f" w4;
              (if w4 > 0. then Printf.sprintf "%.2fx" (w1 /. w4) else "-");
            ]
      | _ -> ())
    (List.concat_map
       (fun (bench, _) ->
         List.concat_map
           (fun h -> [ (bench, h, true); (bench, h, false) ])
           [ "E"; "B" ])
       benches);
  Texttable.print t;
  if smoke then print_endline "  smoke OK (BENCH_explore.json left untouched)"
  else begin
    let oc = open_out "BENCH_explore.json" in
    Printf.fprintf oc
      "{\n  \"host_cores\": %d,\n  \"entries\": [\n%s\n  ]\n}\n"
      (Domain.recommended_domain_count ())
      (String.concat ",\n" entries);
    close_out oc;
    print_endline "  wrote BENCH_explore.json"
  end

(* ------------------------------------------------------------------ *)

(* [bench serve]: load-generate against an in-process chop server over a
   Unix-domain socket.  Cold requests hit fresh engine keys (engine
   construction + BAD prediction); warm requests repeat the first key and
   ride the persistent engine and shared prediction cache.  Writes
   BENCH_serve.json (also in --smoke mode: the file is the acceptance
   artifact). *)
let bench_serve_json ?(smoke = false) () =
  let module Server = Chop_server.Server in
  let module Client = Chop_server.Client in
  let module Protocol = Chop_server.Protocol in
  section
    (if smoke then "bench serve --smoke: cold vs warm request latency"
     else "bench serve: cold vs warm request latency");
  let socket_path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "chop-bench-serve-%d.sock" (Unix.getpid ()))
  in
  let concurrency = 2 and queue = 32 and jobs = 1 in
  let server =
    Server.create
      {
        Server.default_config with
        socket_path = Some socket_path;
        concurrency;
        queue;
        jobs;
        log = None;
        handle_signals = false;
      }
  in
  let server_thread = Thread.create Server.serve server in
  let client =
    (* the listener is up before [create] returns; retry briefly anyway *)
    let rec retry n =
      match Client.connect socket_path with
      | c -> c
      | exception Unix.Unix_error _ when n > 0 ->
          Thread.delay 0.05;
          retry (n - 1)
    in
    retry 40
  in
  let request ~id ~perf =
    Protocol.request_to_json
      {
        Protocol.id;
        op = Protocol.Explore;
        deadline_ms = None;
        params =
          {
            Protocol.default_params with
            benchmark = "ewf";
            partitions = 2;
            perf;
            keep_all = true;
          };
      }
  in
  let timed_rpc json =
    let t0 = Unix.gettimeofday () in
    match Client.rpc client json with
    | Ok resp ->
        let ms = (Unix.gettimeofday () -. t0) *. 1000. in
        if Protocol.response_ok resp <> Some true then
          failwith "bench serve: request failed";
        ms
    | Error msg -> failwith ("bench serve: " ^ msg)
  in
  let cold_n = if smoke then 3 else 8 in
  let warm_n = if smoke then 12 else 40 in
  let t_start = Unix.gettimeofday () in
  (* distinct perf constraints -> distinct engine keys -> every request
     builds its engine and predicts from an empty per-engine state *)
  let cold =
    List.init cold_n (fun i ->
        timed_rpc
          (request
             ~id:(Printf.sprintf "cold-%d" i)
             ~perf:(30000. +. (100. *. float_of_int i))))
  in
  (* repeats of the first cold key: warm engine, warm prediction cache *)
  let warm =
    List.init warm_n (fun i ->
        timed_rpc (request ~id:(Printf.sprintf "warm-%d" i) ~perf:30000.))
  in
  let wall = Unix.gettimeofday () -. t_start in
  (* cross-session pass: "ewf2" is ewf rebuilt in a shuffled construction
     order.  Cold samples predict ewf at partition counts untouched above;
     each paired ewf2 response, served on the cache ewf just filled, must
     then render exactly as a cache-off explore of its own spec — a
     prediction borrowed across the two numberings would show here. *)
  let xparams ~benchmark ~partitions =
    { Protocol.default_params with benchmark; partitions; keep_all = true }
  in
  let xrequest ~id params =
    Protocol.request_to_json
      { Protocol.id; op = Protocol.Explore; deadline_ms = None; params }
  in
  let rpc_timed json =
    match Client.rpc client json with
    | Ok resp ->
        if Protocol.response_ok resp <> Some true then
          failwith "bench serve: request failed";
        let predict_ms =
          match
            Option.bind
              (Option.bind (Chop_util.Json.member "timing" resp)
                 (Chop_util.Json.member "predict_ms"))
              Chop_util.Json.to_float_opt
          with
          | Some v -> v
          | None -> failwith "bench serve: predict_ms missing from timing"
        in
        let text =
          match
            Option.bind
              (Option.bind (Chop_util.Json.member "result" resp)
                 (Chop_util.Json.member "text"))
              Chop_util.Json.to_string_opt
          with
          | Some t -> t
          | None -> failwith "bench serve: text missing from response"
        in
        (predict_ms, text)
    | Error msg -> failwith ("bench serve: " ^ msg)
  in
  let cache_off_text params =
    match (Chop_server.Ops.spec_of_params params, Chop_server.Ops.config_of_params ~jobs:1 params) with
    | Ok spec, Ok config ->
        Chop_server.Ops.render_explore spec ~keep_all:params.Protocol.keep_all
          ~csv:params.Protocol.csv ~verbose:params.Protocol.verbose
          (Chop.Explore.with_engine
             { config with Chop.Explore.Config.cache = Chop.Explore.Config.Off }
             spec Chop.Explore.Session.run)
    | Error m, _ | _, Error m -> failwith ("bench serve: " ^ m)
  in
  let xsession_n = if smoke then 3 else 6 in
  (* k = 2 is already warm from the passes above; k = 1 (the whole-graph
     enumeration, the costliest cold predict) plus k >= 3 stay cold *)
  let xsession_ks =
    List.init xsession_n (fun i -> if i = 0 then 1 else i + 2)
  in
  let xcold =
    List.map
      (fun k ->
        fst
          (rpc_timed
             (xrequest ~id:(Printf.sprintf "xcold-%d" k)
                (xparams ~benchmark:"ewf" ~partitions:k))))
      xsession_ks
  in
  let xtwin_samples =
    List.map
      (fun k ->
        let params = xparams ~benchmark:"ewf2" ~partitions:k in
        let ms, text =
          rpc_timed (xrequest ~id:(Printf.sprintf "xtwin-%d" k) params)
        in
        (ms, String.equal text (cache_off_text params)))
      xsession_ks
  in
  let xtwin = List.map fst xtwin_samples in
  let xtwin_matching = List.length (List.filter snd xtwin_samples) in
  Client.close client;
  Server.stop server;
  Thread.join server_thread;
  let total = cold_n + warm_n in
  let req_per_s = if wall > 0. then float_of_int total /. wall else 0. in
  let percentile sorted q =
    let n = Array.length sorted in
    let rank = int_of_float (ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))
  in
  let stats_of samples =
    let a = Array.of_list samples in
    Array.sort compare a;
    let mean = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a) in
    (percentile a 0.50, percentile a 0.95, percentile a 0.99, mean)
  in
  let c50, c95, c99, cmean = stats_of cold in
  let w50, w95, w99, wmean = stats_of warm in
  Printf.printf "  %d requests in %.3f s (%.1f req/s)\n" total wall req_per_s;
  Printf.printf
    "  cold (n=%d): p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  mean %.3f ms\n"
    cold_n c50 c95 c99 cmean;
  Printf.printf
    "  warm (n=%d): p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  mean %.3f ms\n"
    warm_n w50 w95 w99 wmean;
  let warm_faster = w50 < c50 in
  Printf.printf "  warm p50 < cold p50: %b (%.2fx)\n" warm_faster
    (if w50 > 0. then c50 /. w50 else 0.);
  let x50c, x95c, x99c, xmeanc = stats_of xcold in
  let x50w, x95w, x99w, xmeanw = stats_of xtwin in
  let xsession_ok = xtwin_matching = xsession_n in
  Printf.printf
    "  xsession cold predict (ewf,  n=%d): p50 %.3f ms  p95 %.3f ms  mean %.3f ms\n"
    xsession_n x50c x95c xmeanc;
  Printf.printf
    "  xsession twin predict (ewf2, n=%d): p50 %.3f ms  p95 %.3f ms  mean %.3f ms\n"
    xsession_n x50w x95w xmeanw;
  Printf.printf "  xsession: %d/%d ewf2 response(s) equal a cache-off explore\n"
    xtwin_matching xsession_n;
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    "{\n\
    \  \"host_cores\": %d,\n\
    \  \"mode\": \"%s\",\n\
    \  \"concurrency\": %d,\n\
    \  \"queue\": %d,\n\
    \  \"jobs\": %d,\n\
    \  \"requests\": %d,\n\
    \  \"wall_seconds\": %.6f,\n\
    \  \"requests_per_second\": %.1f,\n\
    \  \"cold\": {\"count\": %d, \"p50_ms\": %.3f, \"p95_ms\": %.3f, \
     \"p99_ms\": %.3f, \"mean_ms\": %.3f},\n\
    \  \"warm\": {\"count\": %d, \"p50_ms\": %.3f, \"p95_ms\": %.3f, \
     \"p99_ms\": %.3f, \"mean_ms\": %.3f},\n\
    \  \"warm_p50_lt_cold_p50\": %b,\n\
    \  \"xsession\": {\"cold\": {\"count\": %d, \"p50_ms\": %.3f, \
     \"p95_ms\": %.3f, \"p99_ms\": %.3f, \"mean_ms\": %.3f}, \
     \"twin\": {\"count\": %d, \"p50_ms\": %.3f, \"p95_ms\": %.3f, \
     \"p99_ms\": %.3f, \"mean_ms\": %.3f}, \"twin_matches_cache_off\": %d}\n\
     }\n"
    (Domain.recommended_domain_count ())
    (if smoke then "smoke" else "full")
    concurrency queue jobs total wall req_per_s cold_n c50 c95 c99 cmean
    warm_n w50 w95 w99 wmean warm_faster xsession_n x50c x95c x99c xmeanc
    xsession_n x50w x95w x99w xmeanw xtwin_matching;
  close_out oc;
  print_endline "  wrote BENCH_serve.json";
  if not warm_faster then begin
    prerr_endline "bench serve: warm p50 was not below cold p50";
    exit 1
  end;
  if not xsession_ok then begin
    prerr_endline
      "bench serve: cross-session pass failed (an ewf2 response differs \
       from a cache-off explore)";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Interactive-session micro-benchmark: cold exploration vs warm re-runs
   after single edits, with the Metrics cache counters asserting the
   incremental contract — a re-run after an edit misses the prediction
   cache exactly for the partitions the edit dirtied and nowhere else.
   Runs on a private cache (Config.Custom) so the counters are exact. *)

let bench_session_json ?(smoke = false) () =
  section
    (if smoke then "Interactive session smoke run (EWF only, no JSON)"
     else "Interactive session timing (BENCH_session.json)");
  let ewf_spec () =
    let graph = Chop_dfg.Benchmarks.elliptic_wave_filter () in
    Chop.Rig.custom ~graph
      ~partitioning:(Chop_dfg.Partition.by_levels graph ~k:3)
      ~package:Chop_tech.Mosis.package_84
      ~clocks:
        (Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1
           ~transfer_ratio:1)
      ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle)
      ~criteria:(Chop_bad.Feasibility.criteria ~perf:20000. ~delay:20000. ())
      ()
  in
  let ar_spec () = Chop.Rig.experiment1 ~partitions:3 () in
  let benches =
    if smoke then [ ("ewf", ewf_spec) ]
    else [ ("ewf", ewf_spec); ("ar", ar_spec) ]
  in
  let failed = ref false in
  let check name cond =
    Printf.printf "  %-44s %s\n" name (if cond then "ok" else "FAIL");
    if not cond then failed := true
  in
  let rows =
    List.map
      (fun (bench_name, spec_of) ->
        let spec = spec_of () in
        let parts =
          spec.Chop.Spec.partitioning.Chop_dfg.Partition.parts
        in
        let k = List.length parts in
        let config =
          Chop.Explore.Config.make ~jobs:1
            ~cache:(Chop.Explore.Config.Custom (Chop.Pred_cache.create ()))
            ()
        in
        let session = Chop.Explore.Session.create config spec in
        Fun.protect ~finally:(fun () -> Chop.Explore.Session.close session)
        @@ fun () ->
        let timed_run () =
          let t0 = Unix.gettimeofday () in
          let report = Chop.Explore.Session.run session in
          (Unix.gettimeofday () -. t0, report)
        in
        let hits r = r.Chop.Explore.metrics.Chop.Explore.Metrics.cache_hits in
        let misses r =
          r.Chop.Explore.metrics.Chop.Explore.Metrics.cache_misses
        in
        Printf.printf "  %s (%d partitions):\n" bench_name k;
        let cold_wall, cold = timed_run () in
        (* partitions built the same way (ar's repeated lattice stages)
           share a signature and so a cache key, so a cold run may
           legitimately hit on a twin's entry; every partition is still
           accounted for *)
        check "cold run predicts every partition"
          (misses cold >= 1 && misses cold + hits cold = k);
        (* one merge: the single-dirty edit — only the absorbing partition
           re-predicts, every untouched partition hits the cache *)
        let p3 = List.nth parts 2 and p2 = List.nth parts 1 in
        let dirty =
          match
            Chop.Explore.Session.edit session
              [ Chop.Spec.Merge_parts
                  { src = p3.Chop_dfg.Partition.label;
                    dst = p2.Chop_dfg.Partition.label } ]
          with
          | Ok d -> d
          | Error e ->
              failwith (Format.asprintf "%a" Chop.Spec.pp_update_error e)
        in
        let merge_wall, merged = timed_run () in
        check "merge dirties exactly one partition"
          (List.length dirty.Chop.Spec.repredict = 1);
        check "misses after merge == dirty partitions"
          (misses merged
           = List.length dirty.Chop.Spec.repredict
          && hits merged = k - 2);
        (* a criteria change re-screens everything but re-predicts nothing:
           the raw enumeration layer of the cache serves every partition *)
        let criteria_edit =
          Chop.Spec.Set_criteria
            (Chop_bad.Feasibility.criteria ~perf:25000. ~delay:25000. ())
        in
        (match Chop.Explore.Session.edit session [ criteria_edit ] with
        | Ok d -> check "criteria edit re-predicts nothing" (d.Chop.Spec.repredict = [])
        | Error e ->
            failwith (Format.asprintf "%a" Chop.Spec.pp_update_error e));
        let warm_wall, warm = timed_run () in
        check "criteria re-run misses nothing"
          (misses warm = 0 && hits warm = k - 1);
        check "warm edit latency well under cold explore"
          (warm_wall < cold_wall /. 2.);
        (* reopen the edited spec the way another frontend would build it:
           same structure, different construction order (node ids
           shuffled), sharing this session's private cache.  Its run must
           render exactly as a cache-off run of the same spec *)
        if bench_name = "ewf" then begin
          let graph2 =
            Chop_dfg.Transform.renumber
              (Chop_dfg.Benchmarks.elliptic_wave_filter ())
          in
          let spec2 =
            Chop.Rig.custom ~graph:graph2
              ~partitioning:(Chop_dfg.Partition.by_levels graph2 ~k:3)
              ~package:Chop_tech.Mosis.package_84
              ~clocks:
                (Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1
                   ~transfer_ratio:1)
              ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle)
              ~criteria:
                (Chop_bad.Feasibility.criteria ~perf:25000. ~delay:25000. ())
              ()
          in
          let render config =
            Chop.Explore.with_engine config spec2 (fun session2 ->
                Chop_server.Ops.render_explore spec2 ~keep_all:false ~csv:false
                  ~verbose:false
                  (Chop.Explore.Session.run session2))
          in
          check "reopened spec runs as with the cache off"
            (String.equal (render config)
               (render
                  { config with Chop.Explore.Config.cache = Chop.Explore.Config.Off }))
        end;
        Printf.printf
          "    cold %.3f ms   merge-warm %.3f ms   criteria-warm %.3f ms\n"
          (cold_wall *. 1000.) (merge_wall *. 1000.) (warm_wall *. 1000.);
        (bench_name, k, cold_wall, merge_wall, warm_wall))
      benches
  in
  if smoke then
    print_endline "  smoke OK (BENCH_session.json left untouched)"
  else begin
    let oc = open_out "BENCH_session.json" in
    Printf.fprintf oc "{\n  \"host_cores\": %d,\n  \"benches\": [\n"
      (Domain.recommended_domain_count ());
    List.iteri
      (fun i (name, k, cold, merge, warm) ->
        Printf.fprintf oc
          "    {\"bench\": \"%s\", \"partitions\": %d, \
           \"cold_ms\": %.3f, \"merge_warm_ms\": %.3f, \
           \"criteria_warm_ms\": %.3f}%s\n"
          name k (cold *. 1000.) (merge *. 1000.) (warm *. 1000.)
          (if i = List.length rows - 1 then "" else ","))
      rows;
    Printf.fprintf oc "  ]\n}\n";
    close_out oc;
    print_endline "  wrote BENCH_session.json"
  end;
  if !failed then begin
    prerr_endline "bench session: incremental contract violated";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Automatic partitioner: BENCH_auto.json.

   One row per paper benchmark, each a (k, constraints) point chosen so
   the space is interesting: on some rows the Min_cut seed is already
   feasible (auto must keep it and may improve area/performance), on
   others only a different strategy finds feasibility and auto has to
   move its way out.  The harness asserts the ISSUE acceptance criteria:
   auto finds feasibility wherever any Autopart strategy does, beats the
   Min_cut seed on at least 3 rows, and the refinement prediction-cache
   hit rate stays >= 50% in aggregate. *)

let bench_auto_json ?(smoke = false) () =
  section
    (if smoke then "Automatic partitioner smoke run (EWF only, no JSON)"
     else "Automatic partitioner vs Min_cut seed (BENCH_auto.json)");
  let module Ops = Chop_server.Ops in
  let rows =
    (* name, partitions, perf ns, delay ns, multicycle *)
    if smoke then [ ("ewf", 3, 30000., 30000., true) ]
    else
      [
        ("ar", 3, 30000., 30000., false);
        ("ewf", 3, 30000., 30000., true);
        ("fir8", 2, 6000., 30000., false);
        ("fir16", 2, 30000., 30000., false);
        ("diffeq", 2, 6000., 30000., false);
        ("dct8", 4, 30000., 30000., false);
      ]
  in
  let failed = ref false in
  let check name cond =
    Printf.printf "  %-52s %s\n" name (if cond then "ok" else "FAIL");
    if not cond then failed := true
  in
  let spec_of name k perf delay multicycle strategy =
    let graph =
      match Ops.graph_of_name name with
      | Ok g -> g
      | Error m -> failwith m
    in
    Ops.build_spec
      ~processors:(Ops.processors_for ~benchmark:name ~impls:[])
      ~graph ~partitions:k ~package:Chop_tech.Mosis.package_84 ~perf ~delay
      ~multicycle ~strategy ()
  in
  let feasible_of (r : Chop.Explore.report) =
    match r.Chop.Explore.outcome.Chop.Search.feasible with
    | [] -> None
    | best :: _ ->
        let o = Chop.Integration.objectives best in
        Some (o.(0), o.(2)) (* perf ns, likely total area *)
  in
  let jobs_n =
    (* bench auto [--jobs N] sets the parallel run's job count *)
    let rec scan i =
      if i + 1 >= Array.length Sys.argv then 4
      else if Sys.argv.(i) = "--jobs" then
        (try max 2 (int_of_string Sys.argv.(i + 1)) with _ -> 4)
      else scan (i + 1)
    in
    scan 0
  in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "  parallel runs: jobs=%d (host reports %d core(s))\n" jobs_n
    cores;
  (* Each row runs twice over a fresh private cache (so the counters and
     the walls are exactly that run's): sequential, then jobs_n.  The
     parallel pool oversubscribes past the core clamp so the speculative
     path really runs multiple domains even on small hosts — walls stay
     honest for the host either way. *)
  let run_auto name k perf delay multicycle ~jobs =
    let config =
      Chop.Explore.Config.make ~jobs
        ~cache:(Chop.Explore.Config.Custom (Chop.Pred_cache.create ()))
        ()
    in
    let seed_spec =
      spec_of name k perf delay multicycle (Chop_baseline.Autopart.Min_cut 1)
    in
    if jobs = 1 then Chop_auto.run ~config seed_spec
    else begin
      let pool = Chop_util.Pool.create ~oversubscribe:true ~jobs () in
      Fun.protect
        ~finally:(fun () -> Chop_util.Pool.shutdown pool)
        (fun () -> Chop_auto.run ~pool ~config seed_spec)
    end
  in
  let results =
    List.map
      (fun (name, k, perf, delay, multicycle) ->
        Printf.printf "  %s (k=%d, perf %.0f ns, delay %.0f ns%s):\n" name k
          perf delay
          (if multicycle then ", multi-cycle" else "");
        (* which strategies find feasibility on this row? *)
        let strategy_feasible =
          List.map
            (fun (sname, s) ->
              let r = explore (spec_of name k perf delay multicycle s) in
              (sname, feasible_of r <> None))
            [
              ("levels", Chop_baseline.Autopart.Levels);
              ("min-cut", Chop_baseline.Autopart.Min_cut 1);
              ("random", Chop_baseline.Autopart.Random_balanced 1);
            ]
        in
        let any_strategy =
          List.exists (fun (_, f) -> f) strategy_feasible
        in
        let o = run_auto name k perf delay multicycle ~jobs:1 in
        let oj = run_auto name k perf delay multicycle ~jobs:jobs_n in
        check
          (Printf.sprintf "jobs-1 vs jobs-%d results byte-identical" jobs_n)
          (String.equal
             (Ops.render_auto o.Chop_auto.spec o)
             (Ops.render_auto oj.Chop_auto.spec oj));
        let speedup =
          o.Chop_auto.wall_seconds /. Float.max 1e-9 oj.Chop_auto.wall_seconds
        in
        let seed = feasible_of o.Chop_auto.seed_report in
        let final = feasible_of o.Chop_auto.report in
        let beats =
          match (seed, final) with
          | None, Some _ -> true (* verdict flip *)
          | Some (sp, sa), Some (fp, fa) -> fp < sp || fa < sa
          | _, None -> false
        in
        check "auto feasible wherever any strategy is"
          ((not any_strategy) || final <> None);
        check "auto no worse than the Min_cut seed"
          (match (seed, final) with
          | Some _, None -> false
          | _ -> true);
        Printf.printf
          "    seed %s   auto %s   %d move(s) tried, %d accepted, cache %d/%d \
           (%.1f%% hits)\n"
          (match seed with
          | None -> "infeasible"
          | Some (p, a) -> Printf.sprintf "perf %.0f area %.0f" p a)
          (match final with
          | None -> "infeasible"
          | Some (p, a) -> Printf.sprintf "perf %.0f area %.0f" p a)
          o.Chop_auto.moves_tried o.Chop_auto.moves_accepted
          o.Chop_auto.cache_hits o.Chop_auto.cache_misses
          (100.
          *. float_of_int o.Chop_auto.cache_hits
          /. float_of_int (max 1 (o.Chop_auto.cache_hits + o.Chop_auto.cache_misses)));
        Printf.printf
          "    wall %.3f s (jobs=1) / %.3f s (jobs=%d): %.2fx, %d \
           speculative run(s) over %d round(s)\n"
          o.Chop_auto.wall_seconds oj.Chop_auto.wall_seconds jobs_n speedup
          o.Chop_auto.speculative_runs o.Chop_auto.batch_rounds;
        (name, k, perf, delay, multicycle, strategy_feasible, seed, final,
         beats, o, oj, speedup))
      rows
  in
  let hits =
    List.fold_left
      (fun a (_, _, _, _, _, _, _, _, _, o, _, _) -> a + o.Chop_auto.cache_hits)
      0 results
  in
  let misses =
    List.fold_left
      (fun a (_, _, _, _, _, _, _, _, _, o, _, _) ->
        a + o.Chop_auto.cache_misses)
      0 results
  in
  let hit_rate = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  let beaten =
    List.length
      (List.filter (fun (_, _, _, _, _, _, _, _, b, _, _, _) -> b) results)
  in
  Printf.printf "  aggregate refinement cache hit rate %.1f%%, seed beaten on \
                 %d/%d rows\n"
    (100. *. hit_rate) beaten (List.length results);
  (* the probe-score memo now skips redundant runs outright, so the small
     single-row smoke set sees relatively more cold misses; the full set
     stays well above 50% *)
  let hit_floor = if smoke then 0.3 else 0.5 in
  check
    (Printf.sprintf "aggregate refinement cache hit rate >= %.0f%%"
       (100. *. hit_floor))
    (hit_rate >= hit_floor);
  if not smoke then begin
    check "beats the Min_cut seed on >= 3 benchmarks" (beaten >= 3);
    (* the speedup target needs real cores behind the pool; on smaller
       hosts the ratio is recorded in the JSON but not asserted *)
    List.iter
      (fun (name, _, _, _, _, _, _, _, _, _, _, speedup) ->
        if name = "dct8" then
          if cores >= 4 then
            check "dct8 speedup >= 2.5x at jobs=4" (speedup >= 2.5)
          else
            Printf.printf
              "  dct8 speedup %.2fx — >= 2.5x assertion skipped (host has \
               %d core(s), needs >= 4)\n"
              speedup cores)
      results
  end;
  if smoke then print_endline "  smoke OK (BENCH_auto.json left untouched)"
  else begin
    let oc = open_out "BENCH_auto.json" in
    Printf.fprintf oc
      "{\n\
      \  \"seed_strategy\": \"min-cut\",\n\
      \  \"refinement_cache_hit_rate\": %.3f,\n\
      \  \"rows_beating_seed\": %d,\n\
      \  \"parallel_jobs\": %d,\n\
      \  \"host_cores\": %d,\n\
      \  \"jobs_byte_identical\": %b,\n\
      \  \"benches\": [\n"
      hit_rate beaten jobs_n cores (not !failed);
    List.iteri
      (fun i (name, k, perf, delay, multicycle, strategy_feasible, seed, final,
              beats, o, oj, speedup) ->
        let verdict = function None -> "infeasible" | Some _ -> "feasible" in
        let obj field = function
          | None -> "null"
          | Some (p, a) ->
              Printf.sprintf "%.0f" (if field = `Perf then p else a)
        in
        Printf.fprintf oc
          "    {\"bench\": \"%s\", \"partitions\": %d, \"perf_ns\": %.0f, \
           \"delay_ns\": %.0f, \"multicycle\": %b,\n\
          \     \"strategies\": {%s},\n\
          \     \"seed\": {\"verdict\": \"%s\", \"perf_ns\": %s, \"area\": %s},\n\
          \     \"auto\": {\"verdict\": \"%s\", \"perf_ns\": %s, \"area\": %s, \
           \"beats_seed\": %b,\n\
          \              \"levels\": %d, \"coarse_clusters\": %d, \
           \"moves_tried\": %d, \"moves_accepted\": %d,\n\
          \              \"speculative_runs\": %d, \"batch_rounds\": %d,\n\
          \              \"cache_hits\": %d, \"cache_misses\": %d,\n\
          \              \"wall_s_jobs1\": %.3f, \"wall_s_jobs%d\": %.3f, \
           \"speedup\": %.2f}}%s\n"
          name k perf delay multicycle
          (String.concat ", "
             (List.map
                (fun (s, f) -> Printf.sprintf "\"%s\": \"%s\"" s
                    (if f then "feasible" else "infeasible"))
                strategy_feasible))
          (verdict seed) (obj `Perf seed) (obj `Area seed)
          (verdict final) (obj `Perf final) (obj `Area final) beats
          o.Chop_auto.levels o.Chop_auto.coarse_clusters
          o.Chop_auto.moves_tried o.Chop_auto.moves_accepted
          o.Chop_auto.speculative_runs o.Chop_auto.batch_rounds
          o.Chop_auto.cache_hits o.Chop_auto.cache_misses
          o.Chop_auto.wall_seconds jobs_n
          oj.Chop_auto.wall_seconds speedup
          (if i = List.length results - 1 then "" else ","))
      results;
    Printf.fprintf oc "  ]\n}\n";
    close_out oc;
    print_endline "  wrote BENCH_auto.json"
  end;
  if !failed then begin
    prerr_endline "bench auto: acceptance criteria violated";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* [bench gateway]: real [chop serve] subprocesses behind the in-process
   gateway — subprocesses, because two backends in one OCaml process
   would share a runtime lock and could never show cluster throughput.
   Measures warm explore req/s through one backend directly vs through
   the gateway over two backends (distinct engine keys, so the ring
   spreads the load), asserts response-text parity, and exercises the
   snapshot save/reopen path asserting the content-addressed cache
   serves the restored session without raw prediction work.  Writes
   BENCH_gateway.json (also in --smoke: the file is the acceptance
   artifact). *)

let bench_gateway_json ?(smoke = false) () =
  let module Client = Chop_server.Client in
  let module Protocol = Chop_server.Protocol in
  let module Ops = Chop_server.Ops in
  let module Gateway = Chop_gateway.Gateway in
  let module Ring = Chop_gateway.Ring in
  let module Json = Chop_util.Json in
  section
    (if smoke then "bench gateway --smoke: 2 backends vs 1, snapshot restore"
     else "bench gateway: 2 backends vs 1, snapshot restore");
  (* the gateway serve thread writes to client sockets from this process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cli =
    match Sys.getenv_opt "CHOP_CLI" with
    | Some p -> p
    | None ->
        Filename.concat
          (Filename.dirname Sys.executable_name)
          "../bin/chop_cli.exe"
  in
  if not (Sys.file_exists cli) then begin
    Printf.eprintf
      "bench gateway: chop binary not found at %s (build bin/ or set \
       CHOP_CLI)\n"
      cli;
    exit 1
  end;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "chop-bench-gw-%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  let state_dir = Filename.concat dir "state" in
  let backend_socks =
    [ Filename.concat dir "b0.sock"; Filename.concat dir "b1.sock" ]
  in
  let spawn sock =
    Unix.create_process cli
      [|
        cli; "serve"; "--socket"; sock; "-c"; "2"; "-q"; "64"; "-j"; "1";
        "--quiet"; "--state-dir"; state_dir;
      |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let pids = List.map spawn backend_socks in
  let connect_retry sock =
    let rec go n =
      match Client.connect sock with
      | c -> c
      | exception Unix.Unix_error _ when n > 0 ->
          Thread.delay 0.05;
          go (n - 1)
    in
    go 100
  in
  let gw_sock = Filename.concat dir "gw.sock" in
  let gw =
    Gateway.create
      {
        Gateway.socket_path = Some gw_sock;
        backends = backend_socks;
        vnodes = 64;
        fanout = false;
        log = None;
        handle_signals = false;
        health_interval_s = None;
      }
  in
  let gw_thread = Thread.create Gateway.serve gw in
  let teardown () =
    Gateway.stop gw;
    Thread.join gw_thread;
    List.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      pids;
    rm_rf dir
  in
  (* exit must happen after Fun.protect returns: Stdlib.exit does not unwind,
     so calling it inside the body would skip teardown and orphan the backends *)
  let bad =
    Fun.protect ~finally:teardown @@ fun () ->
  (* wait for every listener *)
  List.iter
    (fun s -> Client.close (connect_retry s))
    (backend_socks @ [ gw_sock ]);
  let failed = ref false in
  let check name cond =
    Printf.printf "  %-52s %s\n" name (if cond then "ok" else "FAIL");
    if not cond then failed := true
  in
  (* two warm engine keys the ring assigns to different backends, so the
     gateway genuinely spreads the load *)
  let params perf =
    {
      Protocol.default_params with
      benchmark = "ewf";
      partitions = 2;
      perf;
      keep_all = true;
    }
  in
  let ring = Ring.create ~vnodes:64 backend_socks in
  let owner perf =
    match Ring.lookup ring (Ops.engine_key ~op:Protocol.Explore (params perf)) with
    | Some b -> b
    | None -> failwith "bench gateway: empty ring"
  in
  let perf_a = 30000. in
  let perf_b =
    let rec find p =
      if owner p <> owner perf_a then p
      else if p > 60000. then failwith "bench gateway: no second key found"
      else find (p +. 100.)
    in
    find 30100.
  in
  let request ~id ~perf =
    Protocol.request_to_json
      { Protocol.id; op = Protocol.Explore; deadline_ms = None;
        params = params perf }
  in
  let rpc_ok c json =
    match Client.rpc c json with
    | Ok resp ->
        if Protocol.response_ok resp <> Some true then
          failwith "bench gateway: request failed";
        resp
    | Error msg -> failwith ("bench gateway: " ^ msg)
  in
  (* warm both keys everywhere they will be served: on the direct
     baseline backend and (through the gateway) on each key's owner *)
  let b0 = List.hd backend_socks in
  let warm sock =
    let c = connect_retry sock in
    ignore (rpc_ok c (request ~id:"warm-a" ~perf:perf_a));
    ignore (rpc_ok c (request ~id:"warm-b" ~perf:perf_b));
    Client.close c
  in
  warm b0;
  warm gw_sock;
  (* byte-identity through the gateway, measured on the wire *)
  let text_of resp =
    match Protocol.response_text resp with
    | Some t -> t
    | None -> failwith "bench gateway: response has no text"
  in
  let direct = connect_retry b0 and via_gw = connect_retry gw_sock in
  let parity =
    List.for_all
      (fun perf ->
        let id = Printf.sprintf "parity-%.0f" perf in
        String.equal
          (text_of (rpc_ok direct (request ~id ~perf)))
          (text_of (rpc_ok via_gw (request ~id ~perf))))
      [ perf_a; perf_b ]
  in
  Client.close direct;
  Client.close via_gw;
  check "gateway responses byte-identical to a single serve" parity;
  (* throughput: the same concurrent warm load against one backend
     directly, then through the gateway over both *)
  let threads_n = 4 in
  let per_thread = if smoke then 6 else 25 in
  let measure sock =
    let t0 = Unix.gettimeofday () in
    let ts =
      List.init threads_n (fun tid ->
          Thread.create
            (fun () ->
              let c = connect_retry sock in
              for i = 0 to per_thread - 1 do
                let perf = if (tid + i) mod 2 = 0 then perf_a else perf_b in
                ignore
                  (rpc_ok c (request ~id:(Printf.sprintf "t%d-%d" tid i) ~perf))
              done;
              Client.close c)
            ())
    in
    List.iter Thread.join ts;
    let wall = Unix.gettimeofday () -. t0 in
    float_of_int (threads_n * per_thread) /. Float.max 1e-9 wall
  in
  let single_rps = measure b0 in
  let gateway_rps = measure gw_sock in
  let speedup = gateway_rps /. Float.max 1e-9 single_rps in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "  %d requests each: single backend %.1f req/s, gateway x2 %.1f req/s \
     (%.2fx)\n"
    (threads_n * per_thread) single_rps gateway_rps speedup;
  if cores >= 4 then
    check "2-backend throughput >= 1.5x single backend" (speedup >= 1.5)
  else
    Printf.printf
      "  speedup %.2fx — >= 1.5x assertion skipped (host has %d core(s), \
       needs >= 4)\n"
      speedup cores;
  (* snapshot durability: a snapshot round-trip preserves the spec's
     construction order, so a reopened session raw-hits its own pre-save
     entries and renders exactly as it did before the save.  The owner is
     warmed first with an ewf session, so its cache also holds the same
     structure under another numbering, which the ewf2 session must not
     borrow from *)
  let c = connect_retry gw_sock in
  let session_req ~id ~op ~benchmark ?(sid = "") ?(edits = [])
      ?(close = false) ?(restore = false) () =
    Protocol.request_to_json
      {
        Protocol.id;
        op;
        deadline_ms = None;
        params =
          {
            Protocol.default_params with
            benchmark;
            partitions = 3;
            session = sid;
            client = "bench";
            edits;
            close;
            restore;
          };
      }
  in
  (* both sessions must land on the same backend: sessions route by sid,
     so pick sid strings the ring assigns to one chosen owner *)
  let target = List.hd backend_socks in
  let sid_owned_by prefix =
    let rec go i =
      if i > 1000 then failwith "bench gateway: ring never chose the target"
      else
        let s = Printf.sprintf "%s%d" prefix i in
        if Ring.lookup ring s = Some target then s else go (i + 1)
    in
    go 0
  in
  let sid_warm = sid_owned_by "bench-warm-" in
  let sid = sid_owned_by "bench-snap-" in
  let run_result resp =
    let misses =
      Option.bind
        (Option.bind (Json.member "timing" resp) (Json.member "cache_misses"))
        Json.to_int_opt
    in
    let text =
      Option.bind
        (Option.bind (Json.member "result" resp) (Json.member "text"))
        Json.to_string_opt
    in
    match (misses, text) with
    | Some m, Some text -> (m, text)
    | _ -> failwith "bench gateway: run response incomplete"
  in
  let ewf = "ewf" and ewf2 = "ewf2" in
  ignore
    (rpc_ok c
       (session_req ~id:"wo" ~op:Protocol.Session_open ~benchmark:ewf
          ~sid:sid_warm ()));
  ignore
    (rpc_ok c
       (session_req ~id:"we" ~op:Protocol.Session_edit ~benchmark:ewf
          ~sid:sid_warm ~edits:[ "merge P3 P2" ] ()));
  let cold_misses, _ =
    run_result
      (rpc_ok c
         (session_req ~id:"wr" ~op:Protocol.Session_run ~benchmark:ewf
            ~sid:sid_warm ()))
  in
  check "first construction predicts cold (raw misses)" (cold_misses >= 1);
  ignore
    (rpc_ok c
       (session_req ~id:"wc" ~op:Protocol.Session_close ~benchmark:ewf
          ~sid:sid_warm ()));
  ignore
    (rpc_ok c (session_req ~id:"o" ~op:Protocol.Session_open ~benchmark:ewf2 ~sid ()));
  ignore
    (rpc_ok c
       (session_req ~id:"e" ~op:Protocol.Session_edit ~benchmark:ewf2 ~sid
          ~edits:[ "merge P3 P2" ] ()));
  let pre_misses, pre_text =
    run_result
      (rpc_ok c (session_req ~id:"r1" ~op:Protocol.Session_run ~benchmark:ewf2 ~sid ()))
  in
  ignore
    (rpc_ok c
       (session_req ~id:"s" ~op:Protocol.Session_save ~benchmark:ewf2 ~sid
          ~close:true ()));
  ignore
    (rpc_ok c
       (session_req ~id:"o2" ~op:Protocol.Session_open ~benchmark:ewf2 ~sid
          ~restore:true ()));
  let reopen_misses, reopen_text =
    run_result
      (rpc_ok c (session_req ~id:"r2" ~op:Protocol.Session_run ~benchmark:ewf2 ~sid ()))
  in
  let reopen_matches = String.equal pre_text reopen_text in
  check "restored run misses nothing (raw)" (reopen_misses = 0);
  check "restored run renders as before the save" reopen_matches;
  ignore
    (rpc_ok c (session_req ~id:"c" ~op:Protocol.Session_close ~benchmark:ewf2 ~sid ()));
  Client.close c;
  Printf.printf
    "  restore: ewf cold misses %d, ewf2 misses %d, reopened misses %d, \
     reopened run renders as before the save: %b\n"
    cold_misses pre_misses reopen_misses reopen_matches;
  let oc = open_out "BENCH_gateway.json" in
  Printf.fprintf oc
    "{\n\
    \  \"host_cores\": %d,\n\
    \  \"mode\": \"%s\",\n\
    \  \"backends\": %d,\n\
    \  \"client_threads\": %d,\n\
    \  \"requests_per_mode\": %d,\n\
    \  \"single_backend_rps\": %.1f,\n\
    \  \"gateway_rps\": %.1f,\n\
    \  \"speedup\": %.2f,\n\
    \  \"speedup_asserted\": %b,\n\
    \  \"parity\": %b,\n\
    \  \"restore\": {\"cold_misses\": %d, \"second_construction_misses\": %d, \
     \"reopen_misses\": %d, \"reopen_matches_pre_save\": %b}\n\
     }\n"
    cores
    (if smoke then "smoke" else "full")
    (List.length backend_socks)
    threads_n (threads_n * per_thread) single_rps gateway_rps speedup
    (cores >= 4) parity cold_misses pre_misses reopen_misses reopen_matches;
  close_out oc;
  print_endline "  wrote BENCH_gateway.json";
  !failed
  in
  if bad then begin
    prerr_endline "bench gateway: acceptance criteria violated";
    exit 1
  end

let () =
  if Array.exists (fun a -> a = "gateway") Sys.argv then begin
    bench_gateway_json ~smoke:(Array.exists (fun a -> a = "--smoke") Sys.argv) ();
    exit 0
  end;
  if Array.exists (fun a -> a = "hwsw") Sys.argv then begin
    ablation_hwsw_codesign ();
    exit 0
  end;
  if Array.exists (fun a -> a = "auto") Sys.argv then begin
    bench_auto_json ~smoke:(Array.exists (fun a -> a = "--smoke") Sys.argv) ();
    exit 0
  end;
  if Array.exists (fun a -> a = "session") Sys.argv then begin
    bench_session_json ~smoke:(Array.exists (fun a -> a = "--smoke") Sys.argv) ();
    exit 0
  end;
  if Array.exists (fun a -> a = "serve") Sys.argv then begin
    bench_serve_json ~smoke:(Array.exists (fun a -> a = "--smoke") Sys.argv) ();
    exit 0
  end;
  if Array.exists (fun a -> a = "--explore-json-only") Sys.argv then begin
    bench_explore_json ();
    exit 0
  end;
  if Array.exists (fun a -> a = "--smoke") Sys.argv then begin
    (* CI smoke: the cheap EWF benchmark only, nothing written to disk *)
    bench_explore_json ~smoke:true ();
    exit 0
  end;
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
  bench_explore_json ();
  scale_check ();
  microbenchmarks ();
  print_endline "\nDone.  See EXPERIMENTS.md for paper-vs-measured commentary."
