(* chop — command-line driver for the CHOP constraint-driven system-level
   partitioner.

   Subcommands:
     explore   run the full CHOP exploration on a benchmark graph
     predict   show BAD's predicted implementations for one partition
     repl      interactive session: edit the partitioning, re-run cheaply
     dot       emit a Graphviz rendering of a (partitioned) benchmark
     advise    what-if feasibility probe while varying chips/constraints
     auto      automatic partitioning: multilevel coarsen-refine driven by BAD
     serve     long-running exploration service over a socket or stdio
     request   one request against a running serve daemon
     gateway   shard N serve backends behind one socket
     bench-info  list built-in benchmark graphs

   The benchmark table, spec assembly and result rendering live in
   [Chop_server.Ops], shared with the serve daemon — which is what makes
   a serve response byte-identical to the CLI's output. *)

open Cmdliner
module Ops = Chop_server.Ops

let benchmarks = Ops.benchmarks

let graph_of_name name =
  Result.map_error (fun m -> `Msg m) (Ops.graph_of_name name)

let graph_conv =
  let parse s = graph_of_name s in
  let print ppf g = Format.fprintf ppf "%s" (Chop_dfg.Graph.name g) in
  Arg.conv (parse, print)

let graph_arg =
  Arg.(
    value
    & opt graph_conv (Chop_dfg.Benchmarks.ar_lattice_filter ())
    & info [ "g"; "graph" ] ~docv:"NAME"
        ~doc:"Benchmark graph: ar, ewf, fir8, fir16, diffeq, dct8, pcm_pwm \
              (the HW/SW co-design case study), ewf2 (ewf rebuilt in a \
              shuffled construction order — checks that a warm cache \
              answers as a cold one).")

let partitions_arg =
  Arg.(
    value & opt int 2
    & info [ "k"; "partitions" ] ~docv:"K" ~doc:"Number of partitions (level cuts).")

let package_arg =
  let package_conv =
    Arg.conv
      ( (fun s ->
          let pins =
            match s with "pkg64" -> "64" | "pkg84" -> "84" | s -> s
          in
          match int_of_string_opt pins with
          | Some n -> Result.map_error (fun m -> `Msg m) (Ops.package_of_pins n)
          | None -> Error (`Msg "package must be 64 or 84")),
        fun ppf c -> Format.fprintf ppf "%s" c.Chop_tech.Chip.pkg_name )
  in
  Arg.(
    value
    & opt package_conv Chop_tech.Mosis.package_84
    & info [ "p"; "package" ] ~docv:"PINS" ~doc:"MOSIS package: 64 or 84 pins.")

let perf_arg =
  Arg.(
    value & opt float 30000.
    & info [ "perf" ] ~docv:"NS" ~doc:"Performance constraint (ns).")

let delay_arg =
  Arg.(
    value & opt float 30000.
    & info [ "delay" ] ~docv:"NS" ~doc:"System delay constraint (ns).")

let multicycle_arg =
  Arg.(
    value & flag
    & info [ "multi-cycle" ]
        ~doc:"Multi-cycle operation style with the data-path clock at main \
              speed (experiment-2 conditions); default is single-cycle with \
              the data-path clock at 10x main.")

let heuristic_arg =
  let heuristic_conv =
    Arg.conv
      ( (fun s -> Result.map_error (fun m -> `Msg m) (Ops.heuristic_of_string s)),
        fun ppf h -> Chop.Explore.pp_heuristic ppf h )
  in
  Arg.(
    value
    & opt heuristic_conv Chop.Explore.Iterative
    & info [ "H"; "heuristic" ] ~docv:"E|I" ~doc:"Search heuristic.")

let strategy_arg =
  let strategy_conv =
    Arg.conv
      ( (fun s -> Result.map_error (fun m -> `Msg m) (Ops.strategy_of_string s)),
        fun ppf s ->
          Format.pp_print_string ppf (Chop_baseline.Autopart.strategy_name s) )
  in
  Arg.(
    value
    & opt strategy_conv Chop_baseline.Autopart.Levels
    & info [ "s"; "strategy" ] ~docv:"STRAT"
        ~doc:"Partition generation strategy: levels, min-cut or random.")

let build_spec ?(impls = []) graph k package perf delay multicycle strategy =
  (* the graph carries its benchmark name, so the co-design benchmark (and
     any explicit --impl binding) declares the reference processor *)
  Ops.build_spec
    ~processors:
      (Ops.processors_for ~benchmark:(Chop_dfg.Graph.name graph) ~impls)
    ~impls ~graph ~partitions:k ~package ~perf ~delay ~multicycle ~strategy ()

let impl_arg =
  Arg.(
    value & opt_all string []
    & info [ "impl" ] ~docv:"PART=MODEL"
        ~doc:"Bind a partition to an implementation model (repeatable): \
              $(b,hw) or the reference processor $(b,cpu).  Any binding \
              declares the processor, so $(b,--impl P1=cpu) works on every \
              benchmark; $(b,pcm_pwm) declares it even without bindings.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains for prediction and search. Defaults to the \
              $(b,CHOP_JOBS) environment variable when set, otherwise to \
              the available cores.")

let resolve_jobs = function
  | Some n -> max 1 n
  | None -> Chop_util.Pool.default_jobs ()

let file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "f"; "file" ] ~docv:"SPEC"
        ~doc:"Load the full problem from a chopspec file (overrides the \
              graph/partition/chip options).")

let explore_cmd =
  let run graph k package perf delay multicycle heuristic strategy verbose file
      csv keep_all no_prune stats jobs impl =
    match
      match Ops.parse_impl_bindings impl with
      | Error _ as e -> e
      | Ok impls -> (
          match
            match file with
            | Some path -> Chop.Specfile.load path
            | None ->
                build_spec ~impls graph k package perf delay multicycle
                  strategy
          with
          | spec -> Ok spec
          | exception Chop.Spec.Invalid_spec reason -> Error reason)
    with
    | Error msg ->
        prerr_endline ("chop explore: " ^ msg);
        2
    | Ok spec ->
    let config =
      Chop.Explore.Config.make ~heuristic ~keep_all:(csv || keep_all)
        ~pre_prune:(not no_prune) ~jobs:(resolve_jobs jobs) ()
    in
    let report = Chop.Explore.with_engine config spec Chop.Explore.Session.run in
    (* the deterministic block first (shared with the serve daemon, which
       is what makes its responses byte-identical to this output), then
       the wall-clock lines *)
    print_string (Ops.render_explore spec ~keep_all ~csv ~verbose report);
    if not (keep_all || csv) then begin
      print_newline ();
      print_string (Ops.render_explore_timing report);
      if stats then
        print_string (Chop.Explore.Metrics.summary report.Chop.Explore.metrics)
    end;
    0
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print designer guidelines.")
  in
  Cmd.v
    (Cmd.info "explore" ~doc:"Run the CHOP exploration on a benchmark graph")
    Term.(
      const run $ graph_arg $ partitions_arg $ package_arg $ perf_arg
      $ delay_arg $ multicycle_arg $ heuristic_arg $ strategy_arg $ verbose
      $ file_arg
      $ Arg.(value & flag
             & info [ "csv" ]
                 ~doc:"Explore without pruning and dump every design point \
                       as CSV (Figures 7/8-style data).")
      $ Arg.(value & flag
             & info [ "keep-all" ]
                 ~doc:"Explore without pruning and dump both the feasible \
                       front and every explored design point as CSV; output \
                       is deterministic across $(b,--jobs) values.")
      $ Arg.(value & flag
             & info [ "no-prune" ]
                 ~doc:"Disable the dominance pre-pruning of the search \
                       lists.  The feasible front is identical either way; \
                       with $(b,--keep-all) this restores the exhaustive \
                       explored dump at full search cost.")
      $ Arg.(value & flag
             & info [ "stats" ]
                 ~doc:"Print the engine timing breakdown: wall/busy seconds \
                       per phase (predict, search, merge), per-worker busy \
                       time, chunk counts, cache hits/misses, and the \
                       search-side counters (implementations pre-pruned, \
                       integrations avoided, chip-report cache hits).")
      $ jobs_arg $ impl_arg)

let repl_cmd =
  let run graph k package perf delay multicycle heuristic strategy file verbose
      jobs =
    let spec =
      match file with
      | Some path -> Chop.Specfile.load path
      | None -> build_spec graph k package perf delay multicycle strategy
    in
    let config =
      Chop.Explore.Config.make ~heuristic ~jobs:(resolve_jobs jobs) ()
    in
    Chop.Explore.with_engine config spec (fun session ->
        let help () =
          print_string
            ("commands:\n  " ^ Ops.edit_commands
           ^ "\n  parts          list partitions and their chips\n\
             \  run            explore (re-predicting only edited partitions)\n\
             \  undo | redo    step back / forward through the edit history\n\
             \  :sessions      list open sessions (this one, locally)\n\
             \  help | quit\n")
        in
        print_string (Ops.render_parts (Chop.Explore.Session.spec session));
        let rec loop () =
          match input_line stdin with
          | exception End_of_file -> ()
          | line -> (
              (* echo the command so a piped script yields a readable —
                 and golden-testable — transcript *)
              print_string ("chop> " ^ line ^ "\n");
              match String.trim line with
              | "quit" | "exit" -> ()
              | cmd ->
                  (match cmd with
                  | "" -> ()
                  | _ when cmd.[0] = '#' -> ()
                  | "help" -> help ()
                  | "parts" ->
                      print_string
                        (Ops.render_parts (Chop.Explore.Session.spec session))
                  | "run" ->
                      let report = Chop.Explore.Session.run session in
                      print_string
                        (Ops.render_explore
                           (Chop.Explore.Session.spec session)
                           ~keep_all:false ~csv:false ~verbose report);
                      let m = report.Chop.Explore.metrics in
                      Printf.printf "predict: %d cache hit(s), %d miss(es)\n"
                        m.Chop.Explore.Metrics.cache_hits
                        m.Chop.Explore.Metrics.cache_misses
                  | "undo" | "redo" -> (
                      let step =
                        if cmd = "undo" then Chop.Explore.Session.undo
                        else Chop.Explore.Session.redo
                      in
                      match step session with
                      | Error msg -> Printf.printf "error: %s\n" msg
                      | Ok dirty -> print_string (Ops.render_dirty dirty))
                  | ":sessions" ->
                      print_string
                        (Ops.render_sessions
                           [
                             {
                               Ops.ses_id = "local";
                               ses_revision =
                                 Chop.Explore.Session.revision session;
                               ses_age_s = 0.;
                               ses_writer = "";
                               ses_observers = 0;
                             };
                           ])
                  | _ -> (
                      let spec = Chop.Explore.Session.spec session in
                      match Ops.parse_edit spec cmd with
                      | Error msg -> Printf.printf "error: %s\n" msg
                      | Ok edit -> (
                          match Chop.Explore.Session.edit session [ edit ] with
                          | Error e ->
                              Format.printf "error: %a@."
                                Chop.Spec.pp_update_error e
                          | Ok dirty -> print_string (Ops.render_dirty dirty))));
                  flush stdout;
                  loop ())
        in
        loop ());
    0
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print designer guidelines.")
  in
  Cmd.v
    (Cmd.info "repl"
       ~doc:"Interactive session on a benchmark spec: partition edits from \
             stdin (one command per line; $(b,help) lists them), with \
             $(b,run) re-predicting only the partitions the edits touched. \
             Scriptable: pipe a command file in; every command is echoed, so \
             the transcript reads like the session.")
    Term.(
      const run $ graph_arg $ partitions_arg $ package_arg $ perf_arg
      $ delay_arg $ multicycle_arg $ heuristic_arg $ strategy_arg $ file_arg
      $ verbose $ jobs_arg)

let predict_cmd =
  let run graph k package perf delay multicycle strategy index top jobs =
    let spec = build_spec graph k package perf delay multicycle strategy in
    let per_partition, stats =
      Chop.Explore.with_engine
        (Chop.Explore.Config.make ~jobs:(resolve_jobs jobs) ())
        spec Chop.Explore.Session.predictions
    in
    print_string (Ops.render_predict spec ~index ~top per_partition stats);
    0
  in
  let index =
    Arg.(value & opt int (-1) & info [ "i"; "index" ] ~docv:"N"
           ~doc:"Partition index to show (-1 for all).")
  in
  let top =
    Arg.(value & opt int 3 & info [ "t"; "top" ] ~docv:"N"
           ~doc:"Predictions to print per partition.")
  in
  Cmd.v
    (Cmd.info "predict" ~doc:"Show BAD's predicted implementations per partition")
    Term.(
      const run $ graph_arg $ partitions_arg $ package_arg $ perf_arg
      $ delay_arg $ multicycle_arg $ strategy_arg $ index $ top $ jobs_arg)

let dot_cmd =
  let run graph k strategy =
    if k <= 1 then print_string (Chop_dfg.Dot.of_graph graph)
    else begin
      let pg = Chop_baseline.Autopart.generate graph ~k strategy in
      print_string (Chop_dfg.Dot.of_partitioning pg)
    end;
    0
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit Graphviz for a (partitioned) benchmark graph")
    Term.(const run $ graph_arg $ partitions_arg $ strategy_arg)

let advise_cmd =
  let run graph k package perf delay multicycle strategy jobs =
    let spec = build_spec graph k package perf delay multicycle strategy in
    let config = Chop.Explore.Config.make ~jobs:(resolve_jobs jobs) () in
    let j = Chop.Advisor.what_if ~config spec in
    print_string (Ops.render_advice j);
    if j.Chop.Advisor.feasible then 0 else 1
  in
  Cmd.v
    (Cmd.info "advise" ~doc:"Quick feasibility probe (exit 1 when infeasible)")
    Term.(
      const run $ graph_arg $ partitions_arg $ package_arg $ perf_arg
      $ delay_arg $ multicycle_arg $ strategy_arg $ jobs_arg)

let auto_cmd =
  let run graph k package perf delay multicycle strategy file seed max_moves
      time_limit coarse pins together stats jobs impl =
    match
      match Ops.parse_impl_bindings impl with
      | Error _ as e -> e
      | Ok impls -> (
          match
            match file with
            | Some path -> Chop.Specfile.load path
            | None ->
                build_spec ~impls graph k package perf delay multicycle
                  strategy
          with
          | spec -> Ok spec
          | exception Chop.Spec.Invalid_spec reason -> Error reason)
    with
    | Error msg ->
        prerr_endline ("chop auto: " ^ msg);
        2
    | Ok spec -> (
    match Ops.parse_constraints spec ~pins ~together with
    | Error msg ->
        prerr_endline ("chop auto: " ^ msg);
        2
    | Ok constraints -> (
        let config = Chop.Explore.Config.make ~jobs:(resolve_jobs jobs) () in
        match
          Chop_auto.run ~seed ~constraints ~max_moves
            ?time_limit_s:(if time_limit > 0. then Some time_limit else None)
            ?coarse_target:(if coarse > 0 then Some coarse else None)
            ~config spec
        with
        | exception Chop_auto.Invalid_constraints msg ->
            prerr_endline ("chop auto: " ^ msg);
            2
        | o ->
            (* deterministic block first (shared with session/optimize —
               byte-identical to a serve response), wall-clock after *)
            print_string (Ops.render_auto o.Chop_auto.spec o);
            print_newline ();
            print_string (Ops.render_auto_timing o);
            if stats then print_string (Ops.render_auto_stats o);
            if Ops.explore_feasible_count o.Chop_auto.report > 0 then 0 else 1))
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"N"
             ~doc:"Deterministic tie-breaking seed for matching and move \
                   ordering.")
  in
  let max_moves =
    Arg.(value & opt int 1024
         & info [ "max-moves" ] ~docv:"N"
             ~doc:"Candidate-move budget across all refinement levels.")
  in
  let time_limit =
    Arg.(value & opt float 0.
         & info [ "time-limit" ] ~docv:"S"
             ~doc:"Refinement time budget in seconds; 0 is unlimited.")
  in
  let coarse =
    Arg.(value & opt int 0
         & info [ "coarse" ] ~docv:"N"
             ~doc:"Coarsening target: stop matching at roughly $(docv) \
                   clusters.  0 (the default) picks max(2*partitions, 8) \
                   automatically so multilevel coarsening engages.")
  in
  let pins =
    Arg.(value & opt_all string []
         & info [ "pin" ] ~docv:"OP=PART"
             ~doc:"Fix an operation (node id or name) to a partition \
                   (repeatable).")
  in
  let together =
    Arg.(value & opt_all string []
         & info [ "together" ] ~docv:"OP,OP,..."
             ~doc:"Keep these operations in one partition; they coarsen into \
                   one cluster and move as a unit (repeatable).")
  in
  let auto_strategy_arg =
    let strategy_conv =
      Arg.conv
        ( (fun s ->
            Result.map_error (fun m -> `Msg m) (Ops.strategy_of_string s)),
          fun ppf s ->
            Format.pp_print_string ppf (Chop_baseline.Autopart.strategy_name s)
        )
    in
    Arg.(
      value
      & opt strategy_conv (Chop_baseline.Autopart.Min_cut 1)
      & info [ "s"; "strategy" ] ~docv:"STRAT"
          ~doc:"Seed partitioning strategy the refinement starts from: \
                levels, min-cut or random.")
  in
  Cmd.v
    (Cmd.info "auto"
       ~doc:"Automatic partitioning: multilevel coarsen-refine driven by BAD \
             prediction (exit 1 when the result is infeasible)")
    Term.(
      const run $ graph_arg $ partitions_arg $ package_arg $ perf_arg
      $ delay_arg $ multicycle_arg $ auto_strategy_arg $ file_arg $ seed
      $ max_moves $ time_limit $ coarse $ pins $ together
      $ Arg.(value & flag
             & info [ "stats" ]
                 ~doc:"Print the speculative-refinement breakdown: job \
                       count, probe runs, batch rounds, pool busy/wall \
                       seconds and per-round averages.")
      $ jobs_arg $ impl_arg)

let autosearch_cmd =
  let run graph max_partitions package perf delay multicycle =
    let clocks =
      if multicycle then
        Chop_tech.Clocking.make ~main:Chop_tech.Mosis.main_clock
          ~datapath_ratio:1 ~transfer_ratio:1
      else
        Chop_tech.Clocking.make ~main:Chop_tech.Mosis.main_clock
          ~datapath_ratio:10 ~transfer_ratio:1
    in
    let style =
      Chop_tech.Style.both
        (if multicycle then Chop_tech.Style.Multi_cycle
         else Chop_tech.Style.Single_cycle)
    in
    let candidates =
      Chop_baseline.Autosearch.run ~max_partitions
        ~library:Chop_tech.Mosis.extended_library ~graph ~package ~clocks
        ~style
        ~criteria:(Chop_bad.Feasibility.criteria ~perf ~delay ())
        ()
    in
    List.iter
      (fun c -> print_endline ("  " ^ Chop_baseline.Autosearch.describe c))
      candidates;
    match Chop_baseline.Autosearch.best candidates with
    | Some _ -> 0
    | None ->
        print_endline "no feasible partitioning";
        1
  in
  let max_partitions =
    Arg.(value & opt int 4
         & info [ "m"; "max-partitions" ] ~docv:"K" ~doc:"Largest partition count to try.")
  in
  Cmd.v
    (Cmd.info "autosearch"
       ~doc:"Automatically search partition counts and strategies")
    Term.(
      const run $ graph_arg $ max_partitions $ package_arg $ perf_arg
      $ delay_arg $ multicycle_arg)

let synth_cmd =
  let run graph k package perf delay multicycle strategy file board =
    let spec =
      match file with
      | Some path -> Chop.Specfile.load path
      | None -> build_spec graph k package perf delay multicycle strategy
    in
    (* with_engine: the engine is closed even when synthesis raises *)
    Chop.Explore.with_engine Chop.Explore.Config.default spec @@ fun engine ->
    let ctx = Chop.Explore.Session.context engine in
    let report = Chop.Explore.Session.run engine in
    match report.Chop.Explore.outcome.Chop.Search.feasible with
    | [] ->
        print_endline "no feasible implementation to synthesize";
        1
    | best :: _ ->
        let sys = Chop_rtl.System.synthesize ctx best in
        print_string (Chop_rtl.System.summary sys);
        print_newline ();
        if board then print_string (Chop_rtl.System.board_verilog ctx best sys)
        else
          List.iter
            (fun (_, v) ->
              print_string v;
              print_newline ())
            sys.Chop_rtl.System.verilog;
        if Chop_rtl.System.all_fit sys then 0 else 1
  in
  let board =
    Arg.(value & flag
         & info [ "board" ] ~doc:"Emit only the board-level top module.")
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:"Synthesize the best feasible implementation to netlists, \
             floorplans and Verilog")
    Term.(
      const run $ graph_arg $ partitions_arg $ package_arg $ perf_arg
      $ delay_arg $ multicycle_arg $ strategy_arg $ file_arg $ board)

let spec_dump_cmd =
  let run graph k package perf delay multicycle strategy =
    let spec = build_spec graph k package perf delay multicycle strategy in
    print_string (Chop.Specfile.print spec);
    0
  in
  Cmd.v
    (Cmd.info "spec-dump"
       ~doc:"Write a built-in benchmark setup as a chopspec file (a template \
             for external problems)")
    Term.(
      const run $ graph_arg $ partitions_arg $ package_arg $ perf_arg
      $ delay_arg $ multicycle_arg $ strategy_arg)

let serve_socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path to listen on; a stale socket file \
              there is replaced, any other file is left alone (exit 2). \
              Without it, requests are read from stdin and answered on \
              stdout.")

let request_socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path of the serve daemon.")

let deadline_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:"Per-request budget in milliseconds; an expired request gets a \
              structured $(i,deadline) error instead of a result.")

let state_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "state-dir" ] ~docv:"DIR"
        ~doc:"Persist interactive sessions as snapshot files in $(docv): \
              evicted and shut-down sessions are written there, \
              $(b,session/save) writes on demand, and $(b,session/open) \
              with $(b,restore) reloads them.  Point every backend of a \
              gateway cluster at one directory to enable migration.")

(* serve and gateway: create (which binds the socket), then serve; a
   socket that cannot be bound — e.g. --socket naming a file that is not
   a socket — is a one-line error and exit 2 *)
let serve_or_exit name create serve cfg =
  match create cfg with
  | exception Unix.Unix_error (e, _, path) ->
      Printf.eprintf "chop %s: %s: %s\n" name path (Unix.error_message e);
      2
  | t ->
      serve t;
      0

let serve_cmd =
  let run socket concurrency queue jobs deadline_ms quiet session_ttl
      max_sessions state_dir =
    serve_or_exit "serve" Chop_server.Server.create Chop_server.Server.serve
      {
        Chop_server.Server.socket_path = socket;
        concurrency;
        queue;
        jobs = resolve_jobs jobs;
        default_deadline_ms = deadline_ms;
        log = (if quiet then None else Some stderr);
        handle_signals = true;
        session_ttl_s = session_ttl;
        max_sessions;
        state_dir;
      }
  in
  let concurrency =
    Arg.(value & opt int 2
         & info [ "c"; "concurrency" ] ~docv:"N"
             ~doc:"Requests executed concurrently (scheduler threads).")
  in
  let queue =
    Arg.(value & opt int 8
         & info [ "q"; "queue" ] ~docv:"K"
             ~doc:"Bounded request queue length; past $(b,K) waiting + \
                   $(b,N) running, submissions are rejected with a \
                   structured $(i,overloaded) error.")
  in
  let quiet =
    Arg.(value & flag
         & info [ "quiet" ] ~doc:"Suppress the per-request access log (stderr).")
  in
  let session_ttl =
    Arg.(value
         & opt float Chop_server.Server.default_config.Chop_server.Server.session_ttl_s
         & info [ "session-ttl" ] ~docv:"S"
             ~doc:"Evict interactive sessions idle for more than $(docv) \
                   seconds.")
  in
  let max_sessions =
    Arg.(value
         & opt int Chop_server.Server.default_config.Chop_server.Server.max_sessions
         & info [ "max-sessions" ] ~docv:"N"
             ~doc:"Cap on concurrently open interactive sessions; opening \
                   past it evicts the least-recently-used idle one.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent exploration service: newline-delimited JSON \
             requests over a Unix socket (or stdin/stdout), answered from \
             warm engines sharing one domain pool and prediction cache")
    Term.(
      const run $ serve_socket_arg $ concurrency $ queue $ jobs_arg
      $ deadline_ms_arg $ quiet $ session_ttl $ max_sessions $ state_dir_arg)

let request_cmd =
  let run socket op id benchmark partitions package perf delay multicycle
      heuristic strategy keep_all csv no_prune verbose index top parameter
      values session edits seed max_moves time_limit_ms coarse pins together
      client restore close retry retry_seed deadline_ms raw =
    let module P = Chop_server.Protocol in
    match P.op_of_string op with
    | Error msg ->
        prerr_endline ("chop request: " ^ msg);
        2
    | Ok op -> (
        let req =
          {
            P.id;
            op;
            deadline_ms;
            params =
              {
                P.benchmark;
                partitions;
                package;
                perf;
                delay;
                multicycle;
                heuristic;
                strategy;
                keep_all;
                csv;
                no_prune;
                verbose;
                index;
                top;
                parameter;
                values;
                session;
                edits;
                seed;
                max_moves;
                time_limit_ms;
                coarse;
                pins;
                together;
                client;
                restore;
                close;
              };
          }
        in
        match
          Chop_server.Client.rpc_retrying ~retries:retry ~seed:retry_seed
            ~socket (P.request_to_json req)
        with
        | Error msg ->
            prerr_endline ("chop request: " ^ msg);
            2
        | Ok resp -> (
            if raw then begin
              print_endline (Chop_util.Json.print resp);
              match P.response_ok resp with Some true -> 0 | _ -> 1
            end
            else
              match P.response_ok resp with
              | Some true ->
                  (match P.response_text resp with
                  | Some text -> print_string text
                  | None -> print_endline (Chop_util.Json.print resp));
                  0
              | _ ->
                  let code =
                    Option.value ~default:"?" (P.response_error_code resp)
                  in
                  let message =
                    match
                      Option.bind (Chop_util.Json.member "error" resp)
                        (fun e ->
                          Option.bind (Chop_util.Json.member "message" e)
                            Chop_util.Json.to_string_opt)
                    with
                    | Some m -> m
                    | None -> Chop_util.Json.print resp
                  in
                  Printf.eprintf "chop request: %s: %s\n" code message;
                  1))
  in
  let op =
    let module P = Chop_server.Protocol in
    Arg.(value & opt string "explore"
         & info [ "op" ] ~docv:"OP"
             ~doc:
               (Printf.sprintf
                  "Operation: %s.  Only a gateway answers gateway/migrate."
                  (String.concat ", " (List.map P.op_to_string P.all_ops))))
  in
  let id =
    Arg.(value & opt string "cli"
         & info [ "id" ] ~docv:"ID" ~doc:"Request id echoed on the response.")
  in
  let benchmark =
    Arg.(value & opt string "ar"
         & info [ "g"; "graph" ] ~docv:"NAME"
             ~doc:"Benchmark graph: ar, ewf, fir8, fir16, diffeq, dct8, pcm_pwm \
              (the HW/SW co-design case study), ewf2 (ewf rebuilt in a \
              shuffled construction order — checks that a warm cache \
              answers as a cold one).")
  in
  let partitions =
    Arg.(value & opt int 2
         & info [ "k"; "partitions" ] ~docv:"K" ~doc:"Number of partitions.")
  in
  let package =
    Arg.(value & opt int 84
         & info [ "p"; "package" ] ~docv:"PINS" ~doc:"MOSIS package: 64 or 84.")
  in
  let perf =
    Arg.(value & opt float 30000.
         & info [ "perf" ] ~docv:"NS" ~doc:"Performance constraint (ns).")
  in
  let delay =
    Arg.(value & opt float 30000.
         & info [ "delay" ] ~docv:"NS" ~doc:"System delay constraint (ns).")
  in
  let multicycle =
    Arg.(value & flag
         & info [ "multi-cycle" ] ~doc:"Multi-cycle operation style.")
  in
  let heuristic =
    Arg.(value & opt string "i"
         & info [ "H"; "heuristic" ] ~docv:"E|I|B" ~doc:"Search heuristic.")
  in
  let strategy =
    Arg.(value & opt string "levels"
         & info [ "s"; "strategy" ] ~docv:"STRAT"
             ~doc:"Partition generation strategy: levels, min-cut or random.")
  in
  let keep_all =
    Arg.(value & flag
         & info [ "keep-all" ]
             ~doc:"Deterministic CSV dump of the feasible front and every \
                   explored design point.")
  in
  let csv =
    Arg.(value & flag
         & info [ "csv" ] ~doc:"Deterministic CSV dump of the explored points.")
  in
  let no_prune =
    Arg.(value & flag
         & info [ "no-prune" ] ~doc:"Disable dominance pre-pruning.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Designer guidelines.")
  in
  let index =
    Arg.(value & opt int (-1)
         & info [ "i"; "index" ] ~docv:"N"
             ~doc:"predict: partition index (-1 for all).")
  in
  let top =
    Arg.(value & opt int 3
         & info [ "t"; "top" ] ~docv:"N"
             ~doc:"predict: predictions per partition.")
  in
  let parameter =
    Arg.(value & opt string "perf"
         & info [ "parameter" ] ~docv:"P"
             ~doc:"sensitivity: perf, delay, clock or pins.")
  in
  let values =
    Arg.(value & opt (list float) []
         & info [ "values" ] ~docv:"V1,V2,..."
             ~doc:"sensitivity: swept values, in order.")
  in
  let session =
    Arg.(value & opt string ""
         & info [ "session" ] ~docv:"SID"
             ~doc:"session/*: the session id returned by session/open.")
  in
  let edits =
    Arg.(value & opt_all string []
         & info [ "edit" ] ~docv:"CMD"
             ~doc:"session/edit: an edit command line (repeatable, applied \
                   in order).")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"N"
             ~doc:"session/optimize: deterministic tie-breaking seed.")
  in
  let max_moves =
    Arg.(value & opt int 1024
         & info [ "max-moves" ] ~docv:"N"
             ~doc:"session/optimize: candidate-move budget.")
  in
  let time_limit_ms =
    Arg.(value & opt float 0.
         & info [ "time-limit-ms" ] ~docv:"MS"
             ~doc:"session/optimize: refinement time budget; 0 is unlimited.")
  in
  let coarse =
    Arg.(value & opt int 2048
         & info [ "coarse" ] ~docv:"N"
             ~doc:"session/optimize: coarsening target cluster count.")
  in
  let pins =
    Arg.(value & opt_all string []
         & info [ "pin" ] ~docv:"OP=PART"
             ~doc:"session/optimize: fix an operation to a partition \
                   (repeatable).")
  in
  let together =
    Arg.(value & opt_all string []
         & info [ "together" ] ~docv:"OP,OP,..."
             ~doc:"session/optimize: keep these operations in one partition \
                   (repeatable).")
  in
  let client =
    Arg.(value & opt string ""
         & info [ "client" ] ~docv:"NAME"
             ~doc:"Client identity attributed in the access log; the opener \
                   becomes the session's writer and $(b,session/attach) \
                   requires it.")
  in
  let restore =
    Arg.(value & flag
         & info [ "restore" ]
             ~doc:"session/open: require the session to be restored from a \
                   snapshot in the server's $(b,--state-dir) (error when \
                   none exists).")
  in
  let close =
    Arg.(value & flag
         & info [ "close" ]
             ~doc:"session/save: release the session after snapshotting (a \
                   migration handoff — the snapshot is kept).")
  in
  let retry =
    Arg.(value & opt int 0
         & info [ "retry" ] ~docv:"N"
             ~doc:"Retry up to $(docv) extra times on $(i,overloaded) \
                   rejections and transient connect errors, with seeded \
                   deterministic exponential backoff.  Exit codes are \
                   unchanged: the final outcome maps exactly as without \
                   retries.")
  in
  let retry_seed =
    Arg.(value & opt int 1
         & info [ "retry-seed" ] ~docv:"N"
             ~doc:"Seed for the deterministic backoff jitter.")
  in
  let raw =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the raw JSON response instead of the result text.")
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:"Send one request to a running serve daemon and print the result \
             (byte-identical to the corresponding subcommand's deterministic \
             output)")
    Term.(
      const run $ request_socket_arg $ op $ id $ benchmark $ partitions
      $ package $ perf $ delay $ multicycle $ heuristic $ strategy $ keep_all
      $ csv $ no_prune $ verbose $ index $ top $ parameter $ values
      $ session $ edits $ seed $ max_moves $ time_limit_ms $ coarse $ pins
      $ together $ client $ restore $ close $ retry $ retry_seed
      $ deadline_ms_arg $ raw)

let gateway_cmd =
  let run socket backends vnodes quiet health_interval =
    if backends = [] then begin
      prerr_endline "chop gateway: at least one --backend is required";
      2
    end
    else
      serve_or_exit "gateway" Chop_gateway.Gateway.create
        Chop_gateway.Gateway.serve
        {
          Chop_gateway.Gateway.socket_path = socket;
          backends;
          vnodes;
          log = (if quiet then None else Some stderr);
          handle_signals = true;
          health_interval_s =
            (if health_interval > 0. then Some health_interval else None);
        }
  in
  let backends =
    Arg.(value & opt_all string []
         & info [ "b"; "backend" ] ~docv:"PATH"
             ~doc:"Unix-domain socket of a backend $(b,chop serve) process \
                   (repeatable).  Start the backends with a shared \
                   $(b,--state-dir) so sessions can migrate and fail over.")
  in
  let vnodes =
    Arg.(value & opt int 64
         & info [ "vnodes" ] ~docv:"N"
             ~doc:"Virtual points per backend on the consistent-hash ring.")
  in
  let quiet =
    Arg.(value & flag
         & info [ "quiet" ] ~doc:"Suppress the per-request log (stderr).")
  in
  let health_interval =
    Arg.(value & opt float 0.
         & info [ "health-interval" ] ~docv:"S"
             ~doc:"Ping every backend this often (seconds) and mark \
                   failures dead ahead of time: routing prefers live \
                   backends and session ops fail over preemptively.  0 \
                   (the default) disables the prober.")
  in
  Cmd.v
    (Cmd.info "gateway"
       ~doc:"Front a cluster of $(b,chop serve) backends on one socket: \
             requests are consistent-hashed across the backends, sessions \
             stick to (and migrate between) them through snapshots, and \
             responses are byte-identical to a single-process serve")
    Term.(
      const run $ serve_socket_arg $ backends $ vnodes $ quiet
      $ health_interval)

let bench_info_cmd =
  let run () =
    List.iter
      (fun (name, f) ->
        let g = f () in
        Printf.printf "%-8s %3d operations, %2d levels, io %d/%d bits\n" name
          (Chop_dfg.Graph.op_count g)
          (List.length (Chop_dfg.Analysis.levels g))
          (Chop_dfg.Graph.total_input_bits g)
          (Chop_dfg.Graph.total_output_bits g))
      benchmarks;
    0
  in
  Cmd.v (Cmd.info "bench-info" ~doc:"List built-in benchmark graphs")
    Term.(const run $ const ())

let main_cmd =
  Cmd.group
    (Cmd.info "chop" ~version:"1.0"
       ~doc:"CHOP: a constraint-driven system-level partitioner (DAC 1991)")
    [ explore_cmd; predict_cmd; repl_cmd; dot_cmd; advise_cmd; auto_cmd;
      autosearch_cmd; synth_cmd; spec_dump_cmd; serve_cmd; request_cmd;
      gateway_cmd; bench_info_cmd ]

let () = exit (Cmd.eval' main_cmd)
