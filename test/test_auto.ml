(* Tests for the automatic partitioner (Chop_auto): validity of the
   optimized partitioning, determinism per seed, pin/community
   constraints — plus the scheduler failure-path hardening this PR leans
   on (typed List_sched.No_progress, force-directed zero-width windows,
   Autopart's exactly-k guarantee) and the session/optimize server op. *)

module G = Chop_dfg.Graph
module P = Chop_dfg.Partition
module Json = Chop_util.Json
module Protocol = Chop_server.Protocol
module Server = Chop_server.Server
module Ops = Chop_server.Ops

let private_config () =
  Chop.Explore.Config.make ~jobs:1
    ~cache:(Chop.Explore.Config.Custom (Chop.Pred_cache.create ()))
    ()

let bench_spec ?(k = 2) ?(perf = 30000.) ?(delay = 30000.)
    ?(strategy = Chop_baseline.Autopart.Min_cut 1) ?(multicycle = false)
    ?(impls = []) name =
  let graph =
    match Ops.graph_of_name name with Ok g -> g | Error m -> failwith m
  in
  Ops.build_spec
    ~processors:(Ops.processors_for ~benchmark:name ~impls)
    ~impls ~graph ~partitions:k ~package:Chop_tech.Mosis.package_84 ~perf
    ~delay ~multicycle ~strategy ()

let random_spec ~ops ~seed ~k =
  let graph = Chop_dfg.Benchmarks.random_dag ~ops ~seed () in
  Chop.Rig.custom ~graph
    ~partitioning:
      (Chop_baseline.Autopart.generate graph ~k
         (Chop_baseline.Autopart.Min_cut seed))
    ~package:Chop_tech.Mosis.package_84
    ~clocks:
      (Chop_tech.Clocking.make ~main:Chop_tech.Mosis.main_clock
         ~datapath_ratio:10 ~transfer_ratio:1)
    ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle)
    ~criteria:(Chop_bad.Feasibility.criteria ~perf:30000. ~delay:30000. ())
    ()

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let first_ops graph n =
  G.operations graph
  |> List.map (fun (nd : G.node) -> nd.G.id)
  |> List.sort Int.compare
  |> Chop_util.Listx.take n

(* ------------------------------------------------------------------ *)
(* Chop_auto *)

let auto_yields_valid_partitioning =
  QCheck.Test.make ~name:"auto yields a valid partitioning of the same k"
    ~count:12
    QCheck.(triple (12 -- 26) (0 -- 100) (2 -- 3))
    (fun (ops, seed, k) ->
      let spec = random_spec ~ops ~seed ~k in
      let o =
        Chop_auto.run ~seed ~max_moves:12 ~config:(private_config ()) spec
      in
      let parts = o.Chop_auto.spec.Chop.Spec.partitioning.P.parts in
      (* revalidating from scratch raises on any broken invariant
         (coverage, disjointness, acyclic quotient) *)
      let _ = P.partitioning o.Chop_auto.spec.Chop.Spec.graph parts in
      List.length parts = k
      && List.for_all (fun (p : P.t) -> p.P.members <> []) parts)

let test_auto_deterministic () =
  let render () =
    let o =
      Chop_auto.run ~seed:3 ~config:(private_config ())
        (bench_spec ~k:2 ~perf:6000. "diffeq")
    in
    (Ops.render_auto o.Chop_auto.spec o, o.Chop_auto.moves_tried)
  in
  let r1, t1 = render () and r2, t2 = render () in
  Alcotest.(check string) "byte-identical rendering per seed" r1 r2;
  Alcotest.(check int) "same move count" t1 t2

let test_auto_honors_pins () =
  let spec = bench_spec ~k:2 "ar" in
  (* pick a pin the seed partitioning can satisfy with one legal move *)
  let pg = spec.Chop.Spec.partitioning in
  let labels = List.map (fun (p : P.t) -> p.P.label) pg.P.parts in
  let pinned, target =
    List.concat_map
      (fun (p : P.t) -> List.map (fun m -> (m, p.P.label)) p.P.members)
      pg.P.parts
    |> List.find_map (fun (op, cur) ->
           List.find_map
             (fun l ->
               if String.equal l cur then None
               else
                 match P.move_op pg ~op ~to_:l with
                 | Ok _ -> Some (op, l)
                 | Error _ -> None)
             labels)
    |> Option.get
  in
  let constraints =
    { Chop_auto.pins = [ (pinned, target) ]; communities = [] }
  in
  let o =
    Chop_auto.run ~constraints ~max_moves:24 ~config:(private_config ()) spec
  in
  Alcotest.(check string) "pinned op ends in its partition" target
    (P.part_of o.Chop_auto.spec.Chop.Spec.partitioning pinned).P.label

let test_auto_honors_communities () =
  let spec = bench_spec ~k:2 "ar" in
  let graph = spec.Chop.Spec.graph in
  let members = first_ops graph 3 in
  let constraints = { Chop_auto.pins = []; communities = [ members ] } in
  let o =
    Chop_auto.run ~constraints ~max_moves:24 ~config:(private_config ()) spec
  in
  let labels =
    List.sort_uniq String.compare
      (List.map
         (fun op ->
           (P.part_of o.Chop_auto.spec.Chop.Spec.partitioning op).P.label)
         members)
  in
  Alcotest.(check int) "community shares one partition" 1 (List.length labels)

let test_auto_multilevel_depth () =
  (* with the automatic coarse target (absent [coarse_target]), a graph
     this size must actually coarsen — the fixed 2048 default used to
     leave every run at a single level *)
  let spec = random_spec ~ops:30 ~seed:7 ~k:2 in
  let o =
    Chop_auto.run ~seed:7 ~max_moves:4 ~config:(private_config ()) spec
  in
  Alcotest.(check bool) "at least 2 levels" true (o.Chop_auto.levels >= 2);
  Alcotest.(check bool) "coarsest level is coarser than the base" true
    (o.Chop_auto.coarse_clusters < 30);
  (* explicit targets are still honored: large enough means no coarsening *)
  let o1 =
    Chop_auto.run ~seed:7 ~max_moves:4 ~coarse_target:2048
      ~config:(private_config ()) spec
  in
  Alcotest.(check int) "explicit large target stays single-level" 1
    o1.Chop_auto.levels

(* The HW/SW co-design case study: on pcm_pwm the all-hardware seed is
   clock-bound and the all-software seed is memory-starved into narrow
   issue; refinement with model flips enabled must land on a genuinely
   mixed split that beats both pure seeds on the total score order. *)
let best_perf spec =
  let session = Chop.Explore.Session.create (private_config ()) spec in
  Fun.protect
    ~finally:(fun () -> Chop.Explore.Session.close session)
    (fun () ->
      let r = Chop.Explore.Session.run session in
      match r.Chop.Explore.outcome.Chop.Search.feasible with
      | best :: _ -> (Chop.Integration.objectives best).(0)
      | [] -> infinity)

let test_pcm_pwm_codesign_triangle () =
  let all_hw = best_perf (bench_spec ~multicycle:true "pcm_pwm") in
  let all_sw =
    best_perf
      (bench_spec ~multicycle:true
         ~impls:[ ("P1", "cpu"); ("P2", "cpu") ]
         "pcm_pwm")
  in
  Alcotest.(check bool) "both pure seeds are feasible" true
    (all_hw < infinity && all_sw < infinity);
  let run () =
    Chop_auto.run ~seed:1 ~config:(private_config ())
      (bench_spec ~multicycle:true "pcm_pwm")
  in
  let o = run () in
  Alcotest.(check bool) "refinement rebinds at least one partition" true
    (o.Chop_auto.impl_flips >= 1);
  let impls =
    List.map
      (fun (p : P.t) ->
        Chop.Spec.impl_of_partition o.Chop_auto.spec p.P.label)
      o.Chop_auto.spec.Chop.Spec.partitioning.P.parts
  in
  Alcotest.(check bool) "the winning split is genuinely mixed" true
    (List.mem "hw" impls && List.mem "cpu" impls);
  let mixed =
    match o.Chop_auto.report.Chop.Explore.outcome.Chop.Search.feasible with
    | best :: _ -> (Chop.Integration.objectives best).(0)
    | [] -> Alcotest.fail "mixed result infeasible"
  in
  Alcotest.(check bool) "mixed beats the all-hardware seed" true
    (mixed < all_hw);
  Alcotest.(check bool) "mixed beats the all-software seed" true
    (mixed < all_sw);
  (* deterministic under the fixed seed, byte for byte *)
  let o2 = run () in
  Alcotest.(check string) "deterministic rendering"
    (Ops.render_auto o.Chop_auto.spec o)
    (Ops.render_auto o2.Chop_auto.spec o2);
  Alcotest.(check bool) "rendering reports the flips" true
    (contains (Ops.render_auto o.Chop_auto.spec o) "model flip(s)")

(* The co-design goldens: [chop explore -g pcm_pwm -k 2 --multi-cycle]
   under the hardware and the software bindings, and [chop auto] on the
   same spec with seed 1, each rendered as the CLI prints it before its
   timing lines, at one job and on two domains.  They pin BAD's
   multi-cycle output end to end, where 9 module sets form 3 latency
   classes.  The auto run must land on the hw/sw split that beats both
   pure seeds, and say so. *)
let golden name = In_channel.with_open_bin ("data/" ^ name) In_channel.input_all

let test_pcm_pwm_goldens () =
  let two = Chop_util.Pool.create ~oversubscribe:true ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Chop_util.Pool.shutdown two) @@ fun () ->
  List.iter
    (fun (jobs, pool) ->
      let config () =
        Chop.Explore.Config.make ~jobs
          ~cache:(Chop.Explore.Config.Custom (Chop.Pred_cache.create ()))
          ()
      in
      let check what file text =
        Alcotest.(check string)
          (Printf.sprintf "%s, jobs %d" what jobs)
          (golden file) (text ^ "\n")
      in
      let explore impls =
        let spec =
          bench_spec ~multicycle:true ~strategy:Chop_baseline.Autopart.Levels
            ~impls "pcm_pwm"
        in
        Ops.render_explore spec ~keep_all:false ~csv:false ~verbose:false
          (Chop.Explore.with_engine ?pool (config ()) spec
             Chop.Explore.Session.run)
      in
      check "hardware explore" "pcm_pwm_hw_explore.golden" (explore []);
      check "software explore" "pcm_pwm_sw_explore.golden"
        (explore [ ("P1", "cpu"); ("P2", "cpu") ]);
      let o =
        Chop_auto.run ~seed:1 ?pool ~config:(config ())
          (bench_spec ~multicycle:true "pcm_pwm")
      in
      let text = Ops.render_auto o.Chop_auto.spec o in
      check "auto" "pcm_pwm_auto.golden" text;
      Alcotest.(check bool) "one model flip" true
        (contains text "1 model flip(s)");
      Alcotest.(check bool) "a partition rebound to the cpu" true
        (contains text "[model cpu]"))
    [ (1, None); (2, Some two) ]

let test_hardware_only_runs_never_flip () =
  (* no processors declared: no flip candidates are generated and the
     rendering never mentions models — the pre-seam byte identity *)
  let o =
    Chop_auto.run ~seed:3 ~config:(private_config ())
      (bench_spec ~k:2 ~perf:6000. "diffeq")
  in
  Alcotest.(check int) "no flips" 0 o.Chop_auto.impl_flips;
  let text = Ops.render_auto o.Chop_auto.spec o in
  Alcotest.(check bool) "no flip clause in the rendering" false
    (contains text "model flip");
  Alcotest.(check bool) "no model tags in the rendering" false
    (contains text "[model ")

(* Byte-identity across job counts and across repeated runs: wave
   composition, the probe-score memo and the commit rule never consult the
   job count, so any jobs value must replay the same refinement.  The
   pools oversubscribe past the core clamp so the parallel path really
   runs multiple domains even on a small CI host. *)
let run_at_jobs ~jobs ~seed spec =
  let config =
    Chop.Explore.Config.make ~jobs
      ~cache:(Chop.Explore.Config.Custom (Chop.Pred_cache.create ()))
      ()
  in
  if jobs = 1 then Chop_auto.run ~seed ~max_moves:24 ~config spec
  else
    let pool = Chop_util.Pool.create ~oversubscribe:true ~jobs () in
    Fun.protect
      ~finally:(fun () -> Chop_util.Pool.shutdown pool)
      (fun () -> Chop_auto.run ~seed ~max_moves:24 ~pool ~config spec)

let auto_jobs_byte_identical =
  QCheck.Test.make ~name:"refine byte-identical across jobs 1/2/4 and reruns"
    ~count:6
    QCheck.(triple (12 -- 22) (0 -- 100) (2 -- 3))
    (fun (ops, seed, k) ->
      let render jobs =
        let o = run_at_jobs ~jobs ~seed (random_spec ~ops ~seed ~k) in
        Ops.render_auto o.Chop_auto.spec o
      in
      let reference = render 1 in
      (* jobs = 1 twice covers repeated-run identity *)
      List.for_all
        (fun jobs -> String.equal reference (render jobs))
        [ 1; 2; 4 ])

(* The CLI row [chop auto -g ewf -k 3 --multi-cycle --perf 30000 --delay
   30000 --seed 1] prints the same at one job as on four domains, up to
   its timing line (which Ops.render_auto leaves out).  Each side starts
   from an empty cache, as each CLI process does. *)
let test_auto_ewf_row_jobs_1_4 () =
  let render ?pool jobs =
    let config =
      Chop.Explore.Config.make ~jobs
        ~cache:(Chop.Explore.Config.Custom (Chop.Pred_cache.create ()))
        ()
    in
    let o =
      Chop_auto.run ~seed:1 ?pool ~config
        (bench_spec ~k:3 ~multicycle:true "ewf")
    in
    Ops.render_auto o.Chop_auto.spec o
  in
  let four = Chop_util.Pool.create ~oversubscribe:true ~jobs:4 () in
  Fun.protect ~finally:(fun () -> Chop_util.Pool.shutdown four) @@ fun () ->
  Alcotest.(check string) "jobs 1 = jobs 4" (render 1) (render ~pool:four 4)

(* Six paper benchmarks at settings where the space is interesting: on
   some rows the Min_cut seed is already feasible, on others only another
   Autopart strategy finds feasibility and auto has to move its way out.
   Each row refines its Min_cut 1 seed at one job on a fresh cache. *)
let auto_rows =
  (* name, partitions, perf ns, multi-cycle; delay 30000 ns throughout *)
  [
    ("ar", 3, 30000., false);
    ("ewf", 3, 30000., true);
    ("fir8", 2, 6000., false);
    ("fir16", 2, 30000., false);
    ("diffeq", 2, 6000., false);
    ("dct8", 4, 30000., false);
  ]

let test_auto_rows_vs_seed () =
  (* perf and likely area of the best feasible design *)
  let best (r : Chop.Explore.report) =
    match r.Chop.Explore.outcome.Chop.Search.feasible with
    | [] -> None
    | best :: _ ->
        let o = Chop.Integration.objectives best in
        Some (o.(0), o.(2))
  in
  let rows =
    List.map
      (fun (name, k, perf, multicycle) ->
        let spec strategy = bench_spec ~k ~perf ~multicycle ~strategy name in
        let any_strategy =
          List.exists
            (fun strategy ->
              best
                (Chop.Explore.with_engine
                   (Chop.Explore.Config.make ~cache:Chop.Explore.Config.Off ())
                   (spec strategy) Chop.Explore.Session.run)
              <> None)
            Chop_baseline.Autopart.[ Levels; Min_cut 1; Random_balanced 1 ]
        in
        let o =
          Chop_auto.run ~config:(private_config ())
            (spec (Chop_baseline.Autopart.Min_cut 1))
        in
        let seed = best o.Chop_auto.seed_report
        and final = best o.Chop_auto.report in
        if any_strategy then
          Alcotest.(check bool)
            (name ^ ": auto feasible where a strategy is")
            true (final <> None);
        Alcotest.(check bool)
          (name ^ ": auto no worse than its seed")
          false
          (seed <> None && final = None);
        let beats =
          match (seed, final) with
          | None, Some _ -> true
          | Some (sp, sa), Some (fp, fa) -> fp < sp || fa < sa
          | _, None -> false
        in
        (beats, o.Chop_auto.cache_hits, o.Chop_auto.cache_misses))
      auto_rows
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rows in
  let hits = sum (fun (_, h, _) -> h) and misses = sum (fun (_, _, m) -> m) in
  Alcotest.(check bool) "auto beats its seed on at least 3 rows" true
    (List.length (List.filter (fun (b, _, _) -> b) rows) >= 3);
  Alcotest.(check bool)
    (Printf.sprintf "aggregate cache hit rate %d/%d >= 50%%" hits
       (hits + misses))
    true
    (2 * hits >= hits + misses)

let test_auto_invalid_constraints () =
  let spec = bench_spec ~k:2 "ar" in
  let bad_pin =
    { Chop_auto.pins = [ (List.hd (first_ops spec.Chop.Spec.graph 1), "P9") ];
      communities = [] }
  in
  (match
     Chop_auto.run ~constraints:bad_pin ~config:(private_config ()) spec
   with
  | exception Chop_auto.Invalid_constraints _ -> ()
  | _ -> Alcotest.fail "unknown partition accepted");
  match
    Chop_auto.run
      ~constraints:{ Chop_auto.pins = [ (99999, "P1") ]; communities = [] }
      ~config:(private_config ()) spec
  with
  | exception Chop_auto.Invalid_constraints _ -> ()
  | _ -> Alcotest.fail "unknown operation accepted"

let test_parse_constraints () =
  let spec = bench_spec ~k:2 "ar" in
  (match Ops.parse_constraints spec ~pins:[ "1=P1" ] ~together:[] with
  | Ok { Chop_auto.pins = [ (1, "P1") ]; _ } -> ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error m -> Alcotest.failf "pin rejected: %s" m);
  (match Ops.parse_constraints spec ~pins:[ "nope" ] ~together:[] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing '=' accepted");
  match Ops.parse_constraints spec ~pins:[] ~together:[ "1" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "singleton community accepted"

(* ------------------------------------------------------------------ *)
(* Satellite regressions: scheduler failure paths *)

(* A pure chain at its minimal length: every operation has zero mobility,
   so every slack window is a single step — the case that used to die
   with [failwith "no schedulable op"]. *)
let test_force_directed_chain_minimal () =
  let b = G.builder ~name:"chain" () in
  let input = G.add_node b ~op:Chop_dfg.Op.Input ~width:16 in
  let prev = ref input in
  for _ = 1 to 10 do
    let c = G.add_node b ~op:Chop_dfg.Op.Const ~width:16 in
    let n = G.add_node b ~op:Chop_dfg.Op.Add ~width:16 in
    G.add_edge b ~src:!prev ~dst:n;
    G.add_edge b ~src:c ~dst:n;
    prev := n
  done;
  let out = G.add_node b ~op:Chop_dfg.Op.Output ~width:16 in
  G.add_edge b ~src:!prev ~dst:out;
  let g = G.build b in
  let cp = Chop_dfg.Analysis.critical_path g in
  let s = Chop_sched.Force_directed.run ~length:cp g in
  (match Chop_sched.Schedule.check s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid schedule: %s" e);
  Alcotest.(check int) "minimal length achieved" cp s.Chop_sched.Schedule.length

let test_force_directed_ewf_minimal () =
  let g = Chop_dfg.Benchmarks.elliptic_wave_filter () in
  let cp = Chop_dfg.Analysis.critical_path g in
  let s = Chop_sched.Force_directed.run ~length:cp g in
  match Chop_sched.Schedule.check s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid schedule: %s" e

let test_list_sched_no_progress_printer () =
  let msg =
    Printexc.to_string
      (Chop_sched.List_sched.No_progress
         { graph = "P1 of ewf"; ops = 7; bound = 99 })
  in
  Alcotest.(check bool) "printer names the exception" true
    (contains msg "No_progress");
  Alcotest.(check bool) "printer carries the graph label" true
    (contains msg "P1 of ewf")

let test_describe_exn_mapping () =
  let msg =
    Server.describe_exn
      (Chop_sched.List_sched.No_progress
         { graph = "P2 subgraph"; ops = 5; bound = 64 })
  in
  Alcotest.(check bool) "structured scheduler message" true
    (contains msg "scheduler stalled");
  Alcotest.(check bool) "carries the graph label" true
    (contains msg "P2 subgraph");
  Alcotest.(check bool) "other exceptions fall through" true
    (contains (Server.describe_exn (Failure "boom")) "boom")

let autopart_exactly_k =
  QCheck.Test.make
    ~name:"min-cut and random yield exactly k non-empty parts" ~count:30
    QCheck.(triple (10 -- 40) (0 -- 100) (2 -- 6))
    (fun (ops, seed, k) ->
      let g = Chop_dfg.Benchmarks.random_dag ~ops ~seed () in
      let k = min k (G.op_count g) in
      List.for_all
        (fun strategy ->
          let pg = Chop_baseline.Autopart.generate g ~k strategy in
          List.length pg.P.parts = k
          && List.for_all (fun (p : P.t) -> p.P.members <> []) pg.P.parts)
        [
          Chop_baseline.Autopart.Min_cut seed;
          Chop_baseline.Autopart.Random_balanced seed;
        ])

(* ------------------------------------------------------------------ *)
(* session/optimize through the server pipeline *)

let make_server ?(jobs = 1) () =
  Server.create
    {
      Server.default_config with
      socket_path = None;
      jobs;
      log = None;
      handle_signals = false;
    }

let parse_response line =
  match Json.parse line with
  | Ok v -> v
  | Error msg -> Alcotest.failf "unparseable response %S: %s" line msg

let field resp path =
  List.fold_left (fun v name -> Option.bind v (Json.member name)) (Some resp)
    path

let open_session server line =
  let resp = parse_response (Server.handle_line server line) in
  match
    Option.bind (field resp [ "result"; "session" ]) Json.to_string_opt
  with
  | Some sid -> sid
  | None -> Alcotest.failf "no session id in %s" (Json.print resp)

let optimize server sid =
  let resp =
    parse_response
      (Server.handle_line server
         (Printf.sprintf
            {|{"op":"session/optimize","session":"%s","seed":1}|} sid))
  in
  Alcotest.(check (option bool)) "ok" (Some true) (Protocol.response_ok resp);
  resp

let int_field resp path = Option.bind (field resp path) Json.to_int_opt

(* On a two-job server, so the speculative waves run on its pool. *)
let test_session_optimize_roundtrip () =
  let server = make_server ~jobs:2 () in
  let sid =
    open_session server
      {|{"op":"session/open","benchmark":"diffeq","partitions":2,"perf":6000,"strategy":"min-cut"}|}
  in
  let resp = optimize server sid in
  Alcotest.(check (option bool)) "verdict flipped to feasible" (Some true)
    (Option.bind (field resp [ "result"; "feasible" ]) Json.to_bool_opt);
  let at_least_one what path =
    Alcotest.(check bool) what true
      (match int_field resp path with Some n -> n >= 1 | None -> false)
  in
  at_least_one "timing counts the candidate moves" [ "timing"; "moves_tried" ];
  at_least_one "probes ran speculatively" [ "timing"; "speculative_runs" ];
  at_least_one "in batch rounds" [ "timing"; "batch_rounds" ];
  Alcotest.(check (option int)) "on the server's two jobs" (Some 2)
    (int_field resp [ "timing"; "jobs" ]);
  (* byte-identity with the CLI path: same spec, same seed, rendered
     through the same Ops.render_auto *)
  let o =
    Chop_auto.run ~seed:1 ~config:(private_config ())
      (bench_spec ~k:2 ~perf:6000. "diffeq")
  in
  Alcotest.(check (option string)) "text identical to chop auto"
    (Some (Ops.render_auto o.Chop_auto.spec o))
    (Protocol.response_text resp)

(* HW/SW co-design over the wire: refining pcm_pwm rebinds a partition
   to the processor and says so in the response. *)
let test_session_optimize_model_flip () =
  let server = make_server ~jobs:2 () in
  let sid =
    open_session server
      {|{"op":"session/open","benchmark":"pcm_pwm","partitions":2,"multicycle":true}|}
  in
  Alcotest.(check bool) "at least one model flip" true
    (match int_field (optimize server sid) [ "result"; "impl_flips" ] with
    | Some n -> n >= 1
    | None -> false)

let test_session_optimize_bad_constraints () =
  let server = make_server () in
  let sid =
    open_session server
      {|{"op":"session/open","benchmark":"ar","partitions":2}|}
  in
  let code line =
    Protocol.response_error_code
      (parse_response (Server.handle_line server line))
  in
  Alcotest.(check (option string)) "unknown partition pin" (Some "bad_request")
    (code
       (Printf.sprintf
          {|{"op":"session/optimize","session":"%s","pins":["1=P9"]}|} sid));
  Alcotest.(check (option string)) "malformed pin" (Some "bad_request")
    (code
       (Printf.sprintf
          {|{"op":"session/optimize","session":"%s","pins":["zzz"]}|} sid));
  Alcotest.(check (option string)) "unknown session" (Some "bad_request")
    (code {|{"op":"session/optimize","session":"nope"}|})

let () =
  Alcotest.run "chop_auto"
    [
      ( "auto",
        [
          QCheck_alcotest.to_alcotest auto_yields_valid_partitioning;
          Alcotest.test_case "deterministic per seed" `Quick
            test_auto_deterministic;
          Alcotest.test_case "honors pins" `Quick test_auto_honors_pins;
          Alcotest.test_case "honors communities" `Quick
            test_auto_honors_communities;
          Alcotest.test_case "invalid constraints" `Quick
            test_auto_invalid_constraints;
          Alcotest.test_case "parse_constraints" `Quick test_parse_constraints;
          Alcotest.test_case "multilevel coarsening depth" `Quick
            test_auto_multilevel_depth;
          QCheck_alcotest.to_alcotest auto_jobs_byte_identical;
          Alcotest.test_case "ewf row jobs-1 = jobs-4" `Quick
            test_auto_ewf_row_jobs_1_4;
          Alcotest.test_case "six rows against the Min_cut seed" `Quick
            test_auto_rows_vs_seed;
        ] );
      ( "models",
        [
          Alcotest.test_case "pcm_pwm co-design triangle" `Quick
            test_pcm_pwm_codesign_triangle;
          Alcotest.test_case "pcm_pwm goldens" `Quick test_pcm_pwm_goldens;
          Alcotest.test_case "hardware-only runs never flip" `Quick
            test_hardware_only_runs_never_flip;
        ] );
      ( "sched-hardening",
        [
          Alcotest.test_case "force-directed chain at minimal length" `Quick
            test_force_directed_chain_minimal;
          Alcotest.test_case "force-directed ewf at minimal length" `Quick
            test_force_directed_ewf_minimal;
          Alcotest.test_case "No_progress printer" `Quick
            test_list_sched_no_progress_printer;
          Alcotest.test_case "describe_exn mapping" `Quick
            test_describe_exn_mapping;
          QCheck_alcotest.to_alcotest autopart_exactly_k;
        ] );
      ( "session-optimize",
        [
          Alcotest.test_case "round-trip" `Quick
            test_session_optimize_roundtrip;
          Alcotest.test_case "pcm_pwm model flip" `Quick
            test_session_optimize_model_flip;
          Alcotest.test_case "bad constraints" `Quick
            test_session_optimize_bad_constraints;
        ] );
    ]
