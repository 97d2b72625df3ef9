(* auto-cold: what [chop auto --jobs 1] does after parsing its
   arguments, in process, one caller.  Each op runs Chop_auto.run on a
   prebuilt min-cut seed spec with a fresh prediction cache of the shared
   cache's capacity and one job, then renders the result.

   One job, not the default [nproc]: on the shared 2-core host the bounds
   were set on, two busy domains drew 2-15% of the CPUs' time as steal
   from the hypervisor where one drew 0.2-2%, and ran no faster (over
   five runs ar took 412-525 ms and fir8 167-226 ms, against 408-547 and
   149-191 ms over six at one job), so a jobs-2 run timed the host's
   other guests more than the program.  The speculative waves are
   the same at any job count; the checks compare every render with a
   jobs-N one. *)

open Common
module Ops = Chop_server.Ops

(* The job count of the set-up and timed ops. *)
let jobs = 1

let spec_of_row (row : Gen.auto_row) =
  let graph =
    match Ops.graph_of_name row.Gen.bench with Ok g -> g | Error m -> failwith m
  in
  Ops.build_spec
    ~processors:(Ops.processors_for ~benchmark:row.Gen.bench ~impls:[])
    ~graph ~partitions:row.Gen.k ~package:Chop_tech.Mosis.package_84
    ~perf:row.Gen.perf ~delay:row.Gen.delay ~multicycle:row.Gen.multicycle
    ~strategy:(Chop_baseline.Autopart.Min_cut 1) ()

type op_result = {
  r : record;
  pair : int * int;  (** row index, tie-break seed *)
  o : Chop_auto.outcome;
  text : string;
  run_ms : float;
  render_ms : float;
  minor : int;
  major : int;
}

(* A record's kind names its (row, tie-break seed) pair. *)
let kind_of (row, tie) = Printf.sprintf "%s/%d" Gen.auto_rows.(row).Gen.bench tie

let run_op ~jobs (buf : Trace.buf) ~op ~parent specs (row, tie) =
  let g0 = Gc.quick_stat () in
  let t0 = Clock.now_ns () in
  let cache =
    Chop.Pred_cache.create ~capacity:Chop.Pred_cache.default_shared_capacity ()
  in
  let config =
    Chop.Explore.Config.make ~jobs ~cache:(Chop.Explore.Config.Custom cache) ()
  in
  let t1 = Clock.now_ns () in
  let o = Chop_auto.run ~seed:tie ~config specs.(row) in
  let t2 = Clock.now_ns () in
  let text = Ops.render_auto o.Chop_auto.spec o in
  let t3 = Clock.now_ns () in
  let g1 = Gc.quick_stat () in
  ignore (Trace.add buf ~op ~parent "auto.run" t1 t2);
  ignore (Trace.add buf ~op ~parent "ops.render" t2 t3);
  {
    r =
      {
        (empty_record (kind_of (row, tie))) with
        lat_ms = Clock.ms_between t0 t3;
        ok = true;
        done_ns = t3;
      };
    pair = (row, tie);
    o;
    text;
    run_ms = Clock.ms_between t1 t2;
    render_ms = Clock.ms_between t2 t3;
    minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* Renders must repeat for a (row, tie-break seed) pair: the first one
   seen is kept with the outcome's spec for the checks after the run. *)
let compare_first checks firsts (x : op_result) =
  match Hashtbl.find_opt firsts x.pair with
  | None -> Hashtbl.replace firsts x.pair (x.text, x.o.Chop_auto.spec)
  | Some (text, _) ->
      check checks
        (Printf.sprintf "auto %s tie %d: render differs from the first"
           Gen.auto_rows.(fst x.pair).Gen.bench (snd x.pair))
        (String.equal text x.text)

(* Each [chop auto] starts in a fresh process, with no garbage left by
   an earlier run for its collector to work through.  A full major
   collection before each op, outside its latency, gives every op that
   start, and makes the peak RSS that of the heaviest op: 52.96-53.19 MB
   over five runs, where runs without it read 53.4-58.1 MB. *)
let fresh_heap () = Gc.full_major ()

(* The fewest rounds a phase runs: 42 ops, 6 of each row, so the p75
   tail always qualifies (it needs 40 samples). *)
let min_rounds = 6

(* Runs whole rounds (each runs every row once) from round [from] until
   [seconds] have passed, and at least [min_rounds], so every phase times
   the same mix of ops.  In cost order the 7 rows' samples form clusters:
   p50 lies among the 4th and 5th (ar, pcm_pwm), p75 in the 6th (dct8). *)
let phase ~jobs ~traced ~seconds ~seed ~from specs checks firsts =
  let buf = Trace.buffer ~enabled:traced ~tid:0 in
  let t0 = Clock.now_ns () in
  let ops = ref [] and records = ref [] and round = ref from and op = ref 0 in
  while !round < from + min_rounds || Clock.s_between t0 (Clock.now_ns ()) < seconds do
    List.iter
      (fun pair ->
        fresh_heap ();
        let a = Clock.now_ns () in
        (* the op's root span is its whole turn: cache and config
           creation, the run, the render and the comparison *)
        (match
           Trace.op_span buf ~op:!op (fun root ->
               let x = run_op ~jobs buf ~op:!op ~parent:root specs pair in
               compare_first checks firsts x;
               x)
         with
        | x ->
            (* outcomes are large; keep them only for the traced
               phase's per-layer metrics *)
            if traced then ops := x :: !ops;
            records := { x.r with group = !round - from } :: !records
        | exception _ ->
            let b = Clock.now_ns () in
            records :=
              {
                (empty_record (kind_of pair)) with
                lat_ms = Clock.ms_between a b;
                done_ns = b;
                code = "exception";
                group = !round - from;
              }
              :: !records);
        incr op)
      (Gen.auto_round ~seed !round);
    incr round
  done;
  let t1 = Clock.now_ns () in
  let ops = List.rev !ops in
  ( {
      records = Array.of_list (List.rev !records);
      start_ns = t0;
      wall_s = Clock.s_between t0 t1;
      groups = "rounds";
      spans = Trace.spans [ buf ];
    },
    ops,
    !round )

let layers ops spans =
  let n = float_of_int (List.length ops) in
  let sum f = List.fold_left (fun a x -> a +. f x) 0. ops in
  let per_op f = sum f /. n in
  let oi f = per_op (fun x -> float_of_int (f x.o)) in
  let seed_m x = x.o.Chop_auto.seed_report.Chop.Explore.metrics in
  let final_m x = x.o.Chop_auto.report.Chop.Explore.metrics in
  let wall = sum (fun x -> x.o.Chop_auto.spec_wall_seconds) in
  let busy = sum (fun x -> x.o.Chop_auto.spec_busy_seconds) in
  let ops_n = List.length ops in
  [
    ("auto.run_ms", Trace.mean_ms spans ~ops:ops_n "auto.run");
    ("auto.wave_wall_ms", wall *. 1e3 /. n);
    ("auto.wave_busy_ms", busy *. 1e3 /. n);
    ("pool.parallelism", Stats.ratio busy wall);
    ( "auto.serial_ms",
      per_op (fun x -> Float.max 0. (x.run_ms -. (x.o.Chop_auto.spec_wall_seconds *. 1e3))) );
    ("auto.moves_tried", oi (fun o -> o.Chop_auto.moves_tried));
    ("auto.moves_accepted", oi (fun o -> o.Chop_auto.moves_accepted));
    ("auto.speculative_runs", oi (fun o -> o.Chop_auto.speculative_runs));
    ("auto.batch_rounds", oi (fun o -> o.Chop_auto.batch_rounds));
    ( "auto.accept_ratio",
      Stats.ratio
        (sum (fun x -> float_of_int x.o.Chop_auto.moves_accepted))
        (sum (fun x -> float_of_int x.o.Chop_auto.moves_tried)) );
    ("pred_cache.hits", oi (fun o -> o.Chop_auto.cache_hits));
    ("pred_cache.misses", oi (fun o -> o.Chop_auto.cache_misses));
    ("pred_cache.structural_hits", oi (fun o -> o.Chop_auto.cache_structural_hits));
    ( "pred_cache.hit_ratio",
      Stats.ratio
        (sum (fun x -> float_of_int x.o.Chop_auto.cache_hits))
        (sum (fun x -> float_of_int (x.o.Chop_auto.cache_hits + x.o.Chop_auto.cache_misses))) );
    ("explore.seed_predict_ms", per_op (fun x -> (seed_m x).Chop.Explore.Metrics.predict.wall_seconds *. 1e3));
    ("explore.seed_search_ms", per_op (fun x -> (seed_m x).Chop.Explore.Metrics.search.wall_seconds *. 1e3));
    ( "bad.ms_per_miss",
      Stats.ratio
        (sum (fun x -> (seed_m x).Chop.Explore.Metrics.predict.wall_seconds *. 1e3))
        (sum (fun x -> float_of_int (seed_m x).Chop.Explore.Metrics.cache_misses)) );
    ( "search.avoided_ratio",
      Stats.ratio
        (sum (fun x -> float_of_int (final_m x).Chop.Explore.Metrics.integrations_avoided))
        (sum (fun x ->
             float_of_int
               x.o.Chop_auto.report.Chop.Explore.outcome.Chop.Search.stats
                 .Chop.Search.implementation_trials)) );
    ("ops.render_ms", Trace.mean_ms spans ~ops:ops_n "ops.render");
    ("gc.minor_collections", per_op (fun x -> float_of_int x.minor));
    ("gc.major_collections", per_op (fun x -> float_of_int x.major));
    ("unattributed_ms", Trace.mean_self_ms spans ~ops:ops_n "op");
  ]

(* After the timed phases: each pair's first render must equal a render
   at the default job count, at least 2 (the jobs-independence contract),
   and its final explore block must equal a cache-off explore of the spec
   auto returned. *)
let check_references checks specs firsts =
  let pairs = Hashtbl.fold (fun pair v acc -> (pair, v) :: acc) firsts [] in
  let jobs_n = max 2 (Chop_util.Pool.default_jobs ()) in
  let references =
    par_map
      (fun (pair, (_, final_spec)) ->
        let x =
          run_op ~jobs:jobs_n (Trace.buffer ~enabled:false ~tid:0) ~op:0 ~parent:(-1) specs
            pair
        in
        let report =
          Chop.Explore.with_engine
            (Chop.Explore.Config.make ~jobs:1 ~cache:Chop.Explore.Config.Off ())
            final_spec Chop.Explore.Session.run
        in
        (x.text, Ops.render_explore final_spec ~keep_all:false ~csv:false ~verbose:false report))
      pairs
  in
  List.iter2
    (fun ((row, tie), (text, _)) (at_jobs_n, block) ->
      let name = Printf.sprintf "auto %s tie %d" Gen.auto_rows.(row).Gen.bench tie in
      check checks
        (Printf.sprintf "%s: render differs at %d jobs" name jobs_n)
        (String.equal text at_jobs_n);
      let tl = String.length text and bl = String.length block in
      check checks
        (name ^ ": final explore block differs from a cache-off explore")
        (tl >= bl && String.equal block (String.sub text (tl - bl) bl)))
    pairs references

let run (s : settings) =
  let checks = new_checks () in
  let firsts = Hashtbl.create 16 in
  (* set-up: the seed specs, then the warm-up *)
  let setup () =
    let t0 = Clock.now_ns () in
    let specs = Array.map spec_of_row Gen.auto_rows in
    let buf = Trace.buffer ~enabled:false ~tid:0 in
    List.iter
      (fun pair ->
        fresh_heap ();
        compare_first checks firsts (run_op ~jobs buf ~op:0 ~parent:(-1) specs pair))
      Gen.auto_warmup;
    (specs, Clock.s_between t0 (Clock.now_ns ()))
  in
  let specs, setups = repeated_setup setup ignore in
  let traced, next_round =
    if not s.trace then (None, 0)
    else
      let p, ops, next =
        phase ~jobs ~traced:true ~seconds:s.seconds ~seed:s.seed ~from:0 specs
          checks firsts
      in
      (Some (p, layers ops p.spans), next)
  in
  let timed, _, _ =
    phase ~jobs ~traced:false ~seconds:s.seconds ~seed:s.seed ~from:next_round
      specs checks firsts
  in
  let rss_mb = Proc.vmhwm_mb 0 in
  check_references checks specs firsts;
  {
    setups;
    timed;
    traced;
    rss_mb;
    checks;
    notes =
      [
        Printf.sprintf "auto jobs: %d" jobs;
        (* each row's median latency and range, cheapest first: p50 is
           the 4th of these 7, and the p75 tail lies among the 6th's
           samples *)
        "median (min-max) ms per op, cheapest first: "
        ^ String.concat ", "
            (Gen.auto_round ~seed:0 0
            |> List.map (fun pair ->
                   let lat =
                     Array.to_list timed.records
                     |> List.filter_map (fun r ->
                            if r.kind = kind_of pair then Some r.lat_ms else None)
                     |> Array.of_list |> Stats.sorted
                   in
                   (Stats.median lat, kind_of pair, lat))
            |> List.sort compare
            |> List.map (fun (ms, k, lat) ->
                   Printf.sprintf "%s %.0f (%.0f-%.0f)" k ms lat.(0)
                     lat.(Array.length lat - 1)));
      ];
  }
