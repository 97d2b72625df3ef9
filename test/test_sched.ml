(* Tests for chop_sched: schedule validation, list scheduling, pipelined
   initiation intervals, lifetime analysis and urgency scheduling. *)

open Chop_sched

let unit_latency _ = 1

let ar () = Chop_dfg.Benchmarks.ar_lattice_filter ()

let schedule_of ?(latency = unit_latency) ~alloc g =
  List_sched.run ~latency ~alloc g

(* ------------------------------------------------------------------ *)
(* Schedule *)

let test_alloc_get () =
  Alcotest.(check int) "present" 3 (Schedule.alloc_get [ ("add", 3) ] "add");
  Alcotest.(check int) "absent" 0 (Schedule.alloc_get [ ("add", 3) ] "mult")

let test_validate_alloc () =
  (match Schedule.validate_alloc [ ("add", 1); ("add", 2) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate class accepted");
  match Schedule.validate_alloc [ ("add", 0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero units accepted"

let test_check_accepts_list_schedule () =
  let g = ar () in
  let s = schedule_of ~alloc:[ ("add", 2); ("mult", 2) ] g in
  (match Schedule.check s with
  | Ok () -> ()
  | Error e -> Alcotest.fail e)

let test_check_rejects_violations () =
  let g = ar () in
  let s = schedule_of ~alloc:[ ("add", 2); ("mult", 2) ] g in
  (* corrupt: start everything at 0 *)
  let broken = { s with Schedule.starts = List.map (fun (id, _) -> (id, 0)) s.Schedule.starts } in
  match Schedule.check broken with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "broken schedule accepted"

let test_busy_profile_capped () =
  let g = ar () in
  let alloc = [ ("add", 2); ("mult", 3) ] in
  let s = schedule_of ~alloc g in
  let profile = Schedule.busy_profile s ~cls:"mult" in
  Array.iter (fun b -> Alcotest.(check bool) "<= alloc" true (b <= 3)) profile;
  Alcotest.(check int) "total work" 16 (Array.fold_left ( + ) 0 profile)

(* ------------------------------------------------------------------ *)
(* List_sched *)

let test_list_sched_length_bounds () =
  let g = ar () in
  (* fully parallel: length = critical path *)
  let s = schedule_of ~alloc:[ ("add", 12); ("mult", 16) ] g in
  Alcotest.(check int) "cp length" (Chop_dfg.Analysis.critical_path g) s.Schedule.length;
  (* fully serial: length >= total ops / 1 for the busiest class *)
  let s1 = schedule_of ~alloc:[ ("add", 1); ("mult", 1) ] g in
  Alcotest.(check bool) "serial long" true (s1.Schedule.length >= 16)

let test_list_sched_monotone_in_alloc () =
  let g = ar () in
  let len alloc = (schedule_of ~alloc g).Schedule.length in
  Alcotest.(check bool) "more units never slower" true
    (len [ ("add", 2); ("mult", 2) ] >= len [ ("add", 3); ("mult", 4) ])

let test_list_sched_missing_class () =
  let g = ar () in
  match schedule_of ~alloc:[ ("add", 2) ] g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing class accepted"

let test_list_sched_bad_latency () =
  let g = ar () in
  match List_sched.run ~latency:(fun _ -> 0) ~alloc:[ ("add", 1); ("mult", 1) ] g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "latency 0 accepted"

let test_list_sched_multicycle () =
  let g = ar () in
  let latency n = if n.Chop_dfg.Graph.op = Chop_dfg.Op.Mult then 3 else 1 in
  let s = List_sched.run ~latency ~alloc:[ ("add", 2); ("mult", 2) ] g in
  (match Schedule.check s with Ok () -> () | Error e -> Alcotest.fail e);
  (* 16 mults x 3 cycles on 2 units: at least 24 cycles *)
  Alcotest.(check bool) "length covers mult work" true (s.Schedule.length >= 24)

let test_minimal_maximal_alloc () =
  let g = ar () in
  Alcotest.(check (list (pair string int))) "minimal"
    [ ("add", 1); ("mult", 1) ] (List_sched.minimal_alloc g);
  let m = List_sched.maximal_useful_alloc g in
  (* one lattice section's 4 multiplications share an ASAP level *)
  Alcotest.(check int) "max mult parallelism" 4 (Schedule.alloc_get m "mult")

let same_schedule msg (a : Schedule.t) (b : Schedule.t) =
  Alcotest.(check (list (pair int int))) (msg ^ ": starts") a.Schedule.starts
    b.Schedule.starts;
  Alcotest.(check (list (pair int int))) (msg ^ ": latencies")
    a.Schedule.latencies b.Schedule.latencies;
  Alcotest.(check int) (msg ^ ": length") a.Schedule.length b.Schedule.length;
  Alcotest.(check (list (pair string int))) (msg ^ ": alloc") a.Schedule.alloc
    b.Schedule.alloc

(* One prepared context serves every allocation, in any order: each
   schedule equals a fresh [run], so no state leaks between schedules. *)
let test_list_sched_prepared_reuse () =
  let multi n = if n.Chop_dfg.Graph.op = Chop_dfg.Op.Mult then 3 else 1 in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun latency ->
          let allocs =
            Chop_bad.Alloc_enum.enumerate ~cap:4 ~latency ~memport_units:[] g
          in
          let prepared = List_sched.prepare ~latency g in
          let same alloc =
            same_schedule name
              (List_sched.run ~latency ~alloc g)
              (List_sched.schedule prepared ~alloc)
          in
          List.iter same allocs;
          List.iter same (List.rev allocs))
        [ unit_latency; multi ])
    [
      ("ar", ar ());
      ("ewf", Chop_dfg.Benchmarks.elliptic_wave_filter ());
      ("dct8", Chop_dfg.Benchmarks.dct8 ());
      ("random", Chop_dfg.Benchmarks.random_dag ~ops:40 ~seed:11 ());
    ]

let test_list_sched_rejects_alloc () =
  let g = ar () in
  let rejects what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (what ^ " accepted")
  in
  let prepared = List_sched.prepare ~latency:unit_latency g in
  List.iter
    (fun (what, alloc) ->
      rejects what (fun () -> List_sched.run ~latency:unit_latency ~alloc g);
      rejects ("prepared: " ^ what) (fun () ->
          List_sched.schedule prepared ~alloc))
    [
      ("missing class", [ ("add", 2) ]);
      ("duplicate class", [ ("add", 1); ("mult", 1); ("add", 2) ]);
      ("zero units", [ ("add", 0); ("mult", 1) ]);
    ];
  (* a rejected allocation leaves the prepared context usable *)
  let alloc = [ ("add", 2); ("mult", 2) ] in
  same_schedule "after rejections"
    (List_sched.run ~latency:unit_latency ~alloc g)
    (List_sched.schedule prepared ~alloc)

let list_sched_always_valid =
  QCheck.Test.make ~name:"list schedules satisfy precedence + resources"
    ~count:60
    QCheck.(triple (5 -- 40) (0 -- 500) (pair (1 -- 3) (1 -- 3)))
    (fun (ops, seed, (na, nm)) ->
      let g = Chop_dfg.Benchmarks.random_dag ~ops ~seed () in
      let profile = Chop_dfg.Graph.op_profile g in
      let alloc =
        List.map
          (fun (cls, _) -> (cls, if cls = "add" then na else nm))
          profile
      in
      let s = List_sched.run ~latency:unit_latency ~alloc g in
      match Schedule.check s with Ok () -> true | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Pipeline *)

let test_min_ii_bounds () =
  let g = ar () in
  let s = schedule_of ~alloc:[ ("add", 2); ("mult", 2) ] g in
  let ii = Pipeline.min_ii s in
  (* resource bound: 16 mults on 2 units -> at least 8 *)
  Alcotest.(check bool) "lower bound" true (ii >= 8);
  Alcotest.(check bool) "at most length" true (ii <= s.Schedule.length);
  Alcotest.(check bool) "feasible" true (Pipeline.feasible_ii s ~ii)

let test_feasible_ii_monotone () =
  let g = ar () in
  let s = schedule_of ~alloc:[ ("add", 2); ("mult", 4) ] g in
  let ii = Pipeline.min_ii s in
  Alcotest.(check bool) "ii+1 also feasible" true (Pipeline.feasible_ii s ~ii:(ii + 1));
  if ii > 1 then
    Alcotest.(check bool) "ii-1 infeasible" false (Pipeline.feasible_ii s ~ii:(ii - 1))

let test_feasible_ii_validates () =
  let g = ar () in
  let s = schedule_of ~alloc:[ ("add", 2); ("mult", 2) ] g in
  match Pipeline.feasible_ii s ~ii:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ii 0 accepted"

let test_stage_count () =
  let g = ar () in
  let s = schedule_of ~alloc:[ ("add", 12); ("mult", 16) ] g in
  Alcotest.(check int) "length 8, ii 4 -> 2 stages" 2 (Pipeline.stage_count s ~ii:4);
  Alcotest.(check int) "ii = length -> 1 stage" 1
    (Pipeline.stage_count s ~ii:s.Schedule.length)

let pipeline_folding_respects_alloc =
  QCheck.Test.make ~name:"min_ii folded profile within allocation" ~count:40
    QCheck.(pair (5 -- 30) (0 -- 500))
    (fun (ops, seed) ->
      let g = Chop_dfg.Benchmarks.random_dag ~ops ~seed () in
      let alloc = List.map (fun (c, _) -> (c, 2)) (Chop_dfg.Graph.op_profile g) in
      let s = List_sched.run ~latency:unit_latency ~alloc g in
      let ii = Pipeline.min_ii s in
      Pipeline.feasible_ii s ~ii)

(* ------------------------------------------------------------------ *)
(* Lifetime *)

let test_lifetime_positive () =
  let g = ar () in
  let s = schedule_of ~alloc:[ ("add", 2); ("mult", 2) ] g in
  let d = Lifetime.analyze s in
  Alcotest.(check bool) "bits > 0" true (d.Lifetime.register_bits > 0);
  Alcotest.(check bool) "values > 0" true (d.Lifetime.peak_values > 0);
  Alcotest.(check bool) "bits >= 16 * values is false generally" true
    (d.Lifetime.register_bits >= d.Lifetime.peak_values)

let test_lifetime_pipelined_needs_more () =
  let g = ar () in
  let s = schedule_of ~alloc:[ ("add", 3); ("mult", 4) ] g in
  let seq = Lifetime.analyze s in
  let ii = Pipeline.min_ii s in
  if ii < s.Schedule.length then begin
    let pipe = Lifetime.analyze ~ii s in
    Alcotest.(check bool) "folding overlaps lifetimes" true
      (pipe.Lifetime.register_bits >= seq.Lifetime.register_bits)
  end

let test_lifetime_validates () =
  let g = ar () in
  let s = schedule_of ~alloc:[ ("add", 2); ("mult", 2) ] g in
  match Lifetime.analyze ~ii:0 s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ii 0 accepted"

(* ------------------------------------------------------------------ *)
(* Chain_sched *)

let chain_delay n =
  match n.Chop_dfg.Graph.op with Chop_dfg.Op.Mult -> 375. | _ -> 53.

let test_chain_shortens_schedule () =
  let g = ar () in
  let alloc = [ ("add", 3); ("mult", 4) ] in
  let sched, offsets = Chain_sched.run ~delay:chain_delay ~budget:450. ~alloc g in
  (match Chain_sched.check ~delay:chain_delay ~budget:450. (sched, offsets) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let plain = List_sched.run ~latency:unit_latency ~alloc g in
  Alcotest.(check bool) "chaining shortens" true
    (sched.Schedule.length < plain.Schedule.length)

let test_chain_budget_respected () =
  let g = ar () in
  let alloc = [ ("add", 3); ("mult", 4) ] in
  (* a tight budget only admits single operations per step *)
  let sched, offsets = Chain_sched.run ~delay:chain_delay ~budget:380. ~alloc g in
  (match Chain_sched.check ~delay:chain_delay ~budget:380. (sched, offsets) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  List.iter
    (fun (_, off) -> Alcotest.(check bool) "no chaining possible" true (off = 0.))
    offsets

let test_chain_validates () =
  let g = ar () in
  let alloc = [ ("add", 1); ("mult", 1) ] in
  (match Chain_sched.run ~delay:chain_delay ~budget:0. ~alloc g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "budget 0 accepted");
  match Chain_sched.run ~delay:chain_delay ~budget:100. ~alloc g with
  | exception Invalid_argument _ -> () (* mult 375 > 100 *)
  | _ -> Alcotest.fail "oversized module accepted"

let test_chain_check_catches_violations () =
  let g = ar () in
  let alloc = [ ("add", 3); ("mult", 4) ] in
  let sched, offsets = Chain_sched.run ~delay:chain_delay ~budget:450. ~alloc g in
  (* zeroing all offsets breaks the settles-before-use invariant whenever a
     chain exists *)
  let broken = List.map (fun (id, _) -> (id, 0.)) offsets in
  let has_chain = List.exists (fun (_, off) -> off > 0.) offsets in
  if has_chain then
    match Chain_sched.check ~delay:chain_delay ~budget:450. (sched, broken) with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "broken offsets accepted"

let chain_sched_valid_on_random =
  QCheck.Test.make ~name:"chained schedules valid on random dags" ~count:30
    QCheck.(pair (5 -- 30) (0 -- 300))
    (fun (ops, seed) ->
      let g = Chop_dfg.Benchmarks.random_dag ~ops ~seed () in
      let alloc = List.map (fun (c, _) -> (c, 2)) (Chop_dfg.Graph.op_profile g) in
      let r = Chain_sched.run ~delay:chain_delay ~budget:900. ~alloc g in
      match Chain_sched.check ~delay:chain_delay ~budget:900. r with
      | Ok () -> true
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Force_directed *)

let test_fds_valid_schedule () =
  let g = ar () in
  List.iter
    (fun length ->
      let s = Force_directed.run ~length g in
      match Schedule.check s with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "length %d: %s" length e))
    [ 8; 10; 14; 20 ]

let test_fds_longer_needs_fewer_units () =
  let g = ar () in
  let units length =
    Schedule.alloc_get (Force_directed.min_units ~length g) "mult"
  in
  Alcotest.(check bool) "monotone pressure" true (units 8 >= units 16);
  (* at the critical path all four lattice multiplications of a level run
     together; far beyond it two units suffice *)
  Alcotest.(check bool) "cp needs parallelism" true (units 8 >= 3);
  Alcotest.(check bool) "slack relaxes" true (units 20 <= 2)

let test_fds_rejects_short_length () =
  let g = ar () in
  match Force_directed.run ~length:5 g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "length below critical path accepted"

let test_fds_beats_or_matches_list_at_cp () =
  (* at the critical-path length, FDS should not need more multipliers
     than the maximal useful parallelism *)
  let g = ar () in
  let cp = Chop_dfg.Analysis.critical_path g in
  let fds = Force_directed.min_units ~length:cp g in
  let max_useful = List_sched.maximal_useful_alloc g in
  Alcotest.(check bool) "within useful bound" true
    (Schedule.alloc_get fds "mult" <= Schedule.alloc_get max_useful "mult")

let test_fds_multicycle () =
  let g = ar () in
  let latency n = if n.Chop_dfg.Graph.op = Chop_dfg.Op.Mult then 2 else 1 in
  let cp = Chop_dfg.Analysis.critical_path ~latency g in
  let s = Force_directed.run ~latency ~length:(cp + 4) g in
  match Schedule.check s with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let fds_always_valid =
  QCheck.Test.make ~name:"fds schedules random dags validly" ~count:25
    QCheck.(pair (5 -- 25) (0 -- 200))
    (fun (ops, seed) ->
      let g = Chop_dfg.Benchmarks.random_dag ~ops ~seed () in
      let cp = Chop_dfg.Analysis.critical_path g in
      let s = Force_directed.run ~length:(cp + 3) g in
      match Schedule.check s with Ok () -> true | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Urgency *)

let task ?(duration = 1) ?(demands = []) ?(deps = []) name =
  { Urgency.tname = name; duration; demands; deps }

let test_urgency_chain () =
  let r =
    Urgency.run ~resources:[]
      [ task "a" ~duration:3; task "b" ~duration:2 ~deps:[ "a" ];
        task "c" ~duration:1 ~deps:[ "b" ] ]
  in
  Alcotest.(check int) "makespan" 6 r.Urgency.makespan;
  Alcotest.(check (list string)) "critical path" [ "a"; "b"; "c" ]
    (Urgency.critical_path r)

let test_urgency_resource_serializes () =
  let pins = { Urgency.rname = "pins"; capacity = 2 } in
  let r =
    Urgency.run ~resources:[ pins ]
      [ task "a" ~duration:2 ~demands:[ ("pins", 2) ];
        task "b" ~duration:2 ~demands:[ ("pins", 2) ] ]
  in
  (* both need all pins: they cannot overlap *)
  Alcotest.(check int) "serialized" 4 r.Urgency.makespan

let test_urgency_parallel_when_fits () =
  let pins = { Urgency.rname = "pins"; capacity = 4 } in
  let r =
    Urgency.run ~resources:[ pins ]
      [ task "a" ~duration:2 ~demands:[ ("pins", 2) ];
        task "b" ~duration:2 ~demands:[ ("pins", 2) ] ]
  in
  Alcotest.(check int) "parallel" 2 r.Urgency.makespan

let test_urgency_priority_prefers_critical () =
  (* c has a long tail; with capacity 1 it must start before d *)
  let res = { Urgency.rname = "r"; capacity = 1 } in
  let r =
    Urgency.run ~resources:[ res ]
      [ task "c" ~duration:1 ~demands:[ ("r", 1) ];
        task "tail" ~duration:10 ~deps:[ "c" ];
        task "d" ~duration:1 ~demands:[ ("r", 1) ] ]
  in
  let c = List.find (fun p -> p.Urgency.task.Urgency.tname = "c") r.Urgency.placed in
  Alcotest.(check int) "c first" 0 c.Urgency.start_step;
  Alcotest.(check int) "makespan 11" 11 r.Urgency.makespan

let test_urgency_wait_of () =
  let res = { Urgency.rname = "r"; capacity = 1 } in
  let r =
    Urgency.run ~resources:[ res ]
      [ task "long" ~duration:5 ~demands:[ ("r", 1) ];
        task "blocked" ~duration:1 ~demands:[ ("r", 1) ] ]
  in
  Alcotest.(check int) "no wait for first" 0 (Urgency.wait_of r "long");
  Alcotest.(check int) "5 cycle wait" 5 (Urgency.wait_of r "blocked");
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Urgency.wait_of r "nope"))

let test_urgency_zero_duration () =
  let r = Urgency.run ~resources:[] [ task "z" ~duration:0 ] in
  Alcotest.(check int) "makespan 0" 0 r.Urgency.makespan

let test_urgency_rejects_overdemand () =
  let res = { Urgency.rname = "r"; capacity = 1 } in
  match Urgency.run ~resources:[ res ] [ task "a" ~demands:[ ("r", 2) ] ] with
  | exception Urgency.Unschedulable _ -> ()
  | _ -> Alcotest.fail "overdemand accepted"

let test_urgency_rejects_unknown_refs () =
  (match Urgency.run ~resources:[] [ task "a" ~demands:[ ("r", 1) ] ] with
  | exception Urgency.Unschedulable _ -> ()
  | _ -> Alcotest.fail "unknown resource accepted");
  match Urgency.run ~resources:[] [ task "a" ~deps:[ "ghost" ] ] with
  | exception Urgency.Unschedulable _ -> ()
  | _ -> Alcotest.fail "unknown dep accepted"

let test_urgency_rejects_cycle () =
  match
    Urgency.run ~resources:[]
      [ task "a" ~deps:[ "b" ]; task "b" ~deps:[ "a" ] ]
  with
  | exception Urgency.Unschedulable _ -> ()
  | _ -> Alcotest.fail "cyclic deps accepted"

let test_urgency_rejects_duplicates () =
  match Urgency.run ~resources:[] [ task "a"; task "a" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate task accepted"

let urgency_schedule_is_consistent =
  QCheck.Test.make ~name:"urgency schedules respect deps and capacity" ~count:60
    QCheck.(pair (1 -- 12) (0 -- 1000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n |] in
      let tasks =
        List.map
          (fun i ->
            let deps =
              if i = 0 then []
              else
                List.filteri (fun j _ -> j < i && Random.State.bool rng)
                  (List.init i (fun j -> Printf.sprintf "t%d" j))
                |> Chop_util.Listx.take 2
            in
            task (Printf.sprintf "t%d" i)
              ~duration:(Random.State.int rng 5)
              ~demands:[ ("r", 1 + Random.State.int rng 2) ]
              ~deps)
          (Chop_util.Listx.range 0 (n - 1))
      in
      let r = Urgency.run ~resources:[ { Urgency.rname = "r"; capacity = 3 } ] tasks in
      (* deps respected *)
      let finish name =
        (List.find (fun p -> p.Urgency.task.Urgency.tname = name) r.Urgency.placed)
          .Urgency.finish_step
      in
      List.for_all
        (fun p ->
          List.for_all
            (fun d -> finish d <= p.Urgency.start_step)
            p.Urgency.task.Urgency.deps)
        r.Urgency.placed
      (* capacity respected at every step *)
      && (let ok = ref true in
          for step = 0 to r.Urgency.makespan do
            let used =
              Chop_util.Listx.sum_by
                (fun p ->
                  if p.Urgency.start_step <= step && step < p.Urgency.finish_step
                  then Chop_util.Listx.sum_by snd p.Urgency.task.Urgency.demands
                  else 0)
                r.Urgency.placed
            in
            if used > 3 then ok := false
          done;
          !ok))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "chop_sched"
    [
      ( "schedule",
        [
          tc "alloc_get" `Quick test_alloc_get;
          tc "validate_alloc" `Quick test_validate_alloc;
          tc "check accepts" `Quick test_check_accepts_list_schedule;
          tc "check rejects" `Quick test_check_rejects_violations;
          tc "busy profile" `Quick test_busy_profile_capped;
        ] );
      ( "list_sched",
        [
          tc "length bounds" `Quick test_list_sched_length_bounds;
          tc "monotone in alloc" `Quick test_list_sched_monotone_in_alloc;
          tc "missing class" `Quick test_list_sched_missing_class;
          tc "bad latency" `Quick test_list_sched_bad_latency;
          tc "rejects bad allocations" `Quick test_list_sched_rejects_alloc;
          tc "prepared context reuse" `Quick test_list_sched_prepared_reuse;
          tc "multicycle" `Quick test_list_sched_multicycle;
          tc "min/max alloc" `Quick test_minimal_maximal_alloc;
          QCheck_alcotest.to_alcotest list_sched_always_valid;
        ] );
      ( "pipeline",
        [
          tc "min_ii bounds" `Quick test_min_ii_bounds;
          tc "feasible monotone" `Quick test_feasible_ii_monotone;
          tc "validates" `Quick test_feasible_ii_validates;
          tc "stage count" `Quick test_stage_count;
          QCheck_alcotest.to_alcotest pipeline_folding_respects_alloc;
        ] );
      ( "lifetime",
        [
          tc "positive" `Quick test_lifetime_positive;
          tc "pipelined needs more" `Quick test_lifetime_pipelined_needs_more;
          tc "validates" `Quick test_lifetime_validates;
        ] );
      ( "chain_sched",
        [
          tc "shortens schedules" `Quick test_chain_shortens_schedule;
          tc "budget respected" `Quick test_chain_budget_respected;
          tc "validates" `Quick test_chain_validates;
          tc "check catches violations" `Quick test_chain_check_catches_violations;
          QCheck_alcotest.to_alcotest chain_sched_valid_on_random;
        ] );
      ( "force_directed",
        [
          tc "valid schedules" `Quick test_fds_valid_schedule;
          tc "longer needs fewer units" `Quick test_fds_longer_needs_fewer_units;
          tc "rejects short length" `Quick test_fds_rejects_short_length;
          tc "within useful bound at cp" `Quick test_fds_beats_or_matches_list_at_cp;
          tc "multicycle" `Quick test_fds_multicycle;
          QCheck_alcotest.to_alcotest fds_always_valid;
        ] );
      ( "urgency",
        [
          tc "chain" `Quick test_urgency_chain;
          tc "resource serializes" `Quick test_urgency_resource_serializes;
          tc "parallel when fits" `Quick test_urgency_parallel_when_fits;
          tc "priority" `Quick test_urgency_priority_prefers_critical;
          tc "wait_of" `Quick test_urgency_wait_of;
          tc "zero duration" `Quick test_urgency_zero_duration;
          tc "rejects overdemand" `Quick test_urgency_rejects_overdemand;
          tc "rejects unknown refs" `Quick test_urgency_rejects_unknown_refs;
          tc "rejects cycle" `Quick test_urgency_rejects_cycle;
          tc "rejects duplicates" `Quick test_urgency_rejects_duplicates;
          QCheck_alcotest.to_alcotest urgency_schedule_is_consistent;
        ] );
    ]
