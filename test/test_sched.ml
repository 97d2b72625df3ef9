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

(* The list-based urgency scheduler as it was before [Urgency] split into
   a prepared part and an array schedule: the oracle the new [run] and
   [schedule] must reproduce placed list for placed list, wait for wait
   and exception for exception. *)
module Reference_urgency = struct
  open Urgency

  let fail fmt = Printf.ksprintf (fun s -> raise (Unschedulable s)) fmt

  let validate ~resources tasks =
    let names = List.map (fun t -> t.tname) tasks in
    if List.length (List.sort_uniq String.compare names) <> List.length names
    then invalid_arg "Urgency.run: duplicate task name";
    let rnames = List.map (fun r -> r.rname) resources in
    if List.length (List.sort_uniq String.compare rnames) <> List.length rnames
    then invalid_arg "Urgency.run: duplicate resource name";
    List.iter
      (fun t ->
        if t.duration < 0 then invalid_arg "Urgency.run: negative duration";
        List.iter
          (fun (r, units) ->
            if units < 0 then invalid_arg "Urgency.run: negative demand";
            match List.find_opt (fun res -> res.rname = r) resources with
            | None -> fail "task %s demands unknown resource %s" t.tname r
            | Some res ->
                if units > res.capacity then
                  fail "task %s demands %d of %s (capacity %d)" t.tname units r
                    res.capacity)
          t.demands;
        List.iter
          (fun d ->
            if not (List.mem d names) then
              fail "task %s depends on unknown task %s" t.tname d)
          t.deps)
      tasks

  let urgencies tasks =
    let tbl = Hashtbl.create 16 in
    let by_name = Hashtbl.create 16 in
    List.iter (fun t -> Hashtbl.replace by_name t.tname t) tasks;
    let succs = Hashtbl.create 16 in
    List.iter
      (fun t ->
        List.iter
          (fun d ->
            Hashtbl.replace succs d
              (t.tname :: Option.value ~default:[] (Hashtbl.find_opt succs d)))
          t.deps)
      tasks;
    let visiting = Hashtbl.create 16 in
    let rec urgency name =
      match Hashtbl.find_opt tbl name with
      | Some u -> u
      | None ->
          if Hashtbl.mem visiting name then
            fail "cyclic task dependencies at %s" name;
          Hashtbl.replace visiting name ();
          let t = Hashtbl.find by_name name in
          let downstream =
            List.fold_left
              (fun acc s -> max acc (urgency s))
              0
              (Option.value ~default:[] (Hashtbl.find_opt succs name))
          in
          Hashtbl.remove visiting name;
          let u = t.duration + downstream in
          Hashtbl.replace tbl name u;
          u
    in
    List.iter (fun t -> ignore (urgency t.tname)) tasks;
    tbl

  let run ~resources tasks =
    validate ~resources tasks;
    let urg = urgencies tasks in
    let finished = Hashtbl.create 16 in
    let placed = ref [] in
    let held = Hashtbl.create 8 in
    List.iter (fun r -> Hashtbl.replace held r.rname []) resources;
    let capacity r =
      (List.find (fun res -> res.rname = r) resources).capacity
    in
    let in_use r step =
      List.fold_left
        (fun acc (f, units) -> if f > step then acc + units else acc)
        0 (Hashtbl.find held r)
    in
    let remaining = ref tasks in
    let step = ref 0 in
    let guard = ref 0 in
    while !remaining <> [] do
      incr guard;
      if !guard > 2_000_000 then fail "no progress (internal)";
      let ready, blocked =
        List.partition
          (fun t ->
            List.for_all
              (fun d ->
                match Hashtbl.find_opt finished d with
                | Some f -> f <= !step
                | None -> false)
              t.deps)
          !remaining
      in
      let ready =
        List.sort
          (fun a b ->
            Int.compare (Hashtbl.find urg b.tname) (Hashtbl.find urg a.tname))
          ready
      in
      let still_waiting = ref [] in
      List.iter
        (fun t ->
          let fits =
            List.for_all
              (fun (r, units) -> in_use r !step + units <= capacity r)
              t.demands
          in
          if fits then begin
            List.iter
              (fun (r, units) ->
                Hashtbl.replace held r
                  ((!step + t.duration, units) :: Hashtbl.find held r))
              t.demands;
            let ready_at =
              List.fold_left
                (fun acc d -> max acc (Hashtbl.find finished d))
                0 t.deps
            in
            Hashtbl.replace finished t.tname (!step + t.duration);
            placed :=
              { task = t; ready = ready_at; start_step = !step;
                finish_step = !step + t.duration }
              :: !placed
          end
          else still_waiting := t :: !still_waiting)
        ready;
      remaining := List.rev_append !still_waiting blocked;
      if !remaining <> [] then begin
        let next =
          Hashtbl.fold
            (fun _ holds acc ->
              List.fold_left
                (fun acc (f, _) -> if f > !step then min acc f else acc)
                acc holds)
            held max_int
        in
        let next =
          Hashtbl.fold
            (fun _ f acc -> if f > !step then min acc f else acc)
            finished next
        in
        if next = max_int then incr step else step := next
      end
    done;
    let placed = List.rev !placed in
    let makespan =
      List.fold_left (fun acc p -> max acc p.finish_step) 0 placed
    in
    { placed; makespan }
end

(* Random task sets for the oracle: zero durations, random dependency
   DAGs and capacities from 0, plus faults, each drawn for one case in
   eight and placed at random: a duplicate task or resource name, a
   negative duration or demand, a demand on an unknown resource or over
   capacity, a dependency on an unknown task, and a cycle. *)
let random_urgency_case rng =
  let int = Random.State.int rng in
  let fault () = int 8 = 0 in
  let nres = int 4 in
  let capacity = Array.init nres (fun _ -> int 5) in
  let rnames = Array.init nres (Printf.sprintf "r%d") in
  if nres > 1 && fault () then rnames.(1 + int (nres - 1)) <- "r0";
  let n = int 11 in
  let names = Array.init n (Printf.sprintf "t%d") in
  if n > 1 && fault () then names.(1 + int (n - 1)) <- names.(0);
  let durations = Array.init n (fun _ -> max 0 (int 6 - 1)) in
  let deps =
    Array.init n (fun i ->
        List.filter (fun _ -> int 3 = 0) (List.init i Fun.id))
  in
  let demands =
    Array.init n (fun _ ->
        if nres = 0 then []
        else
          List.init (int 3) (fun _ ->
              let r = int nres in
              (r, int (capacity.(r) + 1))))
  in
  let demand_names =
    Array.map (List.map (fun (r, u) -> (rnames.(r), u))) demands
  in
  let at () = int n in
  if n > 0 then begin
    if fault () then durations.(at ()) <- -1;
    if fault () then begin
      let i = at () in
      demand_names.(i) <- demand_names.(i) @ [ ("r0", -1) ]
    end;
    if fault () then begin
      let i = at () in
      demand_names.(i) <- ("r9", 1) :: demand_names.(i)
    end;
    if nres > 0 && fault () then begin
      let i = at () and r = int nres in
      demand_names.(i) <- demand_names.(i) @ [ (rnames.(r), capacity.(r) + 1) ]
    end;
    if fault () then begin
      let i = at () in
      deps.(i) <- deps.(i) @ [ -1 ]
    end;
    if fault () then begin
      (* i and j depend on each other: a cycle, a self-loop when i = j *)
      let i = at () and j = at () in
      deps.(i) <- j :: deps.(i);
      deps.(j) <- deps.(j) @ [ i ]
    end
  end;
  let resources =
    List.init nres (fun r ->
        { Urgency.rname = rnames.(r); capacity = capacity.(r) })
  in
  let tasks =
    List.init n (fun i ->
        { Urgency.tname = names.(i);
          duration = durations.(i);
          demands = demand_names.(i);
          deps =
            List.map (fun j -> if j < 0 then "ghost" else names.(j)) deps.(i) })
  in
  (resources, tasks)

let urgency_outcome f =
  match f () with
  | v -> Ok v
  | exception (Urgency.Unschedulable _ as e) -> Error e
  | exception (Invalid_argument _ as e) -> Error e

let urgency_matches_reference =
  QCheck.Test.make ~name:"run and schedule reproduce the list-based scheduler"
    ~count:2000 QCheck.(0 -- 1_000_000)
    (fun seed ->
      let resources, tasks =
        random_urgency_case (Random.State.make [| seed |])
      in
      let expected =
        urgency_outcome (fun () -> Reference_urgency.run ~resources tasks)
      in
      let waits r =
        List.map (fun t -> Urgency.wait_of r t.Urgency.tname) tasks
      in
      let same got =
        match (expected, got) with
        | Ok e, Ok (g, gw) -> e = g && waits e = gw
        | Error e, Error g -> e = g
        | Ok _, Error _ | Error _, Ok _ -> false
      in
      let by_run =
        urgency_outcome (fun () ->
            let r = Urgency.run ~resources tasks in
            (r, waits r))
      in
      (* the index path, wherever every demand names a resource, prepared
         from tasks whose durations and demands differ at random: only
         the values a schedule is given may count *)
      let rng = Random.State.make [| seed; 1 |] in
      let skeleton =
        List.map
          (fun t ->
            match Random.State.int rng 3 with
            | 0 -> t
            | 1 -> { t with Urgency.duration = 0; demands = [] }
            | _ -> { t with Urgency.duration = t.Urgency.duration + 1 })
          tasks
      in
      let p = Urgency.prepare ~resources skeleton in
      let by_index =
        match
          List.map
            (fun t ->
              List.map
                (fun (r, u) -> (Urgency.resource_index p r, u))
                t.Urgency.demands)
            tasks
        with
        | exception Not_found -> None
        | demands ->
            Some
              (urgency_outcome (fun () ->
                   let r, w =
                     Urgency.schedule p
                       ~durations:
                         (Array.of_list
                            (List.map (fun t -> t.Urgency.duration) tasks))
                       ~demands:(Array.of_list demands)
                   in
                   (r, Array.to_list w)))
      in
      same by_run && Option.fold ~none:true ~some:same by_index)

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
          QCheck_alcotest.to_alcotest urgency_matches_reference;
        ] );
    ]
