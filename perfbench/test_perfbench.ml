(* Tests of the benchmark's own pieces: the tail rule, the seeded
   generators, the span bookkeeping and the result line. *)

let check_float msg a b = Alcotest.(check (float 1e-9)) msg a b

(* ---- tail percentile ---- *)

let test_tail () =
  let expect n q beyond =
    let samples = Array.init n (fun i -> float_of_int (n - i)) in
    let q', v, b = Stats.tail samples in
    check_float (Printf.sprintf "n=%d percentile" n) q q';
    Alcotest.(check int) (Printf.sprintf "n=%d beyond" n) beyond b;
    check_float (Printf.sprintf "n=%d value" n)
      (if q = 50. then Stats.median samples else float_of_int (Stats.rank ~n q)) v
  in
  (* fewer than 20 samples: no percentile has 10 beyond, the median stands *)
  expect 5 50. 2;
  expect 19 50. 9;
  expect 20 50. 10;
  expect 24 50. 12;
  expect 39 50. 19;
  (* p75 from 40 samples: auto-cold's phases of 42 or more report it *)
  expect 40 75. 10;
  expect 42 75. 10;
  expect 49 75. 12;
  expect 56 75. 14;
  expect 99 75. 24;
  expect 100 90. 10;
  expect 199 90. 19;
  expect 200 95. 10;
  expect 500 98. 10;
  expect 999 98. 19;
  (* p99 from 1000 samples: explore-gateway's 2000-4000 report it *)
  expect 1000 99. 10;
  expect 2000 99. 20;
  expect 10000 99. 100;
  check_float "median of even count" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |])

(* Throughput and p50 per group: a group's time starts at the previous
   group's last completion, and ops in no group are left out. *)
let test_by_group () =
  let s = 1_000_000_000 in
  let at x = Int64.of_int (x * s / 2) in
  let ops =
    [ (0, at 1, 4.); (0, at 2, 2.); (1, at 4, 1.); (1, at 5, 3.); (1, at 3, 2.); (-1, at 18, 100.) ]
  in
  match Stats.by_group ~start_ns:0L ops with
  | [ (r0, m0); (r1, m1) ] ->
      check_float "first group's rate" 2. r0;
      check_float "first group's median" 3. m0;
      check_float "second group's rate" 2. r1;
      check_float "second group's median" 2. m1
  | l -> Alcotest.failf "%d groups" (List.length l)

(* ---- generators ---- *)

let walk_lines ~seed ~stream n =
  let p = Gen.session_params.(stream) in
  let spec = Result.get_ok (Chop_server.Ops.spec_of_params p) in
  let w = Gen.walk ~seed ~stream spec in
  List.init n (fun _ ->
      match Gen.next w with
      | Gen.Edit { line; _ } -> line
      | Gen.Undo _ -> "undo"
      | Gen.Redo _ -> "redo"
      | Gen.Run -> "run")

let test_auto_rounds () =
  let rounds seed = List.init 6 (Gen.auto_round ~seed) in
  Alcotest.(check bool) "same seed, same ops" true (rounds 4 = rounds 4);
  Alcotest.(check bool) "other seed, other order" true (rounds 4 <> rounds 5);
  (* every round runs each row once, under the fixed tie-break seed *)
  let all = List.init (Array.length Gen.auto_rows) (fun i -> (i, Gen.tie_seed)) in
  List.iter
    (fun r ->
      Alcotest.(check bool) "a round covers every row once" true
        (List.sort compare r = all))
    (rounds 9)

let test_walk_determinism () =
  Alcotest.(check (list string)) "same seed, same walk"
    (walk_lines ~seed:7 ~stream:0 300) (walk_lines ~seed:7 ~stream:0 300);
  Alcotest.(check bool) "other seed, other walk" true
    (walk_lines ~seed:7 ~stream:0 300 <> walk_lines ~seed:8 ~stream:0 300)

(* Replays the walk on an independent replica of the server's session
   semantics: every edit must apply, every undo/redo must have a step to
   take, the replica must agree with the walk's dirty sets, and the
   partition count stays within 2-4. *)
let test_walk_valid () =
  List.iter
    (fun stream ->
      let p = Gen.session_params.(stream) in
      let spec = Result.get_ok (Chop_server.Ops.spec_of_params p) in
      let w = Gen.walk ~seed:11 ~stream spec in
      let cur = ref spec and undo = ref [] and redo = ref [] and returns = ref 0 in
      for _ = 1 to 1500 do
        (match Gen.next w with
        | Gen.Edit { line; dirty } -> (
            match Chop_server.Ops.parse_edit !cur line with
            | Error m -> Alcotest.failf "unparsable edit %s: %s" line m
            | Ok e -> (
                match Chop.Spec.update !cur [ e ] with
                | Error _ -> Alcotest.failf "rejected edit %s" line
                | Ok (s', d) ->
                    Alcotest.(check bool) ("dirty set of " ^ line) true (d = dirty);
                    undo := List.filteri (fun i _ -> i < Gen.history) (!cur :: !undo);
                    redo := [];
                    cur := s'))
        | Gen.Undo d -> (
            match !undo with
            | [] -> Alcotest.fail "undo with nothing to undo"
            | prev :: rest ->
                Alcotest.(check bool) "undo dirty set" true
                  (d = Chop.Spec.diff ~current:!cur ~target:prev);
                undo := rest;
                redo := !cur :: !redo;
                cur := prev)
        | Gen.Redo d -> (
            match !redo with
            | [] -> Alcotest.fail "redo with nothing to redo"
            | next :: rest ->
                Alcotest.(check bool) "redo dirty set" true
                  (d = Chop.Spec.diff ~current:!cur ~target:next);
                redo := rest;
                undo := !cur :: !undo;
                cur := next)
        | Gen.Run -> ());
        let k = List.length (Gen.parts !cur) in
        if k < Gen.min_parts || k > Gen.max_parts then
          Alcotest.failf "%d partitions" k;
        if !undo = [] && !cur == spec then incr returns
      done;
      (* episodes unwind to the opening spec *)
      Alcotest.(check bool) "walk returns to the opening spec" true (!returns > 20))
    [ 0; 1 ]

let test_dealer () =
  let deal seed = let d = Gen.dealer ~seed ~stream:0 in List.init 500 (fun _ -> Gen.deal d) in
  Alcotest.(check (list int)) "same seed, same requests" (deal 3) (deal 3);
  Alcotest.(check bool) "other seed, other requests" true (deal 3 <> deal 4);
  (* a full deck has exactly the target popularity *)
  let d = Gen.dealer ~seed:5 ~stream:1 in
  let n = Array.length Gen.deck_base in
  let counts = Array.make (Array.length Gen.gateway_keys) 0 in
  for _ = 1 to n do
    let k = Gen.deal d in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check (array int)) "deck mix" Gen.deck_weights counts

(* ---- spans ---- *)

let span ?(parent = -1) id a b =
  { Trace.id; parent; op = 0; tid = 0; name = "s"; start_ns = Int64.of_int a;
    stop_ns = Int64.of_int b }

let test_self_time () =
  let root = span 0 0 100 in
  check_float "no children" 100. (Trace.self_ns root []);
  check_float "disjoint children" 60.
    (Trace.self_ns root [ span ~parent:0 1 10 20; span ~parent:0 2 50 80 ]);
  check_float "overlapping children count once" 70.
    (Trace.self_ns root [ span ~parent:0 1 10 30; span ~parent:0 2 20 40 ]);
  check_float "children spilling out are clipped" 0.
    (Trace.self_ns root [ span ~parent:0 1 (-50) 60; span ~parent:0 2 60 150 ]);
  (* an op's root span over its children: unattributed time is the part
     of the turn no child covers, and never negative *)
  let b = Trace.buffer ~enabled:true ~tid:0 in
  Trace.op_span b ~op:0 (fun root ->
      ignore (Trace.add b ~op:0 ~parent:root "a" (Clock.now_ns ()) (Clock.now_ns ()));
      (* a child reported past its parent's end is clipped, not negative *)
      ignore (Trace.add b ~op:0 ~parent:root "b" (Clock.now_ns ()) Int64.max_int));
  let all = Trace.spans [ b ] in
  let kids = Trace.children_of all in
  let root = List.find (fun s -> s.Trace.name = "op") all in
  Alcotest.(check int) "two children under the root" 2 (List.length (kids root));
  List.iter
    (fun s -> Alcotest.(check bool) "self >= 0" true (Trace.self_ns s (kids s) >= 0.))
    all;
  Alcotest.(check bool) "unattributed >= 0" true (Trace.mean_self_ms all ~ops:1 "op" >= 0.);
  let b = Trace.buffer ~enabled:true ~tid:0 in
  let r = Trace.add b ~op:0 ~parent:(-1) "op" 0L 100L in
  ignore (Trace.add b ~op:0 ~parent:r "x" 10L 40L);
  check_float "unattributed is the uncovered part" 70e-6
    (Trace.mean_self_ms (Trace.spans [ b ]) ~ops:1 "op");
  let b = Trace.buffer ~enabled:false ~tid:0 in
  Alcotest.(check int) "tracing off records nothing" (-1) (Trace.add b ~op:0 ~parent:(-1) "op" 0L 1L)

(* ---- the result line ---- *)

let values contract = List.mapi (fun i (n, _) -> (n, 0.1 +. float_of_int i)) contract

let test_result_line () =
  List.iter
    (fun contract ->
      let line =
        Output.result_line ~contract ~correct:true ~attempted:12 ~failed:0 (values contract)
      in
      match Output.check_line ~contract line with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" m line)
    [ Output.end_to_end; Output.per_layer ];
  Alcotest.check_raises "a missing metric is an error"
    (Invalid_argument "Output.result_line: missing metric peak_rss_mb") (fun () ->
      ignore
        (Output.result_line ~contract:Output.end_to_end ~correct:true ~attempted:1
           ~failed:0 (List.tl (List.rev (values Output.end_to_end)))));
  List.iter
    (fun f -> check_float "number round-trips" f (float_of_string (Output.number f)))
    [ 0.1; 1.2034; 590.1234567; 1e-7; 12345678.9; 3. ]

(* BENCHMARK.json declares the same metrics, with the same units. *)
let test_contract_file () =
  let module J = Chop_util.Json in
  let ic = open_in_bin "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let json = J.parse_exn text in
  let metrics key =
    match J.member key json with
    | Some (J.Array l) ->
        List.map
          (fun m ->
            ( Option.get (Option.bind (J.member "name" m) J.to_string_opt),
              Option.get (Option.bind (J.member "unit" m) J.to_string_opt) ))
          l
    | _ -> Alcotest.failf "BENCHMARK.json has no %s" key
  in
  Alcotest.(check (list (pair string string))) "end_to_end" Output.end_to_end (metrics "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Output.per_layer (metrics "per_layer")

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail rule" `Quick test_tail;
          Alcotest.test_case "groups" `Quick test_by_group;
        ] );
      ( "generators",
        [
          Alcotest.test_case "auto rounds" `Quick test_auto_rounds;
          Alcotest.test_case "walk determinism" `Quick test_walk_determinism;
          Alcotest.test_case "walk validity" `Quick test_walk_valid;
          Alcotest.test_case "gateway dealer" `Quick test_dealer;
        ] );
      ("trace", [ Alcotest.test_case "self time" `Quick test_self_time ]);
      ( "output",
        [
          Alcotest.test_case "result line" `Quick test_result_line;
          Alcotest.test_case "BENCHMARK.json" `Quick test_contract_file;
        ] );
    ]
