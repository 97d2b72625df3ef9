(* Tests for chop_util: triplets, probability, Pareto pruning, units,
   list helpers and the table renderer. *)

open Chop_util

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float name expected got =
  Alcotest.(check (float 1e-9)) name expected got

(* ------------------------------------------------------------------ *)
(* Triplet *)

let test_triplet_make () =
  let t = Triplet.make ~low:1. ~likely:2. ~high:4. in
  check_float "low" 1. t.Triplet.low;
  check_float "likely" 2. t.Triplet.likely;
  check_float "high" 4. t.Triplet.high

let test_triplet_ordering_enforced () =
  Alcotest.check_raises "unordered" (Invalid_argument "Triplet.make: unordered (3, 2, 4)")
    (fun () -> ignore (Triplet.make ~low:3. ~likely:2. ~high:4.))

let test_triplet_non_finite () =
  Alcotest.check_raises "nan" (Invalid_argument "Triplet.make: non-finite component")
    (fun () -> ignore (Triplet.make ~low:Float.nan ~likely:2. ~high:4.))

let test_triplet_exact () =
  let t = Triplet.exact 5. in
  Alcotest.(check bool) "is_exact" true (Triplet.is_exact t);
  check_float "mean" 5. (Triplet.mean t);
  check_float "variance" 0. (Triplet.variance t)

let test_triplet_spread () =
  let t = Triplet.spread 100. in
  check_float "low" 90. t.Triplet.low;
  check_float "high" 110. t.Triplet.high;
  Alcotest.check_raises "negative"
    (Invalid_argument "Triplet.spread: negative value") (fun () ->
      ignore (Triplet.spread (-1.)))

let test_triplet_add () =
  let a = Triplet.make ~low:1. ~likely:2. ~high:3. in
  let b = Triplet.make ~low:10. ~likely:20. ~high:30. in
  let s = Triplet.add a b in
  check_float "low" 11. s.Triplet.low;
  check_float "likely" 22. s.Triplet.likely;
  check_float "high" 33. s.Triplet.high

let test_triplet_sum_empty () =
  Alcotest.(check bool) "zero" true (Triplet.equal (Triplet.sum []) Triplet.zero)

let test_triplet_scale () =
  let t = Triplet.scale 2. (Triplet.make ~low:1. ~likely:2. ~high:3.) in
  check_float "high" 6. t.Triplet.high;
  Alcotest.check_raises "negative factor"
    (Invalid_argument "Triplet.scale: negative factor") (fun () ->
      ignore (Triplet.scale (-1.) Triplet.zero))

let test_triplet_max2 () =
  let a = Triplet.make ~low:1. ~likely:5. ~high:6. in
  let b = Triplet.make ~low:2. ~likely:3. ~high:9. in
  let m = Triplet.max2 a b in
  check_float "low" 2. m.Triplet.low;
  check_float "likely" 5. m.Triplet.likely;
  check_float "high" 9. m.Triplet.high

let test_triplet_mean_variance () =
  (* standard triangular on [0, 1] with mode 0.5 *)
  let t = Triplet.make ~low:0. ~likely:0.5 ~high:1. in
  check_float "mean" 0.5 (Triplet.mean t);
  check_float "variance" (1. /. 24.) (Triplet.variance t)

let test_triplet_cdf_bounds () =
  let t = Triplet.make ~low:10. ~likely:20. ~high:40. in
  check_float "below" 0. (Triplet.cdf t 9.);
  check_float "at low" 0. (Triplet.cdf t 10.);
  check_float "at high" 1. (Triplet.cdf t 40.);
  check_float "above" 1. (Triplet.cdf t 50.)

let test_triplet_cdf_mode () =
  (* P(X <= mode) = (mode-low)/(high-low) for a triangular *)
  let t = Triplet.make ~low:0. ~likely:0.25 ~high:1. in
  check_float "at mode" 0.25 (Triplet.cdf t 0.25)

let test_triplet_cdf_degenerate () =
  let t = Triplet.exact 5. in
  check_float "below" 0. (Triplet.cdf t 4.999);
  check_float "at" 1. (Triplet.cdf t 5.);
  check_float "above" 1. (Triplet.cdf t 6.)

let test_triplet_compare () =
  let a = Triplet.make ~low:1. ~likely:2. ~high:3. in
  let b = Triplet.make ~low:1. ~likely:3. ~high:3. in
  Alcotest.(check bool) "a < b" true (Triplet.compare a b < 0);
  Alcotest.(check bool) "equal" true (Triplet.equal a a)

let triplet_cdf_monotone =
  QCheck.Test.make ~name:"triplet cdf is monotone" ~count:200
    QCheck.(triple (float_bound_inclusive 100.) (float_bound_inclusive 100.)
              (pair (float_bound_inclusive 200.) (float_bound_inclusive 200.)))
    (fun (a, b, (x1, x2)) ->
      let low = Float.min a b and m = Float.max a b in
      let t = Triplet.make ~low ~likely:m ~high:(m +. 10.) in
      let lo_x = Float.min x1 x2 and hi_x = Float.max x1 x2 in
      Triplet.cdf t lo_x <= Triplet.cdf t hi_x +. 1e-12)

let triplet_sum_mean_additive =
  QCheck.Test.make ~name:"mean of sum = sum of means" ~count:200
    QCheck.(list_of_size Gen.(1 -- 8) (float_bound_inclusive 50.))
    (fun vs ->
      let ts = List.map (fun v -> Triplet.spread v) vs in
      feq ~eps:1e-6
        (Triplet.mean (Triplet.sum ts))
        (List.fold_left (fun acc t -> acc +. Triplet.mean t) 0. ts))

(* ------------------------------------------------------------------ *)
(* Prob *)

let test_normal_cdf_symmetry () =
  check_float "at mean" 0.5 (Prob.normal_cdf ~mean:0. ~std:1. 0.);
  let p = Prob.normal_cdf ~mean:0. ~std:1. 1.6449 in
  Alcotest.(check bool) "95th percentile" true (Float.abs (p -. 0.95) < 1e-3)

let test_normal_cdf_degenerate () =
  check_float "step below" 0. (Prob.normal_cdf ~mean:5. ~std:0. 4.);
  check_float "step above" 1. (Prob.normal_cdf ~mean:5. ~std:0. 5.)

let test_of_sum_empty () =
  check_float "empty vs 0" 1. (Prob.of_sum [] 0.);
  check_float "empty vs neg" 0. (Prob.of_sum [] (-1.))

let test_of_sum_singleton_exact () =
  let t = Triplet.make ~low:0. ~likely:0.5 ~high:1. in
  check_float "triangular" (Triplet.cdf t 0.25) (Prob.of_sum [ t ] 0.25)

let test_of_sum_support_clipping () =
  let parts = [ Triplet.spread 100.; Triplet.spread 200. ] in
  check_float "above joint high" 1. (Prob.of_sum parts 1000.);
  check_float "below joint low" 0. (Prob.of_sum parts 1.)

let test_of_sum_normal_middle () =
  let parts = [ Triplet.spread 100.; Triplet.spread 100. ] in
  let p = Prob.of_sum parts 200. in
  Alcotest.(check bool) "centered" true (Float.abs (p -. 0.5) < 0.01)

let test_meets () =
  let t = Triplet.make ~low:0. ~likely:50. ~high:100. in
  Alcotest.(check bool) "meets at 0.5" true (Prob.meets ~prob:0.5 t 50.);
  Alcotest.(check bool) "fails at 1.0" false (Prob.meets ~prob:1.0 t 50.);
  Alcotest.(check bool) "certain at high" true (Prob.meets ~prob:1.0 t 100.)

let test_meets_invalid_prob () =
  Alcotest.check_raises "prob > 1"
    (Invalid_argument "Prob: probability out of [0,1]") (fun () ->
      ignore (Prob.meets ~prob:1.5 Triplet.zero 0.))

(* ------------------------------------------------------------------ *)
(* Pareto *)

let test_dominates_basic () =
  Alcotest.(check bool) "strict" true (Pareto.dominates [| 1.; 1. |] [| 2.; 2. |]);
  Alcotest.(check bool) "partial" true (Pareto.dominates [| 1.; 2. |] [| 2.; 2. |]);
  Alcotest.(check bool) "equal" false (Pareto.dominates [| 2.; 2. |] [| 2.; 2. |]);
  Alcotest.(check bool) "incomparable" false
    (Pareto.dominates [| 1.; 3. |] [| 2.; 2. |])

let test_dominates_mismatch () =
  Alcotest.check_raises "length"
    (Invalid_argument "Pareto.dominates: objective length mismatch") (fun () ->
      ignore (Pareto.dominates [| 1. |] [| 1.; 2. |]))

let test_frontier_keeps_non_dominated () =
  let pts = [ (1., 3.); (2., 2.); (3., 1.); (3., 3.) ] in
  let front = Pareto.frontier ~objectives:(fun (a, b) -> [| a; b |]) pts in
  Alcotest.(check int) "three survivors" 3 (List.length front);
  Alcotest.(check bool) "dominated dropped" false (List.mem (3., 3.) front)

let test_frontier_duplicates_kept () =
  let pts = [ (1., 1.); (1., 1.) ] in
  let front = Pareto.frontier ~objectives:(fun (a, b) -> [| a; b |]) pts in
  Alcotest.(check int) "both kept" 2 (List.length front)

let test_frontier_empty () =
  Alcotest.(check int) "empty" 0
    (List.length (Pareto.frontier ~objectives:(fun x -> [| x |]) []))

let frontier_is_subset_and_undominated =
  QCheck.Test.make ~name:"frontier elements are never dominated" ~count:100
    QCheck.(list_of_size Gen.(0 -- 30) (pair (0 -- 20) (0 -- 20)))
    (fun pts ->
      let objectives (a, b) = [| float_of_int a; float_of_int b |] in
      let front = Pareto.frontier ~objectives pts in
      List.for_all
        (fun f ->
          List.mem f pts
          && not (List.exists (fun p -> Pareto.dominates (objectives p) (objectives f)) pts))
        front)

(* The quadratic definition [Pareto.frontier] replaced: a point survives
   unless some point of the input dominates it. *)
let frontier_oracle ~objectives xs =
  let vals = List.map (fun x -> (x, objectives x)) xs in
  List.filter_map
    (fun (x, v) ->
      if List.exists (fun (_, v') -> Pareto.dominates v' v) vals then None
      else Some x)
    vals

(* Vectors of one random length drawn from a few values, infinities and
   both zeros among them: duplicates and ties on every coordinate. *)
let frontier_matches_oracle =
  let value =
    QCheck.Gen.oneofl [ 0.; -0.; 1.; 2.; 2.5; 3.; infinity; neg_infinity ]
  in
  let points =
    QCheck.Gen.(
      int_range 1 4 >>= fun d ->
      list_size (int_range 0 40) (array_size (return d) value))
  in
  let print vs =
    String.concat " "
      (List.map
         (fun v ->
           "["
           ^ String.concat ";" (Array.to_list (Array.map string_of_float v))
           ^ "]")
         vs)
  in
  QCheck.Test.make ~name:"frontier equals the quadratic definition"
    ~count:500
    (QCheck.make ~print points)
    (fun vs ->
      let tagged = List.mapi (fun i v -> (i, v)) vs in
      List.map fst (Pareto.frontier ~objectives:snd tagged)
      = List.map fst (frontier_oracle ~objectives:snd tagged))

(* ------------------------------------------------------------------ *)
(* Units *)

let test_mil2_of_dims () =
  check_float "area" 6. (Units.mil2_of_dims ~width:2. ~height:3.);
  Alcotest.check_raises "negative"
    (Invalid_argument "Units.mil2_of_dims: negative") (fun () ->
      ignore (Units.mil2_of_dims ~width:(-1.) ~height:3.))

let test_ceil_div () =
  Alcotest.(check int) "exact" 2 (Units.ceil_div 4 2);
  Alcotest.(check int) "round up" 3 (Units.ceil_div 5 2);
  Alcotest.(check int) "zero" 0 (Units.ceil_div 0 7);
  Alcotest.check_raises "bad divisor"
    (Invalid_argument "Units.ceil_div: non-positive divisor") (fun () ->
      ignore (Units.ceil_div 1 0))

let test_ceil_div_ns () =
  Alcotest.(check int) "exact" 2 (Units.ceil_div_ns 600. 300.);
  Alcotest.(check int) "round up" 3 (Units.ceil_div_ns 601. 300.);
  Alcotest.(check int) "zero" 0 (Units.ceil_div_ns 0. 300.);
  Alcotest.check_raises "bad cycle"
    (Invalid_argument "Units.ceil_div_ns: non-positive cycle") (fun () ->
      ignore (Units.ceil_div_ns 1. 0.))

(* ------------------------------------------------------------------ *)
(* Listx *)

let test_cartesian () =
  Alcotest.(check (list (list int))) "empty" [ [] ] (Listx.cartesian []);
  Alcotest.(check (list (list int))) "2x2"
    [ [ 1; 3 ]; [ 1; 4 ]; [ 2; 3 ]; [ 2; 4 ] ]
    (Listx.cartesian [ [ 1; 2 ]; [ 3; 4 ] ])

let test_cartesian_count () =
  Alcotest.(check int) "count" 12 (Listx.cartesian_count [ [ 1; 2 ]; [ 1; 2; 3 ]; [ 1; 2 ] ])

let test_fold_cartesian_matches () =
  let lists = [ [ 1; 2 ]; [ 3 ]; [ 4; 5; 6 ] ] in
  let via_fold =
    List.rev (Listx.fold_cartesian (fun acc combo -> combo :: acc) [] lists)
  in
  Alcotest.(check (list (list int))) "same order" (Listx.cartesian lists) via_fold

let test_range () =
  Alcotest.(check (list int)) "normal" [ 2; 3; 4 ] (Listx.range 2 4);
  Alcotest.(check (list int)) "single" [ 7 ] (Listx.range 7 7);
  Alcotest.(check (list int)) "empty" [] (Listx.range 3 2)

let test_sums () =
  Alcotest.(check int) "sum_by" 6 (Listx.sum_by Fun.id [ 1; 2; 3 ]);
  check_float "sum_byf" 6. (Listx.sum_byf Fun.id [ 1.; 2.; 3. ]);
  check_float "max_by empty" 0. (Listx.max_by Fun.id []);
  check_float "max_by" 3. (Listx.max_by Fun.id [ 1.; 3.; 2. ])

let test_uniq_count () =
  Alcotest.(check int) "distinct" 3
    (Listx.uniq_count ~compare:Int.compare [ 1; 2; 2; 3; 3; 3 ]);
  Alcotest.(check int) "empty" 0 (Listx.uniq_count ~compare:Int.compare [])

let test_take () =
  Alcotest.(check (list int)) "prefix" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "short" [ 1 ] (Listx.take 5 [ 1 ]);
  Alcotest.(check (list int)) "negative" [] (Listx.take (-1) [ 1 ])

(* ------------------------------------------------------------------ *)
(* Gantt *)

let test_gantt_renders () =
  let bars =
    [ { Gantt.bar_label = "pu_P1"; start = 0; finish = 40 };
      { Gantt.bar_label = "dt"; start = 40; finish = 42 };
      { Gantt.bar_label = "event"; start = 10; finish = 10 } ]
  in
  let s = Gantt.render ~width:30 bars in
  let rows = String.split_on_char '\n' s in
  Alcotest.(check int) "3 bars + axis + trailing" 5 (List.length rows);
  Alcotest.(check bool) "occupied marks" true (String.contains s '#');
  Alcotest.(check bool) "event mark" true (String.contains s '|')

let test_gantt_empty_and_errors () =
  Alcotest.(check string) "placeholder" "  (no tasks)\n" (Gantt.render []);
  (match Gantt.render ~width:5 [ { Gantt.bar_label = "x"; start = 0; finish = 1 } ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "narrow width accepted");
  match Gantt.render [ { Gantt.bar_label = "x"; start = 5; finish = 1 } ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative bar accepted"

(* ------------------------------------------------------------------ *)
(* Texttable *)

let test_texttable_renders () =
  let t = Texttable.create ~title:"T" [ ("a", Texttable.Left); ("b", Texttable.Right) ] in
  Texttable.add_row t [ "x"; "1" ];
  Texttable.add_separator t;
  Texttable.add_row t [ "yy"; "22" ];
  let s = Texttable.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "has cell" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0))

(* the bottom rule closes the table: a separator after the last row adds
   nothing, one between rows stays *)
let test_texttable_trailing_separator () =
  let table ~trailing =
    let t = Texttable.create [ ("a", Texttable.Left) ] in
    Texttable.add_row t [ "x" ];
    Texttable.add_separator t;
    Texttable.add_row t [ "y" ];
    if trailing then Texttable.add_separator t;
    Texttable.render t
  in
  let rendered = table ~trailing:true in
  Alcotest.(check string) "same as without it" (table ~trailing:false)
    rendered;
  Alcotest.(check string) "one rule between the rows, one at the bottom"
    "+---+\n| a |\n+---+\n| x |\n+---+\n| y |\n+---+\n" rendered

let test_texttable_row_width_checked () =
  let t = Texttable.create [ ("a", Texttable.Left) ] in
  Alcotest.check_raises "wrong width"
    (Invalid_argument "Texttable.add_row: wrong number of cells") (fun () ->
      Texttable.add_row t [ "1"; "2" ])

let test_texttable_cells () =
  Alcotest.(check string) "int" "42" (Texttable.cell_int 42);
  Alcotest.(check string) "float" "3.14" (Texttable.cell_float ~decimals:2 3.14159)

(* ------------------------------------------------------------------ *)
(* Scatter *)

let test_scatter_empty () =
  Alcotest.(check string) "placeholder" "  (no points)\n" (Scatter.render [])

let test_scatter_renders_grid () =
  let points = [ (0., 0.); (1., 1.); (0.5, 0.5); (0.5, 0.5); (0.5, 0.5) ] in
  let s = Scatter.render ~cols:10 ~lines:5 ~x_label:"d" ~y_label:"p" points in
  let rows = String.split_on_char '\n' s in
  (* 1 header + 5 grid rows + 1 footer + trailing *)
  Alcotest.(check int) "row count" 8 (List.length rows);
  Alcotest.(check bool) "labels present" true
    (String.length (List.nth rows 0) > 0 && s.[2] = 'p')

let test_scatter_validates () =
  match Scatter.render ~cols:1 [ (0., 0.) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "1-column grid accepted"

let test_scatter_degenerate_range () =
  (* all points identical: must not divide by zero *)
  let s = Scatter.render [ (5., 5.); (5., 5.) ] in
  Alcotest.(check bool) "renders" true (String.length s > 0)

(* ------------------------------------------------------------------ *)
(* Pool *)

(* run the body against a live pool and always join its workers; the
   stress tests oversubscribe so the concurrent machinery is exercised
   even on single-core hosts *)
let with_pool ?oversubscribe ~jobs f =
  let pool = Pool.create ?oversubscribe ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_pool_map_order () =
  let xs = Listx.range 0 99 in
  let sq x = x * x in
  List.iter
    (fun jobs ->
      with_pool ~oversubscribe:true ~jobs (fun pool ->
          Alcotest.(check (list int))
            (Printf.sprintf "map_list jobs=%d" jobs)
            (List.map sq xs)
            (Pool.map_list pool sq xs)))
    [ 1; 2; 4; 8 ]

let test_pool_empty_and_singleton () =
  with_pool ~oversubscribe:true ~jobs:4 (fun pool ->
      Alcotest.(check (list int)) "empty" []
        (Pool.map_list pool (fun x -> x) []);
      Alcotest.(check (list int)) "singleton" [ 7 ]
        (Pool.map_list pool (fun x -> x + 1) [ 6 ]))

let test_pool_exception_propagates () =
  with_pool ~oversubscribe:true ~jobs:4 (fun pool ->
      match
        Pool.map_list pool
          (fun x -> if x = 3 then failwith "boom" else x)
          [ 1; 2; 3; 4 ]
      with
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg
      | _ -> Alcotest.fail "exception swallowed")

let test_pool_validates () =
  (match Pool.create ~jobs:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "jobs=0 accepted");
  with_pool ~jobs:3 (fun pool -> Alcotest.(check int) "jobs" 3 (Pool.jobs pool));
  (* the core-count clamp caps helper domains, not the reported budget,
     and a clamped pool still runs batches correctly *)
  with_pool ~jobs:64 (fun pool ->
      Alcotest.(check int) "requested jobs reported" 64 (Pool.jobs pool);
      Alcotest.(check int) "clamped pool still runs" 9
        (Pool.run pool (Array.init 10 (fun i () -> i))).(9));
  Alcotest.(check int) "sequential" 1 (Pool.jobs Pool.sequential);
  Alcotest.(check bool) "default positive" true (Pool.default_jobs () >= 1)

let test_pool_many_tiny_tasks () =
  (* 1000 near-free tasks: the chunked cursor must visit every index
     exactly once and keep results positional *)
  with_pool ~oversubscribe:true ~jobs:4 (fun pool ->
      let n = 1000 in
      let hits = Array.make n 0 in
      let tasks =
        Array.init n (fun i () ->
            hits.(i) <- hits.(i) + 1;
            i * 2)
      in
      let results, stats = Pool.run_timed pool tasks in
      Array.iteri
        (fun i r -> if r <> i * 2 then Alcotest.failf "slot %d holds %d" i r)
        results;
      Array.iteri
        (fun i h -> if h <> 1 then Alcotest.failf "task %d ran %d times" i h)
        hits;
      Alcotest.(check bool) "work was chunked" true
        (stats.Pool.chunk_count > 1);
      Alcotest.(check bool) "chunks cover the index space" true
        (stats.Pool.chunk_count <= n))

let test_pool_uneven_costs () =
  (* a few heavy tasks among many light ones: chunking must not lose or
     reorder anything when workers finish at very different times *)
  with_pool ~oversubscribe:true ~jobs:4 (fun pool ->
      let n = 200 in
      let spin_until_distinct i =
        (* burn a little real time on the heavy indices *)
        if i mod 50 = 0 then begin
          let t0 = Unix.gettimeofday () in
          while Unix.gettimeofday () -. t0 < 0.002 do
            ignore (Sys.opaque_identity (i * i))
          done
        end;
        i + 1
      in
      let tasks = Array.init n (fun i () -> spin_until_distinct i) in
      let results = Pool.run pool tasks in
      Alcotest.(check (list int)) "positional results"
        (List.init n (fun i -> i + 1))
        (Array.to_list results))

let test_pool_exception_mid_batch_drains () =
  (* a failure must not kill workers or strand tasks: the whole batch
     drains, the first failing index's exception is re-raised, and the
     pool stays usable *)
  with_pool ~oversubscribe:true ~jobs:4 (fun pool ->
      let n = 300 in
      let ran = Array.make n false in
      let tasks =
        Array.init n (fun i () ->
            ran.(i) <- true;
            if i mod 97 = 5 then failwith (Printf.sprintf "task-%d" i);
            i)
      in
      (match Pool.run pool tasks with
      | exception Failure msg ->
          (* index 5 is the first failure in index order *)
          Alcotest.(check string) "first error by index" "task-5" msg
      | _ -> Alcotest.fail "exception swallowed");
      Alcotest.(check bool) "every task still ran" true
        (Array.for_all Fun.id ran);
      (* the same pool accepts further batches *)
      let again = Pool.run pool (Array.init 50 (fun i () -> i)) in
      Alcotest.(check int) "pool reusable after failure" 49 again.(49))

let test_pool_reuse_many_runs () =
  with_pool ~oversubscribe:true ~jobs:3 (fun pool ->
      for round = 1 to 50 do
        let results = Pool.run pool (Array.init 40 (fun i () -> i * round)) in
        Alcotest.(check int)
          (Printf.sprintf "round %d" round)
          (39 * round) results.(39)
      done)

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~oversubscribe:true ~jobs:4 () in
  let r = Pool.run pool (Array.init 10 (fun i () -> i)) in
  Alcotest.(check int) "ran before shutdown" 9 r.(9);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* a parallel batch on a shut-down pool must be refused... *)
  (match Pool.run pool (Array.init 10 (fun i () -> i)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "run on a shut-down pool succeeded");
  (* ...and shutting down the sequential pool is a no-op *)
  Pool.shutdown Pool.sequential;
  Alcotest.(check int) "sequential survives shutdown" 3
    (Pool.run Pool.sequential [| (fun () -> 3) |]).(0)

let test_pool_run_timed_stats () =
  with_pool ~oversubscribe:true ~jobs:2 (fun pool ->
      (* 64 tasks make 16 chunks.  Each task first waits until tasks have
         started on two domains, so neither participant can take every
         chunk, and then until the clock ticks, so each participant's busy
         time is measurable on the clock that times it. *)
      let first = Atomic.make (-1) and both = Atomic.make false in
      let deadline = Unix.gettimeofday () +. 10. in
      let task i () =
        let self = (Domain.self () :> int) in
        if not (Atomic.compare_and_set first (-1) self || Atomic.get first = self)
        then Atomic.set both true;
        while not (Atomic.get both) do
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "no task started on a second domain within 10 s";
          Unix.sleepf 1e-4
        done;
        let t = Unix.gettimeofday () in
        while Unix.gettimeofday () = t do
          Domain.cpu_relax ()
        done;
        i
      in
      let _, stats = Pool.run_timed pool (Array.init 64 task) in
      Alcotest.(check int) "one busy slot per participant" 2
        (Array.length stats.Pool.worker_busy);
      Alcotest.(check bool) "busy times are non-negative" true
        (Array.for_all (fun s -> s >= 0.) stats.Pool.worker_busy);
      Alcotest.(check bool) "caller participated" true
        (stats.Pool.worker_busy.(0) > 0.);
      Alcotest.(check bool) "helper participated" true
        (stats.Pool.worker_busy.(1) > 0.));
  (* inline path: one participant, zero or one chunk *)
  let _, empty_stats = Pool.run_timed Pool.sequential [||] in
  Alcotest.(check int) "empty batch has no chunks" 0
    empty_stats.Pool.chunk_count;
  let _, seq_stats = Pool.run_timed Pool.sequential [| (fun () -> ()) |] in
  Alcotest.(check int) "sequential run is one chunk" 1
    seq_stats.Pool.chunk_count

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "chop_util"
    [
      ( "triplet",
        [
          tc "make" `Quick test_triplet_make;
          tc "ordering enforced" `Quick test_triplet_ordering_enforced;
          tc "non-finite rejected" `Quick test_triplet_non_finite;
          tc "exact" `Quick test_triplet_exact;
          tc "spread" `Quick test_triplet_spread;
          tc "add" `Quick test_triplet_add;
          tc "sum empty" `Quick test_triplet_sum_empty;
          tc "scale" `Quick test_triplet_scale;
          tc "max2" `Quick test_triplet_max2;
          tc "mean/variance" `Quick test_triplet_mean_variance;
          tc "cdf bounds" `Quick test_triplet_cdf_bounds;
          tc "cdf mode" `Quick test_triplet_cdf_mode;
          tc "cdf degenerate" `Quick test_triplet_cdf_degenerate;
          tc "compare" `Quick test_triplet_compare;
          QCheck_alcotest.to_alcotest triplet_cdf_monotone;
          QCheck_alcotest.to_alcotest triplet_sum_mean_additive;
        ] );
      ( "prob",
        [
          tc "normal cdf symmetry" `Quick test_normal_cdf_symmetry;
          tc "normal cdf degenerate" `Quick test_normal_cdf_degenerate;
          tc "of_sum empty" `Quick test_of_sum_empty;
          tc "of_sum singleton exact" `Quick test_of_sum_singleton_exact;
          tc "of_sum clipping" `Quick test_of_sum_support_clipping;
          tc "of_sum normal middle" `Quick test_of_sum_normal_middle;
          tc "meets" `Quick test_meets;
          tc "meets invalid prob" `Quick test_meets_invalid_prob;
        ] );
      ( "pareto",
        [
          tc "dominates" `Quick test_dominates_basic;
          tc "dominates mismatch" `Quick test_dominates_mismatch;
          tc "frontier" `Quick test_frontier_keeps_non_dominated;
          tc "frontier duplicates" `Quick test_frontier_duplicates_kept;
          tc "frontier empty" `Quick test_frontier_empty;
          QCheck_alcotest.to_alcotest frontier_is_subset_and_undominated;
          QCheck_alcotest.to_alcotest frontier_matches_oracle;
        ] );
      ( "units",
        [
          tc "mil2_of_dims" `Quick test_mil2_of_dims;
          tc "ceil_div" `Quick test_ceil_div;
          tc "ceil_div_ns" `Quick test_ceil_div_ns;
        ] );
      ( "listx",
        [
          tc "cartesian" `Quick test_cartesian;
          tc "cartesian_count" `Quick test_cartesian_count;
          tc "fold_cartesian" `Quick test_fold_cartesian_matches;
          tc "range" `Quick test_range;
          tc "sums" `Quick test_sums;
          tc "uniq_count" `Quick test_uniq_count;
          tc "take" `Quick test_take;
        ] );
      ( "pool",
        [
          tc "deterministic order" `Quick test_pool_map_order;
          tc "empty + singleton" `Quick test_pool_empty_and_singleton;
          tc "exception propagates" `Quick test_pool_exception_propagates;
          tc "validates" `Quick test_pool_validates;
          tc "1000 tiny tasks" `Quick test_pool_many_tiny_tasks;
          tc "uneven task costs" `Quick test_pool_uneven_costs;
          tc "exception mid-batch drains" `Quick
            test_pool_exception_mid_batch_drains;
          tc "reuse across many runs" `Quick test_pool_reuse_many_runs;
          tc "shutdown idempotent" `Quick test_pool_shutdown_idempotent;
          tc "run_timed stats" `Quick test_pool_run_timed_stats;
        ] );
      ( "scatter",
        [
          tc "empty" `Quick test_scatter_empty;
          tc "grid" `Quick test_scatter_renders_grid;
          tc "validates" `Quick test_scatter_validates;
          tc "degenerate range" `Quick test_scatter_degenerate_range;
        ] );
      ( "gantt",
        [
          tc "renders" `Quick test_gantt_renders;
          tc "empty + errors" `Quick test_gantt_empty_and_errors;
        ] );
      ( "texttable",
        [
          tc "renders" `Quick test_texttable_renders;
          tc "trailing separator" `Quick test_texttable_trailing_separator;
          tc "row width checked" `Quick test_texttable_row_width_checked;
          tc "cells" `Quick test_texttable_cells;
        ] );
    ]
