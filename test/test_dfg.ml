(* Tests for chop_dfg: operations, graph construction/validation, analyses,
   transformations, benchmark graphs and partitions. *)

open Chop_dfg

(* small helper: a diamond graph  in -> a;  a -> m1, m2;  m1,m2 -> s; s -> out *)
let diamond () =
  let b = Graph.builder ~name:"diamond" () in
  let i = Graph.add_node b ~name:"i" ~op:Op.Input ~width:16 in
  let c = Graph.add_node b ~name:"c" ~op:Op.Const ~width:16 in
  let m1 = Graph.add_node b ~name:"m1" ~op:Op.Mult ~width:16 in
  let m2 = Graph.add_node b ~name:"m2" ~op:Op.Mult ~width:16 in
  let s = Graph.add_node b ~name:"s" ~op:Op.Add ~width:16 in
  let o = Graph.add_node b ~name:"o" ~op:Op.Output ~width:16 in
  Graph.add_edge b ~src:i ~dst:m1;
  Graph.add_edge b ~src:c ~dst:m1;
  Graph.add_edge b ~src:i ~dst:m2;
  Graph.add_edge b ~src:c ~dst:m2;
  Graph.add_edge b ~src:m1 ~dst:s;
  Graph.add_edge b ~src:m2 ~dst:s;
  Graph.add_edge b ~src:s ~dst:o;
  (Graph.build b, i, m1, m2, s)

(* ------------------------------------------------------------------ *)
(* Op *)

let test_op_arity () =
  Alcotest.(check (pair int int)) "input" (0, 0) (Op.arity Op.Input);
  Alcotest.(check (pair int int)) "add" (2, 2) (Op.arity Op.Add);
  Alcotest.(check (pair int int)) "select" (3, 3) (Op.arity Op.Select);
  Alcotest.(check (pair int int)) "mem read" (0, 1) (Op.arity (Op.Mem_read "m"))

let test_op_classes () =
  Alcotest.(check string) "add class" "add" (Op.functional_class Op.Add);
  Alcotest.(check string) "sub shares add" "add" (Op.functional_class Op.Sub);
  Alcotest.(check string) "compare shares add" "add" (Op.functional_class Op.Compare);
  Alcotest.(check string) "mult" "mult" (Op.functional_class Op.Mult);
  Alcotest.(check string) "memport per block" "memport:m"
    (Op.functional_class (Op.Mem_write "m"))

let test_op_class_rejects_boundary () =
  Alcotest.check_raises "input"
    (Invalid_argument "Op.functional_class: Input is not computational")
    (fun () -> ignore (Op.functional_class Op.Input))

let test_op_memory () =
  Alcotest.(check bool) "read is memory" true (Op.is_memory (Op.Mem_read "a"));
  Alcotest.(check bool) "add is not" false (Op.is_memory Op.Add);
  Alcotest.(check (option string)) "block" (Some "a") (Op.memory_block (Op.Mem_read "a"));
  Alcotest.(check (option string)) "no block" None (Op.memory_block Op.Add)

let test_op_computational () =
  Alcotest.(check bool) "const" false (Op.is_computational Op.Const);
  Alcotest.(check bool) "select" true (Op.is_computational Op.Select)

(* ------------------------------------------------------------------ *)
(* Graph *)

let test_graph_build_diamond () =
  let g, _, _, _, _ = diamond () in
  Alcotest.(check int) "size" 6 (Graph.size g);
  Alcotest.(check int) "ops" 3 (Graph.op_count g);
  Alcotest.(check (list (pair string int))) "profile"
    [ ("add", 1); ("mult", 2) ] (Graph.op_profile g)

let test_graph_rejects_cycle () =
  let b = Graph.builder () in
  let a1 = Graph.add_node b ~op:Op.Add ~width:8 in
  let a2 = Graph.add_node b ~op:Op.Add ~width:8 in
  Graph.add_edge b ~src:a1 ~dst:a2;
  Graph.add_edge b ~src:a2 ~dst:a1;
  Graph.add_edge b ~src:a1 ~dst:a2;
  Graph.add_edge b ~src:a2 ~dst:a1;
  (match Graph.build b with
  | exception Graph.Invalid_graph _ -> ()
  | _ -> Alcotest.fail "cycle accepted")

let test_graph_rejects_bad_arity () =
  let b = Graph.builder () in
  let i = Graph.add_node b ~op:Op.Input ~width:8 in
  let a = Graph.add_node b ~op:Op.Add ~width:8 in
  Graph.add_edge b ~src:i ~dst:a;
  (* Add needs exactly 2 inputs; give it 1 *)
  (match Graph.build b with
  | exception Graph.Invalid_graph _ -> ()
  | _ -> Alcotest.fail "bad arity accepted")

let test_graph_rejects_input_with_preds () =
  let b = Graph.builder () in
  let i1 = Graph.add_node b ~op:Op.Input ~width:8 in
  let i2 = Graph.add_node b ~op:Op.Input ~width:8 in
  Graph.add_edge b ~src:i1 ~dst:i2;
  (match Graph.build b with
  | exception Graph.Invalid_graph _ -> ()
  | _ -> Alcotest.fail "input with predecessor accepted")

let test_graph_rejects_bad_width () =
  let b = Graph.builder () in
  Alcotest.check_raises "width"
    (Invalid_argument "Graph.add_node: width must be positive") (fun () ->
      ignore (Graph.add_node b ~op:Op.Input ~width:0))

let test_graph_rejects_unknown_edge () =
  let b = Graph.builder () in
  let i = Graph.add_node b ~op:Op.Input ~width:8 in
  Alcotest.check_raises "edge" (Invalid_argument "Graph.add_edge: unknown node")
    (fun () -> Graph.add_edge b ~src:i ~dst:99)

let test_graph_duplicate_edges_allowed () =
  (* squaring: both operands of a mult come from the same value *)
  let b = Graph.builder () in
  let i = Graph.add_node b ~op:Op.Input ~width:8 in
  let m = Graph.add_node b ~op:Op.Mult ~width:8 in
  Graph.add_edge b ~src:i ~dst:m;
  Graph.add_edge b ~src:i ~dst:m;
  let g = Graph.build b in
  Alcotest.(check int) "two preds" 2 (List.length (Graph.preds g m))

let test_graph_succs_preds () =
  let g, i, m1, m2, s = diamond () in
  Alcotest.(check (list int)) "i succs" [ m1; m2 ] (List.sort Int.compare (Graph.succs g i));
  Alcotest.(check (list int)) "s preds" [ m1; m2 ] (List.sort Int.compare (Graph.preds g s))

let test_graph_io_bits () =
  let g, _, _, _, _ = diamond () in
  Alcotest.(check int) "in" 16 (Graph.total_input_bits g);
  Alcotest.(check int) "out" 16 (Graph.total_output_bits g)

let test_graph_node_lookup () =
  let g, i, _, _, _ = diamond () in
  Alcotest.(check string) "name" "i" (Graph.node g i).Graph.name;
  Alcotest.(check bool) "mem" true (Graph.mem g i);
  Alcotest.(check bool) "not mem" false (Graph.mem g 999);
  Alcotest.check_raises "missing" Not_found (fun () -> ignore (Graph.node g 999))

let test_graph_memory_blocks () =
  let g = Benchmarks.memory_pipeline ~blocks:("A", "B") () in
  Alcotest.(check (list string)) "blocks" [ "A"; "B" ] (Graph.memory_blocks g)

let test_induced_basic () =
  let g, _, m1, m2, s = diamond () in
  let sub, in_map, out_map = Graph.induced g ~name:"half" [ m1; m2 ] in
  (* inputs: i becomes one Input; c is cloned as Const; outputs: m1, m2 *)
  Alcotest.(check int) "ops" 2 (Graph.op_count sub);
  Alcotest.(check int) "one external input" 1 (List.length (Graph.inputs sub));
  Alcotest.(check int) "two outputs" 2 (List.length (Graph.outputs sub));
  Alcotest.(check int) "in_map has i and c" 2 (List.length in_map);
  Alcotest.(check int) "out_map" 2 (List.length out_map);
  ignore s

let test_induced_const_cloned () =
  let g, _, m1, _, _ = diamond () in
  let sub, _, _ = Graph.induced g ~name:"one" [ m1 ] in
  let consts =
    List.filter (fun n -> n.Graph.op = Op.Const) (Graph.nodes sub)
  in
  Alcotest.(check int) "const cloned locally" 1 (List.length consts)

let test_induced_rejects_boundary () =
  let g, i, _, _, _ = diamond () in
  Alcotest.check_raises "boundary"
    (Invalid_argument "Graph.induced: boundary nodes cannot be selected")
    (fun () -> ignore (Graph.induced g ~name:"bad" [ i ]))

let test_induced_whole_has_no_cut () =
  let g, _, m1, m2, s = diamond () in
  let sub, _, _ = Graph.induced g ~name:"all" [ m1; m2; s ] in
  Alcotest.(check int) "ops preserved" 3 (Graph.op_count sub);
  (* s drives the original output: the value must escape *)
  Alcotest.(check int) "one output" 1 (List.length (Graph.outputs sub))

(* ------------------------------------------------------------------ *)
(* Analysis *)

let test_asap_diamond () =
  let g, i, m1, _, s = diamond () in
  let asap = Analysis.asap g in
  Alcotest.(check int) "input at 0" 0 (List.assoc i asap);
  Alcotest.(check int) "m1 at 0" 0 (List.assoc m1 asap);
  Alcotest.(check int) "s after muls" 1 (List.assoc s asap)

let test_critical_path_unit () =
  let g, _, _, _, _ = diamond () in
  Alcotest.(check int) "cp" 2 (Analysis.critical_path g)

let test_critical_path_weighted () =
  let g, _, _, _, _ = diamond () in
  let latency n = if n.Graph.op = Op.Mult then 3 else 1 in
  Alcotest.(check int) "weighted" 4 (Analysis.critical_path ~latency g)

let test_alap_slack () =
  let g, _, m1, _, s = diamond () in
  let alap = Analysis.alap ~length:2 g in
  Alcotest.(check int) "s latest" 1 (List.assoc s alap);
  Alcotest.(check int) "m1 latest" 0 (List.assoc m1 alap);
  let slack = Analysis.slack g in
  Alcotest.(check bool) "no slack on critical diamond" true
    (List.for_all (fun (_, sl) -> sl = 0) slack)

let test_alap_too_short () =
  let g, _, _, _, _ = diamond () in
  match Analysis.alap ~length:1 g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short alap accepted"

let test_alap_longer_horizon () =
  let g, _, m1, _, _ = diamond () in
  let alap = Analysis.alap ~length:10 g in
  Alcotest.(check int) "m1 pushed late" 8 (List.assoc m1 alap)

let test_critical_path_ns () =
  let g, _, _, _, _ = diamond () in
  let delay n = if n.Graph.op = Op.Mult then 100. else 10. in
  Alcotest.(check (float 1e-9)) "ns path" 110. (Analysis.critical_path_ns ~delay g)

let test_levels () =
  let g, _, _, _, _ = diamond () in
  let levels = Analysis.levels g in
  Alcotest.(check int) "two levels" 2 (List.length levels);
  Alcotest.(check int) "first level has both muls" 2 (List.length (List.nth levels 0))

let test_max_width_profile () =
  let g, _, _, _, _ = diamond () in
  Alcotest.(check (list (pair string int))) "profile"
    [ ("add", 1); ("mult", 2) ]
    (Analysis.max_width_profile g)

let test_reachable () =
  let g, i, _, _, s = diamond () in
  let r = Analysis.reachable g ~from:[ s ] in
  Alcotest.(check bool) "s reaches output only" true (List.length r = 2);
  let r2 = Analysis.reachable g ~from:[ i ] in
  Alcotest.(check bool) "input reaches most" true (List.length r2 >= 5)

(* ------------------------------------------------------------------ *)
(* Transform *)

let accumulator_body () =
  (* acc_in + x -> acc_out, with y = acc_out observable *)
  let b = Graph.builder ~name:"acc" () in
  let acc_in = Graph.add_node b ~name:"acc_in" ~op:Op.Input ~width:8 in
  let x = Graph.add_node b ~name:"x" ~op:Op.Input ~width:8 in
  let sum = Graph.add_node b ~name:"sum" ~op:Op.Add ~width:8 in
  let acc_out = Graph.add_node b ~name:"acc_out" ~op:Op.Output ~width:8 in
  Graph.add_edge b ~src:acc_in ~dst:sum;
  Graph.add_edge b ~src:x ~dst:sum;
  Graph.add_edge b ~src:sum ~dst:acc_out;
  Graph.build b

let test_unroll_counts () =
  let body = accumulator_body () in
  let loop =
    { Transform.body; trip_count = 4; carried = [ ("acc_out", "acc_in") ] }
  in
  let g = Transform.unroll loop in
  Alcotest.(check int) "4 adds" 4 (Graph.op_count g);
  (* inputs: initial acc + 4 stream xs *)
  Alcotest.(check int) "5 inputs" 5 (List.length (Graph.inputs g));
  Alcotest.(check int) "1 output" 1 (List.length (Graph.outputs g));
  Alcotest.(check int) "chained depth" 4 (Analysis.critical_path g)

let test_unroll_once_is_body () =
  let body = accumulator_body () in
  let loop =
    { Transform.body; trip_count = 1; carried = [ ("acc_out", "acc_in") ] }
  in
  let g = Transform.unroll loop in
  Alcotest.(check int) "same ops" (Graph.op_count body) (Graph.op_count g);
  Alcotest.(check int) "same size" (Graph.size body) (Graph.size g)

let test_unroll_validates () =
  let body = accumulator_body () in
  (match
     Transform.unroll { Transform.body; trip_count = 0; carried = [] }
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "trip_count 0 accepted");
  match
    Transform.unroll
      { Transform.body; trip_count = 2; carried = [ ("nope", "acc_in") ] }
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad carried name accepted"

let test_unroll_acyclic_quotient () =
  let body = accumulator_body () in
  let g =
    Transform.unroll
      { Transform.body; trip_count = 8; carried = [ ("acc_out", "acc_in") ] }
  in
  (* building succeeded, so the graph is acyclic; depth must equal trip count *)
  Alcotest.(check int) "depth" 8 (Analysis.critical_path g)

let test_cse_merges_duplicates () =
  (* the diamond's two multiplications compute the same product *)
  let g, _, _, _, _ = diamond () in
  let g' = Transform.common_subexpression_elimination g in
  Alcotest.(check int) "mult deduplicated" 2 (Graph.op_count g');
  Alcotest.(check bool) "behaviour preserved" true (Eval.equivalent g g')

let test_cse_respects_order () =
  (* a - b and b - a must not merge *)
  let b = Graph.builder () in
  let x = Graph.add_node b ~name:"x" ~op:Op.Input ~width:8 in
  let y = Graph.add_node b ~name:"y" ~op:Op.Input ~width:8 in
  let s1 = Graph.add_node b ~name:"s1" ~op:Op.Sub ~width:8 in
  Graph.add_edge b ~src:x ~dst:s1;
  Graph.add_edge b ~src:y ~dst:s1;
  let s2 = Graph.add_node b ~name:"s2" ~op:Op.Sub ~width:8 in
  Graph.add_edge b ~src:y ~dst:s2;
  Graph.add_edge b ~src:x ~dst:s2;
  let o1 = Graph.add_node b ~name:"o1" ~op:Op.Output ~width:8 in
  let o2 = Graph.add_node b ~name:"o2" ~op:Op.Output ~width:8 in
  Graph.add_edge b ~src:s1 ~dst:o1;
  Graph.add_edge b ~src:s2 ~dst:o2;
  let g = Graph.build b in
  let g' = Transform.common_subexpression_elimination g in
  Alcotest.(check int) "both subtractions kept" 2 (Graph.op_count g');
  Alcotest.(check bool) "behaviour preserved" true (Eval.equivalent g g')

let test_cse_never_merges_memory () =
  let g = Benchmarks.memory_pipeline ~blocks:("A", "B") () in
  let g' = Transform.common_subexpression_elimination g in
  (* the two reads of A have identical shape but must both survive *)
  let reads gr =
    List.length
      (List.filter
         (fun n -> match n.Graph.op with Op.Mem_read _ -> true | _ -> false)
         (Graph.operations gr))
  in
  Alcotest.(check int) "reads preserved" (reads g) (reads g')

let test_balance_shortens_chain () =
  (* a serial accumulation: y + x*k four times gives an add chain *)
  let p =
    {
      Behavior.prog_name = "serial_mac";
      width = 16;
      inputs = [ "x"; "y" ];
      outputs = [ "acc" ];
      body =
        [
          Behavior.Assign ("acc", Behavior.Var "y");
          Behavior.For
            ( 6,
              [
                Behavior.Assign
                  ( "acc",
                    Behavior.Bin
                      ( Behavior.Add,
                        Behavior.Var "acc",
                        Behavior.Bin (Behavior.Mul, Behavior.Var "x", Behavior.Const "k") ) );
              ] );
        ];
    }
  in
  let g = Behavior.compile p in
  let g' = Transform.balance_associative g in
  Alcotest.(check int) "op count preserved" (Graph.op_count g) (Graph.op_count g');
  Alcotest.(check bool) "critical path shortened" true
    (Analysis.critical_path g' < Analysis.critical_path g);
  Alcotest.(check bool) "behaviour preserved" true (Eval.equivalent g g')

let test_balance_leaves_diverse_graphs_alone () =
  (* every intermediate of the AR lattice has multiple consumers or mixed
     ops: the transform must not change its shape *)
  let g = Benchmarks.ar_lattice_filter () in
  let g' = Transform.balance_associative g in
  Alcotest.(check int) "op count" (Graph.op_count g) (Graph.op_count g');
  Alcotest.(check int) "depth unchanged" (Analysis.critical_path g)
    (Analysis.critical_path g');
  Alcotest.(check bool) "behaviour preserved" true (Eval.equivalent g g')

let transforms_preserve_semantics =
  QCheck.Test.make ~name:"cse and balancing preserve semantics" ~count:40
    QCheck.(pair (8 -- 40) (0 -- 500))
    (fun (ops, seed) ->
      let g = Benchmarks.random_dag ~ops ~seed () in
      Eval.equivalent g (Transform.common_subexpression_elimination g)
      && Eval.equivalent g (Transform.balance_associative g)
      && Eval.equivalent g
           (Transform.balance_associative
              (Transform.common_subexpression_elimination g)))

let test_dead_node_elimination () =
  let b = Graph.builder () in
  let i = Graph.add_node b ~op:Op.Input ~width:8 in
  let live = Graph.add_node b ~name:"live" ~op:Op.Shift ~width:8 in
  let dead = Graph.add_node b ~name:"dead" ~op:Op.Shift ~width:8 in
  let o = Graph.add_node b ~op:Op.Output ~width:8 in
  Graph.add_edge b ~src:i ~dst:live;
  Graph.add_edge b ~src:i ~dst:dead;
  Graph.add_edge b ~src:live ~dst:o;
  let g = Transform.dead_node_elimination (Graph.build b) in
  Alcotest.(check int) "one op left" 1 (Graph.op_count g);
  Alcotest.(check bool) "dead gone" true
    (List.for_all (fun n -> n.Graph.name <> "dead") (Graph.nodes g))

let test_dce_keeps_memory_writes () =
  let g = Benchmarks.memory_pipeline ~blocks:("A", "B") () in
  let g' = Transform.dead_node_elimination g in
  Alcotest.(check int) "ops preserved" (Graph.op_count g) (Graph.op_count g')

let test_rename () =
  let g, _, _, _, _ = diamond () in
  let g' = Transform.rename "copy" g in
  Alcotest.(check string) "name" "copy" (Graph.name g');
  Alcotest.(check int) "size" (Graph.size g) (Graph.size g');
  Alcotest.(check int) "edges" (List.length (Graph.edges g)) (List.length (Graph.edges g'))

(* ------------------------------------------------------------------ *)
(* Benchmarks *)

let test_ar_filter_profile () =
  let g = Benchmarks.ar_lattice_filter () in
  Alcotest.(check int) "28 operations" 28 (Graph.op_count g);
  Alcotest.(check (list (pair string int))) "16 mults + 12 adds"
    [ ("add", 12); ("mult", 16) ] (Graph.op_profile g);
  Alcotest.(check int) "critical path 8" 8 (Analysis.critical_path g);
  Alcotest.(check int) "2 primary inputs" 2 (List.length (Graph.inputs g));
  Alcotest.(check int) "6 primary outputs" 6 (List.length (Graph.outputs g))

let test_ewf_profile () =
  let g = Benchmarks.elliptic_wave_filter () in
  Alcotest.(check (list (pair string int))) "26 adds + 8 mults"
    [ ("add", 26); ("mult", 8) ] (Graph.op_profile g)

let test_fir_profile () =
  let g = Benchmarks.fir_filter ~taps:16 () in
  Alcotest.(check (list (pair string int))) "16 mults, 15 adds"
    [ ("add", 15); ("mult", 16) ] (Graph.op_profile g);
  (* balanced tree: depth = 1 mult + ceil(log2 16) adds *)
  Alcotest.(check int) "depth" 5 (Analysis.critical_path g)

let test_fir_validates () =
  match Benchmarks.fir_filter ~taps:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "taps=1 accepted"

let test_diffeq_profile () =
  let g = Benchmarks.diffeq () in
  Alcotest.(check int) "11 ops" 11 (Graph.op_count g);
  Alcotest.(check (list (pair string int))) "profile"
    [ ("add", 5); ("mult", 6) ] (Graph.op_profile g)

let test_dct8_profile () =
  let g = Benchmarks.dct8 () in
  Alcotest.(check (list (pair string int))) "29 adds + 11 mults"
    [ ("add", 29); ("mult", 11) ] (Graph.op_profile g);
  Alcotest.(check int) "8 inputs" 8 (List.length (Graph.inputs g));
  Alcotest.(check int) "8 outputs" 8 (List.length (Graph.outputs g));
  Alcotest.(check bool) "deeper than the AR filter" true
    (Analysis.critical_path g >= 5)

let test_memory_pipeline_profile () =
  let g = Benchmarks.memory_pipeline ~blocks:("A", "B") () in
  Alcotest.(check (list string)) "blocks" [ "A"; "B" ] (Graph.memory_blocks g);
  Alcotest.(check bool) "has per-block memport ops" true
    (List.mem_assoc "memport:A" (Graph.op_profile g)
    && List.mem_assoc "memport:B" (Graph.op_profile g))

let test_random_dag_deterministic () =
  let g1 = Benchmarks.random_dag ~ops:20 ~seed:7 () in
  let g2 = Benchmarks.random_dag ~ops:20 ~seed:7 () in
  Alcotest.(check int) "same size" (Graph.size g1) (Graph.size g2);
  Alcotest.(check int) "same edges" (List.length (Graph.edges g1))
    (List.length (Graph.edges g2))

let random_dag_always_valid =
  QCheck.Test.make ~name:"random dags build and are acyclic" ~count:50
    QCheck.(pair (1 -- 60) (0 -- 1000))
    (fun (ops, seed) ->
      let g = Benchmarks.random_dag ~ops ~seed () in
      Graph.op_count g = ops && Analysis.critical_path g >= 1)

(* ------------------------------------------------------------------ *)
(* Partition *)

let test_whole_partitioning () =
  let g = Benchmarks.ar_lattice_filter () in
  let pg = Partition.whole g in
  Alcotest.(check int) "one part" 1 (List.length pg.Partition.parts);
  Alcotest.(check int) "covers all" 28
    (List.length (List.hd pg.Partition.parts).Partition.members)

let test_by_levels_balanced () =
  let g = Benchmarks.ar_lattice_filter () in
  let pg = Partition.by_levels g ~k:2 in
  Alcotest.(check int) "two parts" 2 (List.length pg.Partition.parts);
  let sizes = List.map (fun p -> List.length p.Partition.members) pg.Partition.parts in
  Alcotest.(check int) "covers all" 28 (List.fold_left ( + ) 0 sizes);
  List.iter
    (fun s -> Alcotest.(check bool) "roughly balanced" true (s >= 7 && s <= 21))
    sizes

let test_by_levels_three () =
  let g = Benchmarks.ar_lattice_filter () in
  let pg = Partition.by_levels g ~k:3 in
  Alcotest.(check int) "three parts" 3 (List.length pg.Partition.parts)

let test_by_levels_validates () =
  let g = Benchmarks.ar_lattice_filter () in
  (match Partition.by_levels g ~k:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k=0 accepted");
  match Partition.by_levels g ~k:100 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k>levels accepted"

let test_partitioning_rejects_double_assignment () =
  let g, _, m1, m2, s = diamond () in
  match
    Partition.partitioning g
      [ Partition.make ~label:"A" [ m1; m2 ]; Partition.make ~label:"B" [ m2; s ] ]
  with
  | exception Partition.Invalid_partitioning _ -> ()
  | _ -> Alcotest.fail "double assignment accepted"

let test_partitioning_rejects_uncovered () =
  let g, _, m1, _, _ = diamond () in
  match Partition.partitioning g [ Partition.make ~label:"A" [ m1 ] ] with
  | exception Partition.Invalid_partitioning _ -> ()
  | _ -> Alcotest.fail "uncovered operation accepted"

let test_partitioning_rejects_duplicate_label () =
  let g, _, m1, m2, s = diamond () in
  match
    Partition.partitioning g
      [ Partition.make ~label:"A" [ m1; m2 ]; Partition.make ~label:"A" [ s ] ]
  with
  | exception Partition.Invalid_partitioning _ -> ()
  | _ -> Alcotest.fail "duplicate label accepted"

let test_partitioning_rejects_mutual_dependency () =
  (* chain x1 -> x2 -> x3 with x1,x3 in P1 and x2 in P2 *)
  let b = Graph.builder () in
  let i = Graph.add_node b ~op:Op.Input ~width:8 in
  let x1 = Graph.add_node b ~op:Op.Shift ~width:8 in
  let x2 = Graph.add_node b ~op:Op.Shift ~width:8 in
  let x3 = Graph.add_node b ~op:Op.Shift ~width:8 in
  Graph.add_edge b ~src:i ~dst:x1;
  Graph.add_edge b ~src:x1 ~dst:x2;
  Graph.add_edge b ~src:x2 ~dst:x3;
  let g = Graph.build b in
  match
    Partition.partitioning g
      [ Partition.make ~label:"P1" [ x1; x3 ]; Partition.make ~label:"P2" [ x2 ] ]
  with
  | exception Partition.Invalid_partitioning _ -> ()
  | _ -> Alcotest.fail "cyclic quotient accepted"

let test_partition_make_rejects_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Partition.make: empty partition")
    (fun () -> ignore (Partition.make ~label:"X" []))

let test_flows_diamond () =
  let g, _, m1, m2, s = diamond () in
  let pg =
    Partition.partitioning g
      [ Partition.make ~label:"A" [ m1; m2 ]; Partition.make ~label:"B" [ s ] ]
  in
  let flows = Partition.flows pg in
  Alcotest.(check int) "one flow" 1 (List.length flows);
  let f = List.hd flows in
  Alcotest.(check string) "producer" "A" f.Partition.producer;
  Alcotest.(check string) "consumer" "B" f.Partition.consumer;
  Alcotest.(check int) "32 bits (two values)" 32 f.Partition.bits

let test_flow_value_counted_once_per_consumer () =
  (* one value consumed twice by the same partition counts once *)
  let b = Graph.builder () in
  let i = Graph.add_node b ~op:Op.Input ~width:8 in
  let src = Graph.add_node b ~op:Op.Shift ~width:8 in
  let u1 = Graph.add_node b ~op:Op.Shift ~width:8 in
  let u2 = Graph.add_node b ~op:Op.Shift ~width:8 in
  Graph.add_edge b ~src:i ~dst:src;
  Graph.add_edge b ~src ~dst:u1;
  Graph.add_edge b ~src ~dst:u2;
  let g = Graph.build b in
  let pg =
    Partition.partitioning g
      [ Partition.make ~label:"A" [ src ]; Partition.make ~label:"B" [ u1; u2 ] ]
  in
  let f = List.hd (Partition.flows pg) in
  Alcotest.(check int) "8 bits only" 8 f.Partition.bits

let test_external_io_bits () =
  let g, _, m1, m2, s = diamond () in
  let pg =
    Partition.partitioning g
      [ Partition.make ~label:"A" [ m1; m2 ]; Partition.make ~label:"B" [ s ] ]
  in
  let a = Partition.find pg "A" and b = Partition.find pg "B" in
  Alcotest.(check int) "A reads the input" 16 (Partition.external_input_bits pg a);
  Alcotest.(check int) "B reads nothing" 0 (Partition.external_input_bits pg b);
  Alcotest.(check int) "B drives output" 16 (Partition.external_output_bits pg b);
  Alcotest.(check int) "A drives nothing" 0 (Partition.external_output_bits pg a)

let test_quotient_and_topo () =
  let g = Benchmarks.ar_lattice_filter () in
  let pg = Partition.by_levels g ~k:3 in
  let edges = Partition.quotient_edges pg in
  Alcotest.(check bool) "has edges" true (List.length edges >= 2);
  let topo = Partition.topological_parts pg in
  Alcotest.(check int) "all parts" 3 (List.length topo);
  (* every edge must go forward in the topological order *)
  let pos label =
    let rec go i = function
      | [] -> -1
      | p :: rest -> if p.Partition.label = label then i else go (i + 1) rest
    in
    go 0 topo
  in
  List.iter
    (fun (s, d) -> Alcotest.(check bool) "forward edge" true (pos s < pos d))
    edges

let test_subgraph_roundtrip () =
  let g = Benchmarks.ar_lattice_filter () in
  let pg = Partition.by_levels g ~k:2 in
  let total_ops =
    Chop_util.Listx.sum_by
      (fun p -> Graph.op_count (Partition.subgraph pg p))
      pg.Partition.parts
  in
  Alcotest.(check int) "subgraphs cover all ops" 28 total_ops

let test_part_of_valid () =
  let g, _, m1, m2, s = diamond () in
  let pg =
    Partition.partitioning g
      [ Partition.make ~label:"A" [ m1; m2 ]; Partition.make ~label:"B" [ s ] ]
  in
  Alcotest.(check string) "m1 in A" "A" (Partition.part_of pg m1).Partition.label;
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Partition.part_of pg 999))

let test_cut_bits_total () =
  let g, _, m1, m2, s = diamond () in
  let pg =
    Partition.partitioning g
      [ Partition.make ~label:"A" [ m1; m2 ]; Partition.make ~label:"B" [ s ] ]
  in
  Alcotest.(check int) "32 bits" 32 (Partition.cut_bits_total pg)

(* The index the validator stores, checked against a naive recomputation
   from the part list: the list-based code the index replaced. *)
module Naive = struct
  module IntMap = Map.Make (Int)

  let owners_of parts =
    List.fold_left
      (fun acc p ->
        List.fold_left
          (fun acc id -> IntMap.add id p acc)
          acc p.Partition.members)
      IntMap.empty parts

  let owners pg = owners_of pg.Partition.parts

  let part_of pg id =
    List.find (fun p -> List.mem id p.Partition.members) pg.Partition.parts

  let quotient_edges_of g owners =
    List.fold_left
      (fun acc (src, dst) ->
        match (IntMap.find_opt src owners, IntMap.find_opt dst owners) with
        | Some p1, Some p2 when p1.Partition.label <> p2.Partition.label ->
            (p1.Partition.label, p2.Partition.label) :: acc
        | _ -> acc)
      [] (Graph.edges g)
    |> List.sort_uniq Stdlib.compare

  let quotient_edges pg = quotient_edges_of pg.Partition.graph (owners pg)

  let flows pg =
    let g = pg.Partition.graph in
    let owners = owners pg in
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (src, dst) ->
        match (IntMap.find_opt src owners, IntMap.find_opt dst owners) with
        | Some p1, Some p2 when p1.Partition.label <> p2.Partition.label ->
            let key = (p1.Partition.label, p2.Partition.label) in
            let cur = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
            if not (List.mem src cur) then Hashtbl.replace tbl key (src :: cur)
        | _ -> ())
      (Graph.edges g);
    Hashtbl.fold
      (fun (producer, consumer) values acc ->
        let bits =
          Chop_util.Listx.sum_by (fun id -> (Graph.node g id).Graph.width) values
        in
        { Partition.producer; consumer; bits;
          values = List.sort Int.compare values }
        :: acc)
      tbl []
    |> List.sort (fun a b ->
           Stdlib.compare
             (a.Partition.producer, a.Partition.consumer)
             (b.Partition.producer, b.Partition.consumer))

  let topological_parts pg =
    let edges = quotient_edges pg in
    let remaining = ref pg.Partition.parts and order = ref [] in
    let placed l = List.exists (fun p -> p.Partition.label = l) !order in
    while !remaining <> [] do
      let ready, rest =
        List.partition
          (fun p ->
            List.for_all (fun (s, d) -> d <> p.Partition.label || placed s) edges)
          !remaining
      in
      if ready = [] then failwith "cyclic quotient graph";
      order := !order @ ready;
      remaining := rest
    done;
    !order

  (* Kahn over the quotient graph of a candidate part list *)
  let acyclic g parts =
    let edges = quotient_edges_of g (owners_of parts) in
    let indeg = Hashtbl.create 8 in
    List.iter (fun p -> Hashtbl.replace indeg p.Partition.label 0) parts;
    List.iter (fun (_, d) -> Hashtbl.replace indeg d (1 + Hashtbl.find indeg d)) edges;
    let queue = Queue.create () in
    Hashtbl.iter (fun l d -> if d = 0 then Queue.add l queue) indeg;
    let visited = ref 0 in
    while not (Queue.is_empty queue) do
      let l = Queue.pop queue in
      incr visited;
      List.iter
        (fun (s, d) ->
          if s = l then begin
            let deg = Hashtbl.find indeg d - 1 in
            Hashtbl.replace indeg d deg;
            if deg = 0 then Queue.add d queue
          end)
        edges
    done;
    !visited = List.length parts
end

let index_matches_naive pg =
  let g = pg.Partition.graph in
  let lookup part_of id =
    match part_of pg id with p -> Some p | exception Not_found -> None
  in
  List.for_all
    (fun n ->
      let id = n.Graph.id in
      lookup Partition.part_of id = lookup Naive.part_of id
      && (Op.is_computational n.Graph.op || lookup Partition.part_of id = None))
    (Graph.nodes g)
  && List.for_all
       (fun id -> lookup Partition.part_of id = None)
       [ -1; min_int; Graph.size g; Graph.size g + 7; max_int ]
  && Partition.flows pg = Naive.flows pg
  && Partition.quotient_edges pg = Naive.quotient_edges pg
  && Partition.topological_parts pg = Naive.topological_parts pg

(* A random owner per operation: the validator accepts it exactly when
   the quotient graph is acyclic (coverage and disjointness hold by
   construction).  A rejected draw falls back to horizontal cuts. *)
let random_partitioning rng g k =
  let ops = List.map (fun n -> n.Graph.id) (Graph.operations g) in
  let owner = List.map (fun id -> (Random.State.int rng k, id)) ops in
  let parts =
    List.filter_map
      (fun i ->
        match List.filter_map (fun (j, id) -> if i = j then Some id else None) owner with
        | [] -> None
        | members -> Some (Partition.make ~label:(Printf.sprintf "P%d" i) members))
      (List.init k Fun.id)
  in
  match Partition.partitioning g parts with
  | pg -> if Naive.acyclic g parts then Some pg else None
  | exception Partition.Invalid_partitioning _ ->
      if Naive.acyclic g parts then None
      else
        let k = min k (List.length (Analysis.levels g)) in
        Some (if k = 1 then Partition.whole g else Partition.by_levels g ~k)

let random_edit rng pg step =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let parts = pg.Partition.parts in
  let labels = List.map (fun p -> p.Partition.label) parts in
  match Random.State.int rng 3 with
  | 0 ->
      let op = pick (List.concat_map (fun p -> p.Partition.members) parts) in
      Partition.move_op pg ~op ~to_:(pick labels)
  | 1 -> Partition.merge_parts pg ~src:(pick labels) ~dst:(pick labels)
  | _ ->
      let p = pick parts in
      let members =
        List.filter (fun _ -> Random.State.bool rng) p.Partition.members
      in
      Partition.split_part pg ~label:p.Partition.label ~members
        ~new_label:(Printf.sprintf "S%d" step)

let partition_index_matches_naive =
  QCheck.Test.make ~name:"partition index equals a naive recomputation"
    ~count:100
    QCheck.(quad (0 -- 100000) (4 -- 50) (1 -- 5) (0 -- 12))
    (fun (seed, ops, k, walk) ->
      let rng = Random.State.make [| seed |] in
      let g = Benchmarks.random_dag ~ops ~seed () in
      match random_partitioning rng g k with
      | None -> false
      | Some pg ->
          let rec go pg step =
            index_matches_naive pg
            && (step > walk
               ||
               match random_edit rng pg step with
               | Ok pg' -> go pg' (step + 1)
               | Error _ -> go pg (step + 1))
          in
          go pg 1)

let by_levels_always_legal =
  QCheck.Test.make ~name:"by_levels yields valid partitionings" ~count:50
    QCheck.(pair (8 -- 60) (1 -- 4))
    (fun (ops, k) ->
      let g = Benchmarks.random_dag ~ops ~seed:(ops * 31) () in
      let levels = List.length (Analysis.levels g) in
      let k = min k levels in
      let pg = if k = 1 then Partition.whole g else Partition.by_levels g ~k in
      Chop_util.Listx.sum_by
        (fun p -> List.length p.Partition.members)
        pg.Partition.parts
      = ops)

(* ------------------------------------------------------------------ *)
(* Eval *)

let ar_consts g v =
  List.filter_map
    (fun n -> if n.Graph.op = Op.Const then Some (n.Graph.name, v) else None)
    (Graph.nodes g)

let test_eval_diamond () =
  let g, _, _, _, _ = diamond () in
  (* (i*c) + (i*c) with i=3, c=5 -> 30 *)
  let out = Eval.run ~inputs:[ ("i", 3) ] ~consts:[ ("c", 5) ] g in
  Alcotest.(check (list (pair string int))) "sum of products" [ ("o", 30) ] out

let test_eval_masking () =
  let b = Graph.builder () in
  let i = Graph.add_node b ~name:"i" ~op:Op.Input ~width:4 in
  let m = Graph.add_node b ~name:"m" ~op:Op.Mult ~width:4 in
  Graph.add_edge b ~src:i ~dst:m;
  Graph.add_edge b ~src:i ~dst:m;
  let o = Graph.add_node b ~name:"o" ~op:Op.Output ~width:4 in
  Graph.add_edge b ~src:m ~dst:o;
  let g = Graph.build b in
  (* 7*7 = 49 = 0b110001 -> masked to 4 bits = 1 *)
  Alcotest.(check (list (pair string int))) "masked" [ ("o", 1) ]
    (Eval.run ~inputs:[ ("i", 7) ] g)

let test_eval_select_compare () =
  let p =
    {
      Behavior.prog_name = "minmax";
      width = 8;
      inputs = [ "a"; "b" ];
      outputs = [ "min" ];
      body =
        [
          Behavior.Assign
            ( "min",
              Behavior.Mux
                ( Behavior.Bin (Behavior.Less, Behavior.Var "a", Behavior.Var "b"),
                  Behavior.Var "a", Behavior.Var "b" ) );
        ];
    }
  in
  let g = Behavior.compile p in
  Alcotest.(check (list (pair string int))) "min(3,9)=3" [ ("out_min", 3) ]
    (Eval.run ~inputs:[ ("a", 3); ("b", 9) ] g);
  Alcotest.(check (list (pair string int))) "min(9,3)=3" [ ("out_min", 3) ]
    (Eval.run ~inputs:[ ("a", 9); ("b", 3) ] g)

let test_eval_memory () =
  let g = Benchmarks.memory_pipeline ~blocks:("A", "B") () in
  let memory = Eval.constant_memory 7 in
  let out = Eval.run ~consts:(ar_consts g 2) ~memory g in
  (* acc = 7*2 + 7*2 = 28, written to B *)
  Alcotest.(check (list (pair string int))) "acc" [ ("y", 28) ] out;
  Alcotest.(check (list (pair string int))) "write recorded" [ ("B", 28) ]
    memory.Eval.writes

let test_eval_unknown_binding_rejected () =
  let g, _, _, _, _ = diamond () in
  match Eval.run ~inputs:[ ("ghost", 1) ] g with
  | exception Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "unknown input accepted"

let test_eval_equivalent_rename () =
  let g = Benchmarks.ar_lattice_filter () in
  Alcotest.(check bool) "graph equals its copy" true
    (Eval.equivalent g (Transform.rename "copy" g));
  let other = Benchmarks.diffeq () in
  Alcotest.(check bool) "different io shape" false (Eval.equivalent g other)

let test_partitioning_preserves_semantics () =
  let g = Benchmarks.ar_lattice_filter () in
  let inputs = [ ("f_in", 37); ("b_in", 113) ] in
  let consts = ar_consts g 3 in
  let sort = List.sort compare in
  let whole = sort (Eval.run ~inputs ~consts g) in
  List.iter
    (fun k ->
      let pg = if k = 1 then Partition.whole g else Partition.by_levels g ~k in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d equals whole" k)
        true
        (sort (Eval.run_partitioned ~inputs ~consts pg) = whole))
    [ 1; 2; 3 ]

let partitioning_preserves_semantics_prop =
  QCheck.Test.make ~name:"any level partitioning preserves semantics" ~count:40
    QCheck.(triple (8 -- 40) (0 -- 300) (pair (1 -- 4) (0 -- 4095)))
    (fun (ops, seed, (k, stim)) ->
      let g = Benchmarks.random_dag ~ops ~seed () in
      let levels = List.length (Analysis.levels g) in
      let k = max 1 (min k levels) in
      let pg = if k = 1 then Partition.whole g else Partition.by_levels g ~k in
      let inputs =
        List.map (fun n -> (n.Graph.name, (stim + n.Graph.id) land 0xfff))
          (Graph.inputs g)
      in
      let sort = List.sort compare in
      sort (Eval.run ~inputs g) = sort (Eval.run_partitioned ~inputs pg))

(* ------------------------------------------------------------------ *)
(* Behavior *)

let mac_program =
  {
    Behavior.prog_name = "mac";
    width = 16;
    inputs = [ "x"; "y" ];
    outputs = [ "acc" ];
    body =
      [
        Behavior.Assign ("acc", Behavior.Var "y");
        Behavior.For
          ( 4,
            [
              Behavior.Assign
                ( "acc",
                  Behavior.Bin
                    ( Behavior.Add,
                      Behavior.Var "acc",
                      Behavior.Bin (Behavior.Mul, Behavior.Var "x", Behavior.Const "k") ) );
            ] );
      ];
  }

let test_behavior_mac () =
  let g = Behavior.compile mac_program in
  Alcotest.(check (list (pair string int))) "4 adds + 4 mults"
    [ ("add", 4); ("mult", 4) ] (Graph.op_profile g);
  (* the accumulation chain is sequential: depth 1 mult + 4 adds *)
  Alcotest.(check int) "depth" 5 (Analysis.critical_path g);
  Alcotest.(check int) "outputs" 1 (List.length (Graph.outputs g));
  (* the coefficient is interned: one Const node *)
  Alcotest.(check int) "one const" 1
    (List.length (List.filter (fun n -> n.Graph.op = Op.Const) (Graph.nodes g)))

let test_behavior_if_merges () =
  let p =
    {
      Behavior.prog_name = "sel";
      width = 8;
      inputs = [ "a"; "b" ];
      outputs = [ "r" ];
      body =
        [
          Behavior.If
            ( Behavior.Bin (Behavior.Less, Behavior.Var "a", Behavior.Var "b"),
              [ Behavior.Assign ("r", Behavior.Var "a") ],
              [ Behavior.Assign ("r", Behavior.Var "b") ] );
        ];
    }
  in
  let g = Behavior.compile p in
  let selects =
    List.filter (fun n -> n.Graph.op = Op.Select) (Graph.operations g)
  in
  Alcotest.(check int) "one select merge" 1 (List.length selects);
  Alcotest.(check bool) "has compare" true
    (List.exists (fun n -> n.Graph.op = Op.Compare) (Graph.operations g))

let test_behavior_if_same_value_no_merge () =
  let p =
    {
      Behavior.prog_name = "nomerge";
      width = 8;
      inputs = [ "a" ];
      outputs = [ "r" ];
      body =
        [
          Behavior.Assign ("r", Behavior.Var "a");
          Behavior.If
            ( Behavior.Bin (Behavior.Less, Behavior.Var "a", Behavior.Const "c0"),
              [],
              [] );
        ];
    }
  in
  let g = Behavior.compile p in
  Alcotest.(check int) "no select" 0
    (List.length (List.filter (fun n -> n.Graph.op = Op.Select) (Graph.operations g)))

let test_behavior_memory_ops () =
  let p =
    {
      Behavior.prog_name = "memio";
      width = 16;
      inputs = [];
      outputs = [ "v" ];
      body =
        [
          Behavior.Assign ("v", Behavior.Load "A");
          Behavior.Store ("B", Behavior.Bin (Behavior.Mul, Behavior.Var "v", Behavior.Const "k"));
        ];
    }
  in
  let g = Behavior.compile p in
  Alcotest.(check (list string)) "blocks" [ "A"; "B" ] (Graph.memory_blocks g)

let test_behavior_errors () =
  let base =
    { Behavior.prog_name = "bad"; width = 16; inputs = []; outputs = []; body = [] }
  in
  let expect_error p =
    match Behavior.compile p with
    | exception Behavior.Compile_error _ -> ()
    | _ -> Alcotest.fail "compile error expected"
  in
  expect_error { base with Behavior.body = [ Behavior.Assign ("x", Behavior.Var "nope") ] };
  expect_error { base with Behavior.outputs = [ "unset" ] };
  expect_error { base with Behavior.inputs = [ "a"; "a" ] };
  expect_error { base with Behavior.body = [ Behavior.For (0, [ Behavior.Assign ("x", Behavior.Const "c") ]) ] };
  expect_error { base with Behavior.width = 0 }

let test_behavior_stmt_count () =
  Alcotest.(check int) "unrolled size" 5 (Behavior.stmt_count mac_program)

let test_behavior_feeds_chop () =
  (* end-to-end: compile a program, partition it, explore it *)
  let g = Behavior.compile mac_program in
  let pg = Partition.whole g in
  Alcotest.(check int) "covers ops" 8
    (List.length (List.hd pg.Partition.parts).Partition.members)

(* ------------------------------------------------------------------ *)
(* Dot *)

let test_dot_output () =
  let g, _, _, _, _ = diamond () in
  let dot = Dot.of_graph g in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 10 && String.sub dot 0 7 = "digraph");
  let pg = Partition.whole g in
  let dot2 = Dot.of_partitioning pg in
  Alcotest.(check bool) "has cluster" true
    (List.exists
       (fun line ->
         let l = String.trim line in
         String.length l >= 8 && String.sub l 0 8 = "subgraph")
       (String.split_on_char '\n' dot2))

(* ---------- id-ordered signatures ---------- *)

(* The prediction cache keys on Graph.signature, so its bytes are part of
   every cached prediction's identity: each built-in benchmark's signature,
   and those of its by_levels partition subgraphs for k = 2 and 3, are
   pinned.  ar's k = 3 cut has two lattice stages built the same way, and
   they share a signature. *)
let pinned_signatures =
  [
    ( "ar",
      "c56001c0aef1266e1c8a544288fd484d",
      [
        "b1f00cfbe4443d64ab32c1ec0c41cd62";
        "9fafa2a5529cb3e7884167d69b0226f9";
        "5907725b2e1870df5f58e1ea8a13f94f";
        "5907725b2e1870df5f58e1ea8a13f94f";
        "eaaad8f707d5bad5c843cc2054472da5";
      ] );
    ( "ewf",
      "54392bbe08035b6530843163a809db4b",
      [
        "e9885804b53acd7f24a89873e899c165";
        "423495155314d0c91a25703277c625b8";
        "b8736b3667ddfcf949ae08005815a669";
        "224fd56d837f6df0fff38e123994a6a4";
        "7119e18645fb42213bbaeaaf42ba72bd";
      ] );
    ( "fir8",
      "7e56bc3699a8f1c0ad2d145e918d43dc",
      [
        "1a08fc885eb629c7267e475a8f4c4725";
        "51d7e3a6b9a41cec5b69b39e85bc6e5d";
        "1a08fc885eb629c7267e475a8f4c4725";
        "2724ffbfa3c7739871f44c07b1d9bb8f";
        "11f9fc42995ebfabedaabc97de050b2a";
      ] );
    ( "fir16",
      "46b981d5fcca06b584a057ab7271da82",
      [
        "f70541b6822edb6f37adc7028b4161d1";
        "a4c6e1e8ccf18e7f9f383aaaab382530";
        "f70541b6822edb6f37adc7028b4161d1";
        "73b5713f0b59cdf3b384df28f35e92da";
        "51d7e3a6b9a41cec5b69b39e85bc6e5d";
      ] );
    ( "diffeq",
      "4a59fdd4d9600dd5fbf2769f35f9e676",
      [
        "9f0ff0aaef5e6eb10c8c2f456d5f2b28";
        "dcbb09eb7d64996eb247e334c356c2ea";
        "9f0ff0aaef5e6eb10c8c2f456d5f2b28";
        "3ad0cdc0f8a419d544f6b1ca16356331";
        "479b729313576ee2bff6ab9a1a6cd866";
      ] );
    ( "dct8",
      "b0a317b5938da01bfbe1473a7cb809c0",
      [
        "e8f9252b1152cc9b15dd2dfeb7ea5855";
        "9d295f5ac4d2510c26bc1c191dea3e54";
        "5e0cd3464f4a5bf55fbec79054aeda76";
        "3f0d6ab7db6d7ec43c6066edd9e5fd45";
        "9d295f5ac4d2510c26bc1c191dea3e54";
      ] );
    ( "pcm_pwm",
      "351441e02047d2950d31d88c12f38aad",
      [
        "bdf1fa90f41066f0c394222b61b073df";
        "665220f8284a9ac3ef895d36344463fb";
        "d02f70f54cef49bdbff0820f41c2a9b8";
        "4fd8b7d37f0b8a48e60a612723f41018";
        "665220f8284a9ac3ef895d36344463fb";
      ] );
    ( "memory_pipeline",
      "d943e84dbecf9ac4c40180c31b3b5662",
      [
        "e7bf5ee9243518487e76789482d67403";
        "af47e77afb26f0b631b9779a56d9c3e8";
        "e7bf5ee9243518487e76789482d67403";
        "18650d80969b906996bd1369182ea9cd";
        "8baf02debff1997ccc2b639310fece36";
      ] );
    ( "ewf2",
      "5b0f9b457644260ea48b209bfe815c31",
      [
        "2a6c4b3c5835f1a407fcf5a230e797c5";
        "046a0717172043fa6755464d686e4da4";
        "b68ad3fa27aed442eac2fa83181f8195";
        "224fd56d837f6df0fff38e123994a6a4";
        "272a2c86f85a936de6dfa8a074f68005";
      ] );
  ]

let test_signature_pinned () =
  let graphs =
    [
      ("ar", Benchmarks.ar_lattice_filter ());
      ("ewf", Benchmarks.elliptic_wave_filter ());
      ("fir8", Benchmarks.fir_filter ~taps:8 ());
      ("fir16", Benchmarks.fir_filter ~taps:16 ());
      ("diffeq", Benchmarks.diffeq ());
      ("dct8", Benchmarks.dct8 ());
      ("pcm_pwm", Benchmarks.pcm_pwm ());
      ("memory_pipeline", Benchmarks.memory_pipeline ~blocks:("ma", "mb") ());
      ("ewf2", Transform.renumber (Benchmarks.elliptic_wave_filter ()));
    ]
  in
  List.iter2
    (fun (name, g) (name', whole, parts) ->
      Alcotest.(check string) "benchmark order" name' name;
      Alcotest.(check string) (name ^ " signature") whole (Graph.signature g);
      let levels = List.length (Analysis.levels g) in
      let subs =
        List.concat_map
          (fun k ->
            if k > levels then []
            else
              let pg = Partition.by_levels g ~k in
              List.map
                (fun p -> Graph.signature (Partition.subgraph pg p))
                pg.Partition.parts)
          [ 2; 3 ]
      in
      Alcotest.(check (list string)) (name ^ " partition signatures") parts subs)
    graphs pinned_signatures

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "chop_dfg"
    [
      ( "op",
        [
          tc "arity" `Quick test_op_arity;
          tc "functional classes" `Quick test_op_classes;
          tc "boundary rejected" `Quick test_op_class_rejects_boundary;
          tc "memory ops" `Quick test_op_memory;
          tc "computational" `Quick test_op_computational;
        ] );
      ( "graph",
        [
          tc "build diamond" `Quick test_graph_build_diamond;
          tc "rejects cycle" `Quick test_graph_rejects_cycle;
          tc "rejects bad arity" `Quick test_graph_rejects_bad_arity;
          tc "rejects fed input" `Quick test_graph_rejects_input_with_preds;
          tc "rejects bad width" `Quick test_graph_rejects_bad_width;
          tc "rejects unknown edge" `Quick test_graph_rejects_unknown_edge;
          tc "duplicate edges ok" `Quick test_graph_duplicate_edges_allowed;
          tc "succs/preds" `Quick test_graph_succs_preds;
          tc "io bits" `Quick test_graph_io_bits;
          tc "node lookup" `Quick test_graph_node_lookup;
          tc "memory blocks" `Quick test_graph_memory_blocks;
          tc "induced basic" `Quick test_induced_basic;
          tc "induced clones consts" `Quick test_induced_const_cloned;
          tc "induced rejects boundary" `Quick test_induced_rejects_boundary;
          tc "induced whole" `Quick test_induced_whole_has_no_cut;
        ] );
      ( "analysis",
        [
          tc "asap" `Quick test_asap_diamond;
          tc "critical path unit" `Quick test_critical_path_unit;
          tc "critical path weighted" `Quick test_critical_path_weighted;
          tc "alap + slack" `Quick test_alap_slack;
          tc "alap too short" `Quick test_alap_too_short;
          tc "alap long horizon" `Quick test_alap_longer_horizon;
          tc "critical path ns" `Quick test_critical_path_ns;
          tc "levels" `Quick test_levels;
          tc "max width profile" `Quick test_max_width_profile;
          tc "reachable" `Quick test_reachable;
        ] );
      ( "transform",
        [
          tc "unroll counts" `Quick test_unroll_counts;
          tc "unroll once" `Quick test_unroll_once_is_body;
          tc "unroll validates" `Quick test_unroll_validates;
          tc "unroll acyclic" `Quick test_unroll_acyclic_quotient;
          tc "cse merges duplicates" `Quick test_cse_merges_duplicates;
          tc "cse respects order" `Quick test_cse_respects_order;
          tc "cse never merges memory" `Quick test_cse_never_merges_memory;
          tc "balance shortens chains" `Quick test_balance_shortens_chain;
          tc "balance conservative" `Quick test_balance_leaves_diverse_graphs_alone;
          QCheck_alcotest.to_alcotest transforms_preserve_semantics;
          tc "dead node elimination" `Quick test_dead_node_elimination;
          tc "dce keeps memory writes" `Quick test_dce_keeps_memory_writes;
          tc "rename" `Quick test_rename;
        ] );
      ( "benchmarks",
        [
          tc "ar filter (Fig 6)" `Quick test_ar_filter_profile;
          tc "ewf" `Quick test_ewf_profile;
          tc "fir" `Quick test_fir_profile;
          tc "fir validates" `Quick test_fir_validates;
          tc "diffeq" `Quick test_diffeq_profile;
          tc "dct8" `Quick test_dct8_profile;
          tc "memory pipeline" `Quick test_memory_pipeline_profile;
          tc "random deterministic" `Quick test_random_dag_deterministic;
          QCheck_alcotest.to_alcotest random_dag_always_valid;
        ] );
      ( "partition",
        [
          tc "whole" `Quick test_whole_partitioning;
          tc "by_levels balanced" `Quick test_by_levels_balanced;
          tc "by_levels three" `Quick test_by_levels_three;
          tc "by_levels validates" `Quick test_by_levels_validates;
          tc "rejects double assignment" `Quick test_partitioning_rejects_double_assignment;
          tc "rejects uncovered" `Quick test_partitioning_rejects_uncovered;
          tc "rejects duplicate label" `Quick test_partitioning_rejects_duplicate_label;
          tc "rejects mutual dependency" `Quick test_partitioning_rejects_mutual_dependency;
          tc "rejects empty" `Quick test_partition_make_rejects_empty;
          tc "flows" `Quick test_flows_diamond;
          tc "flow dedup per consumer" `Quick test_flow_value_counted_once_per_consumer;
          tc "external io bits" `Quick test_external_io_bits;
          tc "quotient + topo" `Quick test_quotient_and_topo;
          tc "subgraph roundtrip" `Quick test_subgraph_roundtrip;
          tc "part_of" `Quick test_part_of_valid;
          tc "cut bits total" `Quick test_cut_bits_total;
          QCheck_alcotest.to_alcotest by_levels_always_legal;
          QCheck_alcotest.to_alcotest partition_index_matches_naive;
        ] );
      ( "eval",
        [
          tc "diamond" `Quick test_eval_diamond;
          tc "width masking" `Quick test_eval_masking;
          tc "select + compare" `Quick test_eval_select_compare;
          tc "memory" `Quick test_eval_memory;
          tc "unknown binding" `Quick test_eval_unknown_binding_rejected;
          tc "equivalence check" `Quick test_eval_equivalent_rename;
          tc "partitioning preserves semantics" `Quick test_partitioning_preserves_semantics;
          QCheck_alcotest.to_alcotest partitioning_preserves_semantics_prop;
        ] );
      ( "behavior",
        [
          tc "mac program" `Quick test_behavior_mac;
          tc "if merges with select" `Quick test_behavior_if_merges;
          tc "unchanged vars unmerged" `Quick test_behavior_if_same_value_no_merge;
          tc "memory ops" `Quick test_behavior_memory_ops;
          tc "compile errors" `Quick test_behavior_errors;
          tc "stmt count" `Quick test_behavior_stmt_count;
          tc "feeds the partitioner" `Quick test_behavior_feeds_chop;
        ] );
      ("signature", [ tc "pinned benchmarks and partitions" `Quick test_signature_pinned ]);
      ("dot", [ tc "output" `Quick test_dot_output ]);
    ]
