(* Reconstruction of the paper's Figure 2 example partitioning: five
   partitions (P1-P5) and two memory units (M_A on-chip, M_B off-the-shelf)
   as a four-chip design.  Chip 4 carries two partitions (P4 and P5), and
   the data flow among *chips* is cyclic (chip4 -> chip3 -> chip4) even
   though the partition quotient graph is acyclic — exactly the situation
   section 2.3 allows.

   Run with:  dune exec examples/figure2_system.exe *)

let graph () =
  (* a five-stage behavioral spec shaped like Figure 3's task graph:
       P1 -> P2 -> P4 -> P3 -> P5
       P1 -> P3, P2 accesses M_A, P4 accesses M_B *)
  let b = Chop_dfg.Graph.builder ~name:"figure2" () in
  let width = 16 in
  let input name = Chop_dfg.Graph.add_node b ~name ~op:Chop_dfg.Op.Input ~width in
  let const name = Chop_dfg.Graph.add_node b ~name ~op:Chop_dfg.Op.Const ~width in
  let output name v =
    let o = Chop_dfg.Graph.add_node b ~name ~op:Chop_dfg.Op.Output ~width in
    Chop_dfg.Graph.add_edge b ~src:v ~dst:o
  in
  let binop op name x y =
    let n = Chop_dfg.Graph.add_node b ~name ~op ~width in
    Chop_dfg.Graph.add_edge b ~src:x ~dst:n;
    Chop_dfg.Graph.add_edge b ~src:y ~dst:n;
    n
  in
  let unop op name x =
    let n = Chop_dfg.Graph.add_node b ~name ~op ~width in
    Chop_dfg.Graph.add_edge b ~src:x ~dst:n;
    n
  in
  let x = input "x" and y = input "y" in
  let c1 = const "c1" and c2 = const "c2" in
  (* P1: front-end scaling *)
  let p1_m = binop Chop_dfg.Op.Mult "p1_m" x c1 in
  let p1_a = binop Chop_dfg.Op.Add "p1_a" p1_m y in
  (* P2: accumulation against table M_A *)
  let p2_r = Chop_dfg.Graph.add_node b ~name:"p2_r" ~op:(Chop_dfg.Op.Mem_read "M_A") ~width in
  let p2_m = binop Chop_dfg.Op.Mult "p2_m" p1_a p2_r in
  let p2_a = binop Chop_dfg.Op.Add "p2_a" p2_m c2 in
  (* P4: writes the stream buffer M_B *)
  let p4_m = binop Chop_dfg.Op.Mult "p4_m" p2_a p2_a in
  let p4_w = unop (Chop_dfg.Op.Mem_write "M_B") "p4_w" p4_m in
  ignore p4_w;
  let p4_s = binop Chop_dfg.Op.Sub "p4_s" p4_m p1_a in
  (* P3: combines P1 and P4 results *)
  let p3_a = binop Chop_dfg.Op.Add "p3_a" p1_a p4_s in
  let p3_m = binop Chop_dfg.Op.Mult "p3_m" p3_a c1 in
  (* P5: back-end on chip 4 *)
  let p5_a = binop Chop_dfg.Op.Add "p5_a" p3_m p4_s in
  let p5_s = unop Chop_dfg.Op.Shift "p5_s" p5_a in
  output "out" p5_s;
  let g = Chop_dfg.Graph.build b in
  let part label members = Chop_dfg.Partition.make ~label members in
  let pg =
    Chop_dfg.Partition.partitioning g
      [
        part "P1" [ p1_m; p1_a ];
        part "P2" [ p2_r; p2_m; p2_a ];
        part "P3" [ p3_a; p3_m ];
        part "P4" [ p4_m; p4_w; p4_s ];
        part "P5" [ p5_a; p5_s ];
      ]
  in
  (g, pg)

let () =
  let g, pg = graph () in
  (* chips: P1|chip1, P2|chip2, P3|chip3, P4+P5|chip4 — data flows
     chip4 (P4) -> chip3 (P3) -> chip4 (P5): a cycle among chips. *)
  let package = Chop_tech.Mosis.package_84 in
  let chips =
    List.map
      (fun i -> { Chop.Spec.chip_name = Printf.sprintf "chip%d" i; package })
      [ 1; 2; 3; 4 ]
  in
  let assignment =
    [ ("P1", "chip1"); ("P2", "chip2"); ("P3", "chip3"); ("P4", "chip4");
      ("P5", "chip4") ]
  in
  let m_a =
    Chop_tech.Memory.make ~name:"M_A" ~words:128 ~word_width:16 ~ports:1
      ~access:120. ~placement:(Chop_tech.Memory.On_chip 5000.)
  in
  let m_b =
    Chop_tech.Memory.make ~name:"M_B" ~words:1024 ~word_width:16 ~ports:1
      ~access:200. ~placement:(Chop_tech.Memory.Off_chip_package 28)
  in
  (* Table 1 has no shifter: the designer extends the library (section 2.2,
     "a library of components") with a 3u barrel-shifter cell *)
  let library =
    Chop_tech.Component.make ~name:"shift1" ~cls:"shift" ~width:16 ~area:900.
      ~delay:40. ()
    :: Chop_tech.Mosis.experiment_library
  in
  let spec =
    Chop.Spec.make
      ~memories:[ m_a; m_b ]
      ~memory_hosts:[ ("M_A", "chip2") ]
      ~graph:g ~library:library ~chips
      ~partitioning:pg ~assignment
      ~clocks:(Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1 ~transfer_ratio:1)
      ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle)
      ~criteria:(Chop_bad.Feasibility.criteria ~perf:40000. ~delay:40000. ())
      ()
  in
  print_endline "Figure 2 reconstruction: 5 partitions, 4 chips, 2 memories\n";
  let ctx = Chop.Integration.context spec in
  print_endline "data-transfer tasks created by CHOP (Figure 3's task graph):";
  List.iter
    (fun t -> Format.printf "  %a@." Chop.Transfer.pp t)
    (Chop.Integration.tasks_of ctx);
  (* the chip-level flow is cyclic; show it *)
  let chip_edges =
    List.filter_map
      (fun t ->
        match (t.Chop.Transfer.src_chip, t.Chop.Transfer.dst_chip) with
        | Some a, Some b when a <> b -> Some (a, b)
        | _ -> None)
      (Chop.Integration.tasks_of ctx)
    |> List.sort_uniq Stdlib.compare
  in
  print_endline "\ninter-chip flows (note chip4 -> chip3 and chip3 -> chip4):";
  List.iter (fun (a, b) -> Printf.printf "  %s -> %s\n" a b) chip_edges;
  let report =
    Chop.Explore.Session.run
      (Chop.Explore.Session.create Chop.Explore.Config.default spec)
  in
  match report.Chop.Explore.outcome.Chop.Search.feasible with
  | [] -> print_endline "\nno feasible implementation under these constraints"
  | best :: _ ->
      Printf.printf "\nbest feasible implementation:\n\n%s"
        (Chop.Report.guideline spec best)
