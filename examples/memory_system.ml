(* A memory-bound design: a loop kernel streaming through two memory
   blocks, unrolled per the paper's restriction (section 2.3: inner loops
   with determinate counts are unrolled so the DFG is acyclic), then
   partitioned with the memories assigned to chips (input group 4).

   Compares an on-chip memory hierarchy against off-the-shelf memory chips
   ("the use of off-the-shelf memory chips is allowed by CHOP", section 2.4).

   Run with:  dune exec examples/memory_system.exe *)

open Chop_util

(* loop body: acc' = acc + k * mem_A[..]; store to B each iteration *)
let kernel_body () =
  let b = Chop_dfg.Graph.builder ~name:"mac_body" () in
  let acc_in = Chop_dfg.Graph.add_node b ~name:"acc_in" ~op:Chop_dfg.Op.Input ~width:16 in
  let k = Chop_dfg.Graph.add_node b ~name:"k" ~op:Chop_dfg.Op.Const ~width:16 in
  let load = Chop_dfg.Graph.add_node b ~name:"load" ~op:(Chop_dfg.Op.Mem_read "A") ~width:16 in
  let mul = Chop_dfg.Graph.add_node b ~name:"mul" ~op:Chop_dfg.Op.Mult ~width:16 in
  let add = Chop_dfg.Graph.add_node b ~name:"add" ~op:Chop_dfg.Op.Add ~width:16 in
  let store = Chop_dfg.Graph.add_node b ~name:"store" ~op:(Chop_dfg.Op.Mem_write "B") ~width:16 in
  let acc_out = Chop_dfg.Graph.add_node b ~name:"acc_out" ~op:Chop_dfg.Op.Output ~width:16 in
  Chop_dfg.Graph.add_edge b ~src:k ~dst:mul;
  Chop_dfg.Graph.add_edge b ~src:load ~dst:mul;
  Chop_dfg.Graph.add_edge b ~src:acc_in ~dst:add;
  Chop_dfg.Graph.add_edge b ~src:mul ~dst:add;
  Chop_dfg.Graph.add_edge b ~src:add ~dst:store;
  Chop_dfg.Graph.add_edge b ~src:add ~dst:acc_out;
  Chop_dfg.Graph.build b

let memory ~ports ~placement name =
  Chop_tech.Memory.make ~name ~words:256 ~word_width:16 ~ports ~access:150.
    ~placement

let spec_with ~ports ~on_chip =
  let body = kernel_body () in
  let graph =
    Chop_dfg.Transform.unroll
      { Chop_dfg.Transform.body; trip_count = 4; carried = [ ("acc_out", "acc_in") ] }
  in
  let partitioning = Chop_dfg.Partition.whole graph in
  let placement_a, host_a =
    if on_chip then (Chop_tech.Memory.On_chip 6000., [ ("A", "chip1") ])
    else (Chop_tech.Memory.Off_chip_package 28, [])
  in
  let placement_b, host_b =
    if on_chip then (Chop_tech.Memory.On_chip 6000., [ ("B", "chip1") ])
    else (Chop_tech.Memory.Off_chip_package 28, [])
  in
  Chop.Rig.custom
    ~memories:[ memory ~ports ~placement:placement_a "A";
                memory ~ports ~placement:placement_b "B" ]
    ~memory_hosts:(host_a @ host_b) ~graph ~partitioning
    ~package:Chop_tech.Mosis.package_84
    ~clocks:(Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1 ~transfer_ratio:1)
    ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle)
    ~criteria:(Chop_bad.Feasibility.criteria ~perf:60000. ~delay:60000. ())
    ()

let () =
  print_endline "Unrolled multiply-accumulate kernel over memory blocks A/B\n";
  let table =
    Texttable.create
      [
        ("Memory", Texttable.Center); ("Ports", Texttable.Right);
        ("Feasible", Texttable.Right); ("Best II", Texttable.Right);
        ("Delay cycles", Texttable.Right); ("Signal pins", Texttable.Right);
      ]
  in
  List.iter
    (fun on_chip ->
      List.iter
        (fun ports ->
          let spec = spec_with ~ports ~on_chip in
          let report =
            Chop.Explore.Session.run
              (Chop.Explore.Session.create
                 (Chop.Explore.Config.make
                    ~heuristic:Chop.Explore.Enumeration ())
                 spec)
          in
          let feas = report.Chop.Explore.outcome.Chop.Search.feasible in
          let cells =
            match feas with
            | [] -> [ "-"; "-"; "-" ]
            | s :: _ ->
                [
                  string_of_int s.Chop.Integration.ii_main;
                  string_of_int s.Chop.Integration.delay_cycles;
                  String.concat "/"
                    (List.map
                       (fun cr -> string_of_int cr.Chop.Integration.signal_pins)
                       s.Chop.Integration.chip_reports);
                ]
          in
          Texttable.add_row table
            ([
               (if on_chip then "on-chip" else "off-the-shelf");
               string_of_int ports;
               string_of_int (List.length feas);
             ]
            @ cells))
        [ 1; 2 ];
      Texttable.add_separator table)
    [ true; false ];
  Texttable.print table;
  print_endline
    "\nOff-the-shelf memory chips free die area but burn the accessing\n\
     chip's pins on the memory bus; a second port raises the deliverable\n\
     memory bandwidth and unlocks faster initiation intervals."
