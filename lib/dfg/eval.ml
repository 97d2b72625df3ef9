type memory_model = {
  read : string -> int;
  mutable writes : (string * int) list;
}

let constant_memory v = { read = (fun _ -> v); writes = [] }

exception Eval_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

let mask width v =
  if width >= 62 then v else v land ((1 lsl width) - 1)

let run ?(inputs = []) ?(consts = []) ?memory g =
  let memory = match memory with Some m -> m | None -> constant_memory 0 in
  let by_name tag bindings =
    List.iter
      (fun (name, _) ->
        if
          not
            (List.exists (fun n -> n.Graph.name = name) (Graph.nodes g))
        then fail "%s %S does not name a node of %s" tag name (Graph.name g))
      bindings
  in
  by_name "input" inputs;
  by_name "const" consts;
  let values = Hashtbl.create 64 in
  let value id =
    match Hashtbl.find_opt values id with
    | Some v -> v
    | None -> fail "node %d evaluated before its operands (internal)" id
  in
  List.iter
    (fun n ->
      let id = n.Graph.id in
      let w = n.Graph.width in
      let operands = List.map value (Graph.preds g id) in
      let result =
        match (n.Graph.op, operands) with
        | Op.Input, [] ->
            mask w (Option.value ~default:0 (List.assoc_opt n.Graph.name inputs))
        | Op.Const, [] ->
            mask w (Option.value ~default:1 (List.assoc_opt n.Graph.name consts))
        | Op.Output, [ v ] -> v
        | Op.Add, [ a; b ] -> mask w (a + b)
        | Op.Sub, [ a; b ] -> mask w (a - b)
        | Op.Mult, [ a; b ] -> mask w (a * b)
        | Op.Div, [ a; b ] -> if b = 0 then 0 else mask w (a / b)
        | Op.Compare, [ a; b ] -> if a < b then 1 else 0
        | Op.Logic, [ a; b ] -> mask w (a land b)
        | Op.Shift, [ a ] -> mask w (a lsl 1)
        | Op.Shift, [ a; b ] -> mask w (a lsl (b mod max 1 w))
        | Op.Select, [ c; a; b ] -> if c <> 0 then a else b
        | Op.Mem_read _, _ ->
            let block = Option.get (Op.memory_block n.Graph.op) in
            mask w (memory.read block)
        | Op.Mem_write _, datum :: _ ->
            let block = Option.get (Op.memory_block n.Graph.op) in
            memory.writes <- memory.writes @ [ (block, datum) ];
            datum
        | op, args ->
            fail "node %s (%s) has %d operands" n.Graph.name (Op.to_string op)
              (List.length args)
      in
      Hashtbl.replace values id result)
    (Graph.nodes g);
  List.filter_map
    (fun n ->
      if n.Graph.op = Op.Output then Some (n.Graph.name, value n.Graph.id)
      else None)
    (Graph.nodes g)

let run_partitioned ?(inputs = []) ?(consts = []) ?memory pg =
  let memory = match memory with Some m -> m | None -> constant_memory 0 in
  let g = pg.Partition.graph in
  (* cut values by original producer id, filled partition by partition *)
  let cut_values = Hashtbl.create 32 in
  List.iter
    (fun p ->
      let sub, in_map, out_map =
        Graph.induced g ~name:p.Partition.label p.Partition.members
      in
      let sub_inputs, sub_consts =
        List.fold_left
          (fun (ins, cs) (orig_id, sub_id) ->
            let sub_name = (Graph.node sub sub_id).Graph.name in
            let orig = Graph.node g orig_id in
            match orig.Graph.op with
            | Op.Const ->
                let v =
                  Option.value ~default:1 (List.assoc_opt orig.Graph.name consts)
                in
                (ins, (sub_name, v) :: cs)
            | Op.Input ->
                let v =
                  Option.value ~default:0 (List.assoc_opt orig.Graph.name inputs)
                in
                ((sub_name, v) :: ins, cs)
            | _ ->
                (* a cut value produced by an earlier partition *)
                (match Hashtbl.find_opt cut_values orig_id with
                | Some v -> ((sub_name, v) :: ins, cs)
                | None ->
                    fail "cut value of node %d not yet produced (internal)"
                      orig_id))
          ([], []) in_map
      in
      let results = run ~inputs:sub_inputs ~consts:sub_consts ~memory sub in
      List.iter
        (fun (orig_id, sub_out_id) ->
          let out_name = (Graph.node sub sub_out_id).Graph.name in
          match List.assoc_opt out_name results with
          | Some v -> Hashtbl.replace cut_values orig_id v
          | None -> fail "missing escaped value %s (internal)" out_name)
        out_map)
    (Partition.topological_parts pg);
  (* assemble the original primary outputs from the cut values *)
  List.filter_map
    (fun n ->
      if n.Graph.op = Op.Output then
        match Graph.preds g n.Graph.id with
        | [ p ] -> (
            let pn = Graph.node g p in
            match pn.Graph.op with
            | Op.Input ->
                Some
                  ( n.Graph.name,
                    mask pn.Graph.width
                      (Option.value ~default:0 (List.assoc_opt pn.Graph.name inputs)) )
            | Op.Const ->
                Some
                  ( n.Graph.name,
                    mask pn.Graph.width
                      (Option.value ~default:1 (List.assoc_opt pn.Graph.name consts)) )
            | _ -> (
                match Hashtbl.find_opt cut_values p with
                | Some v -> Some (n.Graph.name, v)
                | None -> fail "output %s has no computed value" n.Graph.name))
        | _ -> fail "output %s arity (internal)" n.Graph.name
      else None)
    (Graph.nodes g)

let equivalent ?(trials = 25) ?(seed = 0) g1 g2 =
  let names which g =
    List.map (fun n -> n.Graph.name) (which g) |> List.sort String.compare
  in
  let consts g = List.filter (fun n -> n.Graph.op = Op.Const) (Graph.nodes g) in
  let in1 = names Graph.inputs g1 and in2 = names Graph.inputs g2 in
  let out1 = names Graph.outputs g1 and out2 = names Graph.outputs g2 in
  let const1 = names consts g1 and const2 = names consts g2 in
  let const_names = List.sort_uniq String.compare (const1 @ const2) in
  let by_name = List.sort (fun (a, _) (b, _) -> String.compare a b) in
  in1 = in2 && out1 = out2
  && List.for_all
       (fun t ->
         let rng = Random.State.make [| seed + t |] in
         let draw =
           List.map (fun name -> (name, Random.State.int rng (1 lsl 12)))
         in
         let inputs = draw in1 in
         let drawn = draw const_names in
         (* each graph is bound only the constant names it has, so a
            transform that drops or merges a constant shows up as a
            different output.  Each graph also writes to its own memory;
            the writes are compared sorted, because the graph orders
            nothing between independent writes to one block *)
         let run_on g own =
           let consts = List.filter (fun (name, _) -> List.mem name own) drawn in
           let memory = constant_memory 0 in
           let outputs = by_name (run ~inputs ~consts ~memory g) in
           (outputs, List.sort compare memory.writes)
         in
         run_on g1 const1 = run_on g2 const2)
       (Chop_util.Listx.range 1 trials)
