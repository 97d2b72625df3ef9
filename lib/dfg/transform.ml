module IntSet = Set.Make (Int)

type loop = {
  body : Graph.t;
  trip_count : int;
  carried : (string * string) list;
}

let find_by_name g name =
  match List.find_opt (fun n -> n.Graph.name = name) (Graph.nodes g) with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Transform: no node named %S" name)

let unroll ?name { body; trip_count; carried } =
  if trip_count < 1 then invalid_arg "Transform.unroll: trip_count < 1";
  let carried_pairs =
    List.map
      (fun (out_name, in_name) ->
        let o = find_by_name body out_name and i = find_by_name body in_name in
        if o.Graph.op <> Op.Output then
          invalid_arg (Printf.sprintf "Transform.unroll: %S is not an output" out_name);
        if i.Graph.op <> Op.Input then
          invalid_arg (Printf.sprintf "Transform.unroll: %S is not an input" in_name);
        (o, i))
      carried
  in
  let carried_out_ids = List.map (fun (o, _) -> o.Graph.id) carried_pairs in
  let carried_in_ids = List.map (fun (_, i) -> i.Graph.id) carried_pairs in
  let gname =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "%s_x%d" (Graph.name body) trip_count
  in
  let b = Graph.builder ~name:gname () in
  (* clone the body [trip_count] times; [feeders] maps a carried input id of
     the current iteration to the producer (new id) of the previous
     iteration's matching output value. *)
  let clone iter feeders =
    let remap = Hashtbl.create 32 in
    (* Carried inputs of iterations > 0 are replaced by direct wiring. *)
    List.iter
      (fun n ->
        let id = n.Graph.id in
        let is_carried_in = List.mem id carried_in_ids && iter > 0 in
        let is_carried_out = List.mem id carried_out_ids && iter < trip_count - 1 in
        if is_carried_in then
          Hashtbl.replace remap id (List.assoc id feeders)
        else if is_carried_out then
          (* dropped: its single predecessor's value feeds the next iter *)
          ()
        else
          let nid =
            Graph.add_node b
              ~name:(Printf.sprintf "%s_i%d" n.Graph.name iter)
              ~op:n.Graph.op ~width:n.Graph.width
          in
          Hashtbl.replace remap id nid)
      (Graph.nodes body);
    List.iter
      (fun (src, dst) ->
        match (Hashtbl.find_opt remap src, Hashtbl.find_opt remap dst) with
        | Some s, Some d -> Graph.add_edge b ~src:s ~dst:d
        | _ -> () (* edge into a dropped carried output *))
      (Graph.edges body);
    (* next iteration's feeders: for each carried pair, the new id of the
       value feeding this iteration's carried output *)
    List.map
      (fun (o, i) ->
        let producer =
          match Graph.preds body o.Graph.id with
          | [ p ] -> p
          | _ -> invalid_arg "Transform.unroll: carried output arity"
        in
        let new_producer =
          match Hashtbl.find_opt remap producer with
          | Some np -> np
          | None ->
              (* producer itself was a dropped node: cannot happen because
                 carried outputs are distinct nodes from producers *)
              invalid_arg "Transform.unroll: carried output fed by dropped node"
        in
        (i.Graph.id, new_producer))
      carried_pairs
  in
  let rec iterate iter feeders =
    if iter = trip_count then ()
    else
      let feeders' = clone iter feeders in
      iterate (iter + 1) feeders'
  in
  iterate 0 [];
  Graph.build b

let common_subexpression_elimination g =
  let b = Graph.builder ~name:(Graph.name g) () in
  let remap = Hashtbl.create 32 in
  (* canonical key -> representative new id *)
  let seen = Hashtbl.create 32 in
  let commutative = function
    | Op.Add | Op.Mult | Op.Logic -> true
    | _ -> false
  in
  List.iter
    (fun n ->
      let id = n.Graph.id in
      let operands = List.map (fun p -> Hashtbl.find remap p) (Graph.preds g id) in
      let key =
        match n.Graph.op with
        | Op.Const -> Some (`Const (n.Graph.name, n.Graph.width))
        | op when Op.is_computational op && not (Op.is_memory op) ->
            let ops =
              if commutative op then List.sort Int.compare operands else operands
            in
            Some (`Op (op, ops))
        | _ -> None
      in
      let existing =
        match key with Some k -> Hashtbl.find_opt seen k | None -> None
      in
      match existing with
      | Some rep -> Hashtbl.replace remap id rep
      | None ->
          let nid =
            Graph.add_node b ~name:n.Graph.name ~op:n.Graph.op ~width:n.Graph.width
          in
          List.iter (fun src -> Graph.add_edge b ~src ~dst:nid) operands;
          Hashtbl.replace remap id nid;
          (match key with Some k -> Hashtbl.replace seen k nid | None -> ()))
    (Graph.nodes g);
  Graph.build b

let is_associative = function
  | Op.Add | Op.Mult | Op.Logic -> true
  | Op.Input | Op.Output | Op.Const | Op.Sub | Op.Div | Op.Compare | Op.Shift
  | Op.Select | Op.Mem_read _ | Op.Mem_write _ ->
      false

let balance_associative g =
  (* interior node: an associative node absorbed into its single same-op
     consumer's tree *)
  let interior id =
    let n = Graph.node g id in
    is_associative n.Graph.op
    && (match Graph.succs g id with
       | [ c ] ->
           let cn = Graph.node g c in
           cn.Graph.op = n.Graph.op && cn.Graph.width = n.Graph.width
       | _ -> false)
  in
  let b = Graph.builder ~name:(Graph.name g) () in
  let remap = Hashtbl.create 32 in
  (* leaves of the tree rooted at a non-interior associative node, in
     operand order *)
  let rec leaves_of root_op width id =
    let n = Graph.node g id in
    if n.Graph.op = root_op && n.Graph.width = width && interior id then
      List.concat_map (leaves_of root_op width) (Graph.preds g id)
    else [ id ]
  in
  List.iter
    (fun n ->
      let id = n.Graph.id in
      if interior id then () (* materialized inside the root's tree *)
      else if is_associative n.Graph.op then begin
        let leaves =
          List.concat_map
            (leaves_of n.Graph.op n.Graph.width)
            (Graph.preds g id)
        in
        let leaf_ids = List.map (fun l -> Hashtbl.find remap l) leaves in
        (* balanced reduction; the final combiner keeps the root's name *)
        let rec reduce = function
          | [] -> invalid_arg "balance_associative: empty tree (internal)"
          | [ v ] -> v
          | vs ->
              let rec pair = function
                | [] -> []
                | [ v ] -> [ v ]
                | v1 :: v2 :: rest ->
                    let nn =
                      Graph.add_node b ~name:(n.Graph.name ^ "_t") ~op:n.Graph.op
                        ~width:n.Graph.width
                    in
                    Graph.add_edge b ~src:v1 ~dst:nn;
                    Graph.add_edge b ~src:v2 ~dst:nn;
                    nn :: pair rest
              in
              reduce (pair vs)
        in
        match leaf_ids with
        | [ a; b_ ] ->
            let nid =
              Graph.add_node b ~name:n.Graph.name ~op:n.Graph.op ~width:n.Graph.width
            in
            Graph.add_edge b ~src:a ~dst:nid;
            Graph.add_edge b ~src:b_ ~dst:nid;
            Hashtbl.replace remap id nid
        | leaf_ids -> Hashtbl.replace remap id (reduce leaf_ids)
      end
      else begin
        let nid =
          Graph.add_node b ~name:n.Graph.name ~op:n.Graph.op ~width:n.Graph.width
        in
        List.iter
          (fun p -> Graph.add_edge b ~src:(Hashtbl.find remap p) ~dst:nid)
          (Graph.preds g id);
        Hashtbl.replace remap id nid
      end)
    (Graph.nodes g);
  Graph.build b

let dead_node_elimination g =
  (* Backward closure from outputs and memory writes. *)
  let live = ref IntSet.empty in
  let rec visit id =
    if not (IntSet.mem id !live) then begin
      live := IntSet.add id !live;
      List.iter visit (Graph.preds g id)
    end
  in
  List.iter
    (fun n ->
      match n.Graph.op with
      | Op.Output | Op.Mem_write _ -> visit n.Graph.id
      | _ -> ())
    (Graph.nodes g);
  let b = Graph.builder ~name:(Graph.name g) () in
  let remap = Hashtbl.create 32 in
  List.iter
    (fun n ->
      if IntSet.mem n.Graph.id !live then
        Hashtbl.replace remap n.Graph.id
          (Graph.add_node b ~name:n.Graph.name ~op:n.Graph.op ~width:n.Graph.width))
    (Graph.nodes g);
  List.iter
    (fun (src, dst) ->
      match (Hashtbl.find_opt remap src, Hashtbl.find_opt remap dst) with
      | Some s, Some d -> Graph.add_edge b ~src:s ~dst:d
      | _ -> ())
    (Graph.edges g);
  Graph.build b

let rename name g =
  let b = Graph.builder ~name () in
  let remap = Hashtbl.create 32 in
  List.iter
    (fun n ->
      Hashtbl.replace remap n.Graph.id
        (Graph.add_node b ~name:n.Graph.name ~op:n.Graph.op ~width:n.Graph.width))
    (Graph.nodes g);
  List.iter
    (fun (src, dst) ->
      Graph.add_edge b ~src:(Hashtbl.find remap src) ~dst:(Hashtbl.find remap dst))
    (Graph.edges g);
  Graph.build b

let renumber ?(seed = 1) g =
  (* a deterministic Lehmer permutation of the node-insertion order: every
     node keeps its operation, width and name but receives a different id,
     so the rebuilt graph is isomorphic to [g] while Graph.signature (and
     any other id-bearing identity) differs *)
  let nodes = Array.of_list (Graph.nodes g) in
  let n = Array.length nodes in
  let state = ref (max 1 (seed land 0x3FFFFFFF)) in
  let next_int bound =
    state := (!state * 48271) mod 0x7FFFFFFF;
    !state mod bound
  in
  for i = n - 1 downto 1 do
    let j = next_int (i + 1) in
    let tmp = nodes.(i) in
    nodes.(i) <- nodes.(j);
    nodes.(j) <- tmp
  done;
  let b = Graph.builder ~name:(Graph.name g) () in
  let remap = Hashtbl.create 32 in
  Array.iter
    (fun (nd : Graph.node) ->
      Hashtbl.replace remap nd.Graph.id
        (Graph.add_node b ~name:nd.Graph.name ~op:nd.Graph.op
           ~width:nd.Graph.width))
    nodes;
  List.iter
    (fun (src, dst) ->
      Graph.add_edge b ~src:(Hashtbl.find remap src) ~dst:(Hashtbl.find remap dst))
    (Graph.edges g);
  Graph.build b
