type node_id = int

type node = {
  id : node_id;
  op : Op.t;
  width : Chop_util.Units.bits;
  name : string;
}

(* Ids are dense (0 .. size - 1), so every per-node table is an array
   indexed by id, and everything an accessor returns is computed once by
   [build].  No array is written after [build] and no field is lazy, so
   domains can read one graph at the same time. *)
type t = {
  gname : string;
  node_arr : node array;
  succ_arr : node_id list array; (* in edge-insertion order *)
  pred_arr : node_id list array;
  topo_nodes : node list; (* topological order *)
  input_nodes : node list;
  output_nodes : node list;
  op_nodes : node list;
  n_ops : int;
  edge_list : (node_id * node_id) list;
  profile : (string * int) list;
  blocks : string list;
}

type builder = {
  bname : string;
  mutable next : int;
  mutable bnodes : node list; (* reversed *)
  mutable bedges : (node_id * node_id) list; (* reversed *)
}

exception Invalid_graph of string

let builder ?(name = "dfg") () = { bname = name; next = 0; bnodes = []; bedges = [] }

let add_node ?name b ~op ~width =
  if width <= 0 then invalid_arg "Graph.add_node: width must be positive";
  let id = b.next in
  b.next <- id + 1;
  let name =
    match name with Some n -> n | None -> Printf.sprintf "%s%d" (Op.to_string op) id
  in
  b.bnodes <- { id; op; width; name } :: b.bnodes;
  id

let add_edge b ~src ~dst =
  let known id = id >= 0 && id < b.next in
  if not (known src && known dst) then invalid_arg "Graph.add_edge: unknown node";
  b.bedges <- (src, dst) :: b.bedges

(* Kahn's algorithm; raises on cycles.  The sources are ready in ascending
   id order, and each popped node puts the successors it releases, in
   successor order, in front of the rest.  [ready] is a stack whose top is
   the next node out; every node is pushed at most once. *)
let topological succ_arr pred_arr =
  let n = Array.length succ_arr in
  let indeg = Array.map List.length pred_arr in
  let ready = Array.make n 0 and top = ref 0 in
  let push id =
    ready.(!top) <- id;
    incr top
  in
  for id = n - 1 downto 0 do
    if indeg.(id) = 0 then push id
  done;
  let order = ref [] and count = ref 0 in
  while !top > 0 do
    decr top;
    let id = ready.(!top) in
    order := id :: !order;
    incr count;
    let first = !top in
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then push s)
      succ_arr.(id);
    (* the first successor released must be the next one out *)
    let i = ref first and j = ref (!top - 1) in
    while !i < !j do
      let x = ready.(!i) in
      ready.(!i) <- ready.(!j);
      ready.(!j) <- x;
      incr i;
      decr j
    done
  done;
  if !count <> n then
    raise (Invalid_graph "cycle detected: behavioral DFGs must be acyclic");
  List.rev !order

let profile_of ops =
  List.map (fun n -> Op.functional_class n.op) ops
  |> List.sort String.compare
  |> List.fold_left
       (fun acc cls ->
         match acc with
         | (c, k) :: rest when String.equal c cls -> (c, k + 1) :: rest
         | _ -> (cls, 1) :: acc)
       []
  |> List.rev

let build b =
  (* ids were handed out in order, so the reversed list is the id order *)
  let node_arr = Array.of_list (List.rev b.bnodes) in
  let n = Array.length node_arr in
  let succ_arr = Array.make n [] and pred_arr = Array.make n [] in
  (* prepending over the reversed edges leaves each list in edge-insertion
     order, which carries the operand positions of non-commutative
     operations (Sub, Select, ...) *)
  List.iter
    (fun (src, dst) ->
      succ_arr.(src) <- dst :: succ_arr.(src);
      pred_arr.(dst) <- src :: pred_arr.(dst))
    b.bedges;
  (* arities before the cycle check, in ascending id order: the first
     violation found is the one reported *)
  Array.iter
    (fun nd ->
      let indeg = List.length pred_arr.(nd.id) in
      let lo, hi = Op.arity nd.op in
      if indeg < lo || indeg > hi then
        raise
          (Invalid_graph
             (Printf.sprintf "node %s (%s) has %d inputs, expected %d..%d" nd.name
                (Op.to_string nd.op) indeg lo hi)))
    node_arr;
  let order = topological succ_arr pred_arr in
  let topo_nodes = List.map (fun id -> node_arr.(id)) order in
  let with_op op = List.filter (fun nd -> nd.op = op) topo_nodes in
  let op_nodes = List.filter (fun nd -> Op.is_computational nd.op) topo_nodes in
  {
    gname = b.bname;
    node_arr;
    succ_arr;
    pred_arr;
    topo_nodes;
    input_nodes = with_op Op.Input;
    output_nodes = with_op Op.Output;
    op_nodes;
    n_ops = List.length op_nodes;
    edge_list =
      List.concat_map (fun id -> List.map (fun s -> (id, s)) succ_arr.(id)) order;
    profile = profile_of op_nodes;
    blocks =
      List.filter_map (fun nd -> Op.memory_block nd.op) topo_nodes
      |> List.sort_uniq String.compare;
  }

let name g = g.gname
let size g = Array.length g.node_arr
let nodes g = g.topo_nodes
let mem g id = id >= 0 && id < Array.length g.node_arr
let node g id = if mem g id then g.node_arr.(id) else raise Not_found
let succs g id = if mem g id then g.succ_arr.(id) else []
let preds g id = if mem g id then g.pred_arr.(id) else []
let edges g = g.edge_list
let inputs g = g.input_nodes
let outputs g = g.output_nodes
let operations g = g.op_nodes
let op_count g = g.n_ops
let op_profile g = g.profile
let memory_blocks g = g.blocks

let total_input_bits g = Chop_util.Listx.sum_by (fun n -> n.width) g.input_nodes
let total_output_bits g =
  Chop_util.Listx.sum_by
    (fun n ->
      match g.pred_arr.(n.id) with
      | [ p ] -> g.node_arr.(p).width
      | _ -> n.width)
    g.output_nodes

(* Buffer appends only: this string is built for every prediction-cache
   key, so no Printf or string_of_int per node or edge.  The bytes are
   those of "%d:%s:%d;" per node in topological order, "|", then "%d>%d;"
   per edge in {!edges} order. *)
let signature g =
  let buf = Buffer.create 512 in
  (* ids and widths are non-negative *)
  let rec add_int i =
    if i >= 10 then add_int (i / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))
  in
  List.iter
    (fun n ->
      add_int n.id;
      Buffer.add_char buf ':';
      Buffer.add_string buf (Op.to_string n.op);
      Buffer.add_char buf ':';
      add_int n.width;
      Buffer.add_char buf ';')
    g.topo_nodes;
  Buffer.add_char buf '|';
  List.iter
    (fun (src, dst) ->
      add_int src;
      Buffer.add_char buf '>';
      add_int dst;
      Buffer.add_char buf ';')
    g.edge_list;
  Buffer.contents buf

let induced g ~name keep =
  let kept = Array.make (size g) false in
  List.iter
    (fun id ->
      if not (mem g id) then invalid_arg "Graph.induced: unknown node";
      if not (Op.is_computational g.node_arr.(id).op) then
        invalid_arg "Graph.induced: boundary nodes cannot be selected";
      kept.(id) <- true)
    keep;
  let b = builder ~name () in
  (* original id -> new id: the copy of a kept node, or the input that
     stands for an external producer *)
  let fresh = Array.make (size g) (-1) in
  List.iter
    (fun n ->
      if kept.(n.id) then fresh.(n.id) <- add_node b ~name:n.name ~op:n.op ~width:n.width)
    g.topo_nodes;
  let in_map = ref [] and out_map = ref [] in
  (* External producers feeding kept nodes become Inputs (one per producer). *)
  List.iter
    (fun n ->
      if kept.(n.id) then
        List.iter
          (fun p ->
            if (not kept.(p)) && fresh.(p) < 0 then begin
              let pn = g.node_arr.(p) in
              (* Constants are materialized locally (coefficients do
                 not travel between chips); everything else becomes a
                 boundary input of the partition. *)
              let op = match pn.op with Op.Const -> Op.Const | _ -> Op.Input in
              fresh.(p) <- add_node b ~name:("in_" ^ pn.name) ~op ~width:pn.width;
              in_map := (p, fresh.(p)) :: !in_map
            end;
            add_edge b ~src:fresh.(p) ~dst:fresh.(n.id))
          g.pred_arr.(n.id))
    g.topo_nodes;
  (* Kept producers feeding external consumers (or original outputs) become
     Outputs (one per producer). *)
  List.iter
    (fun n ->
      if kept.(n.id) && List.exists (fun s -> not kept.(s)) g.succ_arr.(n.id) then begin
        let o = add_node b ~name:("out_" ^ n.name) ~op:Op.Output ~width:n.width in
        add_edge b ~src:fresh.(n.id) ~dst:o;
        out_map := (n.id, o) :: !out_map
      end)
    g.topo_nodes;
  (build b, !in_map, !out_map)

let pp ppf g =
  Format.fprintf ppf "@[<v>graph %s: %d nodes (%d operations)@," g.gname (size g)
    (op_count g);
  List.iter
    (fun (cls, n) -> Format.fprintf ppf "  %s: %d@," cls n)
    (op_profile g);
  Format.fprintf ppf "@]"
