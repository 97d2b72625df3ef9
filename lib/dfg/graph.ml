module IntMap = Map.Make (Int)
module IntSet = Set.Make (Int)

type node_id = int

type node = {
  id : node_id;
  op : Op.t;
  width : Chop_util.Units.bits;
  name : string;
}

type t = {
  gname : string;
  node_map : node IntMap.t;
  succ_map : node_id list IntMap.t; (* in edge-insertion order *)
  pred_map : node_id list IntMap.t;
  order : node_id list; (* topological order, computed at build time *)
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

let multi_add key v m =
  IntMap.update key (function None -> Some [ v ] | Some vs -> Some (v :: vs)) m

(* Kahn's algorithm; raises on cycles. *)
let topological node_map pred_map succ_map =
  let indeg =
    IntMap.map (fun _ -> 0) node_map
    |> IntMap.mapi (fun id _ ->
           match IntMap.find_opt id pred_map with
           | None -> 0
           | Some ps -> List.length ps)
  in
  let ready =
    IntMap.fold (fun id d acc -> if d = 0 then id :: acc else acc) indeg []
    |> List.sort Stdlib.compare
  in
  let rec go order indeg = function
    | [] -> order
    | id :: rest ->
        let succs = Option.value ~default:[] (IntMap.find_opt id succ_map) in
        let indeg, newly =
          List.fold_left
            (fun (indeg, newly) s ->
              let d = IntMap.find s indeg - 1 in
              (IntMap.add s d indeg, if d = 0 then s :: newly else newly))
            (indeg, []) succs
        in
        go (id :: order) indeg (List.rev_append newly rest)
  in
  let order = List.rev (go [] indeg ready) in
  if List.length order <> IntMap.cardinal node_map then
    raise (Invalid_graph "cycle detected: behavioral DFGs must be acyclic");
  order

let build b =
  let node_map =
    List.fold_left (fun m n -> IntMap.add n.id n m) IntMap.empty b.bnodes
  in
  let succ_map, pred_map =
    List.fold_left
      (fun (s, p) (src, dst) -> (multi_add src dst s, multi_add dst src p))
      (IntMap.empty, IntMap.empty)
      (List.rev b.bedges)
  in
  (* multi_add prepends: restore edge-insertion order, which carries the
     operand positions of non-commutative operations (Sub, Select, ...) *)
  let succ_map = IntMap.map List.rev succ_map in
  let pred_map = IntMap.map List.rev pred_map in
  IntMap.iter
    (fun id n ->
      let indeg =
        match IntMap.find_opt id pred_map with None -> 0 | Some ps -> List.length ps
      in
      let lo, hi = Op.arity n.op in
      if indeg < lo || indeg > hi then
        raise
          (Invalid_graph
             (Printf.sprintf "node %s (%s) has %d inputs, expected %d..%d" n.name
                (Op.to_string n.op) indeg lo hi)))
    node_map;
  let order = topological node_map pred_map succ_map in
  { gname = b.bname; node_map; succ_map; pred_map; order }

let name g = g.gname
let size g = IntMap.cardinal g.node_map
let nodes g = List.map (fun id -> IntMap.find id g.node_map) g.order

let node g id =
  match IntMap.find_opt id g.node_map with
  | Some n -> n
  | None -> raise Not_found

let mem g id = IntMap.mem id g.node_map
let succs g id = Option.value ~default:[] (IntMap.find_opt id g.succ_map)
let preds g id = Option.value ~default:[] (IntMap.find_opt id g.pred_map)

let edges g =
  List.concat_map
    (fun id -> List.map (fun s -> (id, s)) (succs g id))
    g.order

let inputs g = List.filter (fun n -> n.op = Op.Input) (nodes g)
let outputs g = List.filter (fun n -> n.op = Op.Output) (nodes g)
let operations g = List.filter (fun n -> Op.is_computational n.op) (nodes g)
let op_count g = List.length (operations g)

let op_profile g =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun n ->
      let cls = Op.functional_class n.op in
      Hashtbl.replace tbl cls (1 + Option.value ~default:0 (Hashtbl.find_opt tbl cls)))
    (operations g);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let memory_blocks g =
  List.filter_map (fun n -> Op.memory_block n.op) (nodes g)
  |> List.sort_uniq String.compare

let total_input_bits g = Chop_util.Listx.sum_by (fun n -> n.width) (inputs g)
let total_output_bits g =
  Chop_util.Listx.sum_by
    (fun n ->
      match preds g n.id with
      | [ p ] -> (node g p).width
      | _ -> n.width)
    (outputs g)

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
    (fun id ->
      let n = IntMap.find id g.node_map in
      add_int id;
      Buffer.add_char buf ':';
      Buffer.add_string buf (Op.to_string n.op);
      Buffer.add_char buf ':';
      add_int n.width;
      Buffer.add_char buf ';')
    g.order;
  Buffer.add_char buf '|';
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          add_int src;
          Buffer.add_char buf '>';
          add_int dst;
          Buffer.add_char buf ';')
        (succs g src))
    g.order;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let induced g ~name keep =
  List.iter
    (fun id ->
      if not (mem g id) then invalid_arg "Graph.induced: unknown node";
      if not (Op.is_computational (node g id).op) then
        invalid_arg "Graph.induced: boundary nodes cannot be selected")
    keep;
  let keep_set = IntSet.of_list keep in
  let b = builder ~name () in
  let fresh = Hashtbl.create 16 in
  (* map original kept node id -> new id *)
  List.iter
    (fun id ->
      if IntSet.mem id keep_set then
        let n = node g id in
        Hashtbl.replace fresh id (add_node b ~name:n.name ~op:n.op ~width:n.width))
    g.order;
  let in_map = Hashtbl.create 8 and out_map = Hashtbl.create 8 in
  (* External producers feeding kept nodes become Inputs (one per producer). *)
  List.iter
    (fun id ->
      if IntSet.mem id keep_set then
        List.iter
          (fun p ->
            let dst = Hashtbl.find fresh id in
            if IntSet.mem p keep_set then
              add_edge b ~src:(Hashtbl.find fresh p) ~dst
            else
              let src =
                match Hashtbl.find_opt in_map p with
                | Some s -> s
                | None ->
                    let pn = node g p in
                    (* Constants are materialized locally (coefficients do
                       not travel between chips); everything else becomes a
                       boundary input of the partition. *)
                    let op =
                      match pn.op with Op.Const -> Op.Const | _ -> Op.Input
                    in
                    let s = add_node b ~name:("in_" ^ pn.name) ~op ~width:pn.width in
                    Hashtbl.replace in_map p s;
                    s
              in
              add_edge b ~src ~dst)
          (preds g id))
    g.order;
  (* Kept producers feeding external consumers (or original outputs) become
     Outputs (one per producer). *)
  List.iter
    (fun id ->
      if IntSet.mem id keep_set then
        let escapes =
          List.exists (fun s -> not (IntSet.mem s keep_set)) (succs g id)
        in
        if escapes && not (Hashtbl.mem out_map id) then begin
          let n = node g id in
          let o = add_node b ~name:("out_" ^ n.name) ~op:Op.Output ~width:n.width in
          add_edge b ~src:(Hashtbl.find fresh id) ~dst:o;
          Hashtbl.replace out_map id o
        end)
    g.order;
  let assoc tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  (build b, assoc in_map, assoc out_map)

let pp ppf g =
  Format.fprintf ppf "@[<v>graph %s: %d nodes (%d operations)@," g.gname (size g)
    (op_count g);
  List.iter
    (fun (cls, n) -> Format.fprintf ppf "  %s: %d@," cls n)
    (op_profile g);
  Format.fprintf ppf "@]"
