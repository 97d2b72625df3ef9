type t = { label : string; members : Graph.node_id list }

let make ~label members =
  if members = [] then invalid_arg "Partition.make: empty partition";
  { label; members = List.sort_uniq Int.compare members }

type flow = {
  producer : string;
  consumer : string;
  bits : Chop_util.Units.bits;
  values : Graph.node_id list;
}

(* Everything derived from the owner relation, computed once by the
   validator: node ids are dense (0 .. size - 1, see [Graph.builder]), so
   [owner] maps each id to the position of its partition in [by_pos], or
   -1 for boundary nodes. *)
type index = {
  owner : int array;
  by_pos : t array;
  flows : flow list;
  topo : t list;
}

type partitioning = { graph : Graph.t; parts : t list; index : index }

exception Invalid_partitioning of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid_partitioning s)) fmt

let owner_index g by_pos =
  let owner = Array.make (Graph.size g) (-1) in
  Array.iteri
    (fun i p ->
      List.iter
        (fun id ->
          if not (Graph.mem g id) then fail "partition %s: unknown node %d" p.label id;
          let n = Graph.node g id in
          if not (Op.is_computational n.Graph.op) then
            fail "partition %s: node %s is not computational" p.label n.Graph.name;
          if owner.(id) >= 0 then
            fail "node %s assigned to both %s and %s" n.Graph.name
              by_pos.(owner.(id)).label p.label;
          owner.(id) <- i)
        p.members)
    by_pos;
  List.iter
    (fun n ->
      if Op.is_computational n.Graph.op && owner.(n.Graph.id) < 0 then
        fail "operation %s is not assigned to any partition" n.Graph.name)
    (Graph.nodes g);
  owner

(* Every value crossing the cut, once per (producer, consumer) pair of
   partition positions, sorted by the pair's labels and then by value. *)
let crossing g owner by_pos =
  let key (o1, o2, v) = (by_pos.(o1).label, by_pos.(o2).label, v) in
  List.fold_left
    (fun acc (src, dst) ->
      let o1 = owner.(src) and o2 = owner.(dst) in
      if o1 >= 0 && o2 >= 0 && o1 <> o2 then (o1, o2, src) :: acc else acc)
    [] (Graph.edges g)
  |> List.sort_uniq (fun a b -> Stdlib.compare (key a) (key b))

let flows_of g by_pos crossing =
  let rec group = function
    | [] -> []
    | (o1, o2, v) :: rest ->
        let rec take acc = function
          | (o1', o2', v') :: rest when o1' = o1 && o2' = o2 -> take (v' :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let values, rest = take [ v ] rest in
        { producer = by_pos.(o1).label; consumer = by_pos.(o2).label; values;
          bits = Chop_util.Listx.sum_by (fun id -> (Graph.node g id).Graph.width) values }
        :: group rest
  in
  group crossing

(* Layered topological order of the quotient graph: each round places
   every partition whose producers are all placed, in list order.  Fails
   when a round places nothing — the quotient is cyclic. *)
let topo_order by_pos crossing =
  let preds = Array.make (Array.length by_pos) [] in
  List.iter (fun (o1, o2, _) -> preds.(o2) <- o1 :: preds.(o2)) crossing;
  let placed = Array.make (Array.length by_pos) false in
  let rec rounds acc remaining =
    if remaining = [] then List.concat (List.rev acc)
    else
      let ready, rest =
        List.partition (fun i -> List.for_all (fun s -> placed.(s)) preds.(i)) remaining
      in
      if ready = [] then
        fail
          "mutual data dependency between partitions: the quotient graph is cyclic \
           (paper section 2.3 requires independently implementable partitions)";
      List.iter (fun i -> placed.(i) <- true) ready;
      rounds (List.map (fun i -> by_pos.(i)) ready :: acc) rest
  in
  rounds [] (List.init (Array.length by_pos) Fun.id)

let partitioning g parts =
  if parts = [] then fail "empty partitioning";
  let labels = List.map (fun p -> p.label) parts in
  if List.length (List.sort_uniq String.compare labels) <> List.length labels then
    fail "duplicate partition label";
  let by_pos = Array.of_list parts in
  let owner = owner_index g by_pos in
  let crossing = crossing g owner by_pos in
  let topo = topo_order by_pos crossing in
  { graph = g; parts;
    index = { owner; by_pos; flows = flows_of g by_pos crossing; topo } }

let find pg label = List.find (fun p -> p.label = label) pg.parts

let part_of pg id =
  let owner = pg.index.owner in
  if id < 0 || id >= Array.length owner || owner.(id) < 0 then raise Not_found
  else pg.index.by_pos.(owner.(id))

let subgraph pg p =
  let sub, _, _ = Graph.induced pg.graph ~name:p.label p.members in
  sub

let flows pg = pg.index.flows

let external_input_bits pg p =
  let g = pg.graph in
  let members = p.members in
  List.filter_map
    (fun n ->
      match n.Graph.op with
      | Op.Input ->
          let feeds =
            List.exists (fun s -> List.mem s members) (Graph.succs g n.Graph.id)
          in
          if feeds then Some n.Graph.width else None
      | _ -> None)
    (Graph.nodes g)
  |> List.fold_left ( + ) 0

let external_output_bits pg p =
  let g = pg.graph in
  List.fold_left
    (fun acc id ->
      let drives_output =
        List.exists
          (fun s -> (Graph.node g s).Graph.op = Op.Output)
          (Graph.succs g id)
      in
      if drives_output then acc + (Graph.node g id).Graph.width else acc)
    0 p.members

let cut_bits_total pg = Chop_util.Listx.sum_by (fun f -> f.bits) (flows pg)
let quotient_edges pg =
  List.map (fun f -> (f.producer, f.consumer)) pg.index.flows
let topological_parts pg = pg.index.topo

(* Edit primitives.  Each rebuilds the part list and re-runs the full
   [partitioning] validator, so coverage, disjointness and quotient
   acyclicity hold for every [Ok] result by construction. *)

let revalidate pg parts =
  match partitioning pg.graph parts with
  | pg' -> Ok pg'
  | exception Invalid_partitioning msg -> Error msg

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let move_op pg ~op ~to_ =
  match part_of pg op with
  | exception Not_found -> err "operation %d is not in any partition" op
  | src ->
      if not (List.exists (fun p -> p.label = to_) pg.parts) then
        err "unknown partition %s" to_
      else if src.label = to_ then err "operation %d is already in %s" op to_
      else if List.compare_length_with src.members 1 = 0 then
        err "moving operation %d would empty partition %s" op src.label
      else
        let parts =
          List.map
            (fun p ->
              if p.label = src.label then
                make ~label:p.label (List.filter (fun id -> id <> op) p.members)
              else if p.label = to_ then make ~label:p.label (op :: p.members)
              else p)
            pg.parts
        in
        revalidate pg parts

let merge_parts pg ~src ~dst =
  match
    ( List.find_opt (fun p -> p.label = src) pg.parts,
      List.find_opt (fun p -> p.label = dst) pg.parts )
  with
  | None, _ -> err "unknown partition %s" src
  | _, None -> err "unknown partition %s" dst
  | Some _, Some _ when src = dst -> err "cannot merge %s with itself" src
  | Some sp, Some _ ->
      let parts =
        List.filter_map
          (fun p ->
            if p.label = src then None
            else if p.label = dst then
              Some (make ~label:p.label (sp.members @ p.members))
            else Some p)
          pg.parts
      in
      revalidate pg parts

let split_part pg ~label ~members ~new_label =
  match List.find_opt (fun p -> p.label = label) pg.parts with
  | None -> err "unknown partition %s" label
  | Some p ->
      if List.exists (fun q -> q.label = new_label) pg.parts then
        err "partition %s already exists" new_label
      else if members = [] then err "split of %s selects no operations" label
      else (
        match List.find_opt (fun id -> not (List.mem id p.members)) members with
        | Some id -> err "operation %d is not in partition %s" id label
        | None ->
            let moved = List.sort_uniq Int.compare members in
            let rest =
              List.filter (fun id -> not (List.mem id moved)) p.members
            in
            if rest = [] then
              err "split would move every operation out of %s" label
            else
              let parts =
                List.concat_map
                  (fun q ->
                    if q.label = label then
                      [ make ~label (rest : Graph.node_id list);
                        make ~label:new_label moved ]
                    else [ q ])
                  pg.parts
              in
              revalidate pg parts)

let whole g =
  let members = List.map (fun n -> n.Graph.id) (Graph.operations g) in
  partitioning g [ make ~label:"P1" members ]

let by_levels g ~k =
  if k < 1 then invalid_arg "Partition.by_levels: k < 1";
  let levels = Analysis.levels g in
  if k > List.length levels then
    invalid_arg
      (Printf.sprintf "Partition.by_levels: k = %d exceeds %d levels" k
         (List.length levels));
  let total = Chop_util.Listx.sum_by List.length levels in
  let target = float_of_int total /. float_of_int k in
  (* greedy contiguous grouping of levels into k balanced buckets *)
  let groups = Array.make k [] in
  let remaining_levels = ref (List.length levels) in
  let idx = ref 0 and count = ref 0 in
  List.iter
    (fun lvl ->
      let must_leave = k - !idx - 1 in
      let close_now =
        !idx < k - 1
        && ((float_of_int (!count + List.length lvl) >= target && !count > 0)
           || !remaining_levels <= must_leave + 1)
      in
      if close_now && !count > 0 then begin
        incr idx;
        count := 0
      end;
      groups.(!idx) <- groups.(!idx) @ lvl;
      count := !count + List.length lvl;
      decr remaining_levels)
    levels;
  let parts =
    Array.to_list groups
    |> List.mapi (fun i members -> (i, members))
    |> List.filter_map (fun (i, members) ->
           if members = [] then None
           else Some (make ~label:(Printf.sprintf "P%d" (i + 1)) members))
  in
  partitioning g parts

let pp ppf pg =
  Format.fprintf ppf "@[<v>partitioning of %s into %d:@," (Graph.name pg.graph)
    (List.length pg.parts);
  List.iter
    (fun p ->
      Format.fprintf ppf "  %s: %d operations@," p.label (List.length p.members))
    pg.parts;
  Format.fprintf ppf "@]"
