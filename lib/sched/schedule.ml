type alloc = (string * int) list

let alloc_get alloc cls =
  Option.value ~default:0 (List.assoc_opt cls alloc)

let validate_alloc alloc =
  let classes = List.map fst alloc in
  if List.length (List.sort_uniq String.compare classes) <> List.length classes
  then invalid_arg "Schedule: duplicate class in allocation";
  List.iter
    (fun (cls, n) ->
      if n < 1 then
        invalid_arg (Printf.sprintf "Schedule: allocation %s = %d < 1" cls n))
    alloc

type t = {
  graph : Chop_dfg.Graph.t;
  alloc : alloc;
  starts : (Chop_dfg.Graph.node_id * int) list;
  latencies : (Chop_dfg.Graph.node_id * int) list;
  length : int;
}

let start s id = List.assoc id s.starts
let latency s id = List.assoc id s.latencies
let finish s id = start s id + latency s id

type dense = {
  sched : t;
  start_at : int array;
  latency_of : int array;
  busy : int array array;
}

(* Units of each of [classes] busy per step, in one pass over the
   scheduled nodes; steps at or past the schedule length are dropped. *)
let profiles s ~start_at ~latency_of classes =
  let len = max 1 s.length in
  let busy = Array.map (fun _ -> Array.make len 0) classes in
  let rec index cls k =
    if k = Array.length classes then -1
    else if String.equal classes.(k) cls then k
    else index cls (k + 1)
  in
  Array.iteri
    (fun id st ->
      if st >= 0 then
        let k =
          index
            (Chop_dfg.Op.functional_class
               (Chop_dfg.Graph.node s.graph id).Chop_dfg.Graph.op)
            0
        in
        if k >= 0 then
          for step = st to min (st + latency_of.(id)) len - 1 do
            busy.(k).(step) <- busy.(k).(step) + 1
          done)
    start_at;
  busy

let indexed s =
  let n = max 1 (Chop_dfg.Graph.size s.graph) in
  let start_at = Array.make n (-1) and latency_of = Array.make n 0 in
  List.iter (fun (id, st) -> start_at.(id) <- st) s.starts;
  List.iter (fun (id, l) -> latency_of.(id) <- l) s.latencies;
  (start_at, latency_of)

let dense s =
  let start_at, latency_of = indexed s in
  let classes = Array.of_list (List.map fst s.alloc) in
  { sched = s; start_at; latency_of; busy = profiles s ~start_at ~latency_of classes }

let busy_profile s ~cls =
  let start_at, latency_of = indexed s in
  (profiles s ~start_at ~latency_of [| cls |]).(0)

let check s =
  let g = s.graph in
  let exception Bad of string in
  try
    (* precedence *)
    List.iter
      (fun (id, st) ->
        List.iter
          (fun p ->
            let pn = Chop_dfg.Graph.node g p in
            if Chop_dfg.Op.is_computational pn.Chop_dfg.Graph.op then
              let pf = finish s p in
              if st < pf then
                raise
                  (Bad
                     (Printf.sprintf "node %d starts at %d before pred %d finishes at %d"
                        id st p pf)))
          (Chop_dfg.Graph.preds g id))
      s.starts;
    (* resources *)
    let d = dense s in
    List.iteri
      (fun k (cls, cap) ->
        Array.iteri
          (fun step busy ->
            if busy > cap then
              raise
                (Bad
                   (Printf.sprintf "class %s uses %d units at step %d (capacity %d)"
                      cls busy step cap)))
          d.busy.(k))
      s.alloc;
    (* length *)
    List.iter
      (fun (id, _) ->
        if finish s id > s.length then
          raise (Bad (Printf.sprintf "node %d finishes after schedule length" id)))
      s.starts;
    Ok ()
  with Bad reason -> Error reason

let pp ppf s =
  Format.fprintf ppf "@[<v>schedule of %s: length %d, alloc [%s]@,"
    (Chop_dfg.Graph.name s.graph) s.length
    (String.concat "; "
       (List.map (fun (c, n) -> Printf.sprintf "%s:%d" c n) s.alloc));
  List.iter
    (fun (id, st) ->
      let n = Chop_dfg.Graph.node s.graph id in
      Format.fprintf ppf "  %s @@ %d (+%d)@," n.Chop_dfg.Graph.name st
        (latency s id))
    (List.sort (fun (_, a) (_, b) -> Int.compare a b) s.starts);
  Format.fprintf ppf "@]"
