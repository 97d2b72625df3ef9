(* Consistent hashing on an MD5 ring.  Determinism is the point: the
   point set is a pure function of the backend names, so every process
   that knows the backend list — gateways, benches, tests — agrees on
   where a key lives without coordination. *)

type t = {
  order : string list;  (* creation order, for [nodes] *)
  points : (string * string) array;  (* (hex hash, backend), sorted *)
}

let hash s = Digest.to_hex (Digest.string s)

let create ?(vnodes = 64) nodes =
  if nodes = [] then invalid_arg "Ring.create: no backends";
  if vnodes < 1 then invalid_arg "Ring.create: vnodes must be >= 1";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then
        invalid_arg (Printf.sprintf "Ring.create: duplicate backend %S" n);
      Hashtbl.add seen n ())
    nodes;
  let points =
    List.concat_map
      (fun node ->
        List.init vnodes (fun v ->
            (hash (Printf.sprintf "%s#%d" node v), node)))
      nodes
    |> Array.of_list
  in
  Array.sort compare points;
  { order = nodes; points }

let nodes t = t.order

(* first point with hash >= key's hash, wrapping *)
let start_index t key =
  let h = hash key in
  let n = Array.length t.points in
  let rec bsearch lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if fst t.points.(mid) < h then bsearch (mid + 1) hi else bsearch lo mid
  in
  bsearch 0 n mod n

(* clockwise from the key, each backend at its first point; the walk
   ends once every backend has been met, which with a few backends is a
   handful of points, not all of them *)
let spread t key =
  let n = Array.length t.points and count = List.length t.order in
  let start = start_index t key in
  let rec walk i met acc =
    if met = count then List.rev acc
    else
      let _, node = t.points.((start + i) mod n) in
      if List.exists (String.equal node) acc then walk (i + 1) met acc
      else walk (i + 1) (met + 1) (node :: acc)
  in
  walk 0 0 []

let lookup ?(avoid = []) t key =
  List.find_opt (fun node -> not (List.mem node avoid)) (spread t key)
