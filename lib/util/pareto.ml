(* Stops at the first objective where [a] is worse. *)
let rec dominates_from (a : float array) (b : float array) i strictly =
  if i = Array.length a then strictly
  else
    let ai = a.(i) and bi = b.(i) in
    (not (ai > bi)) && dominates_from a b (i + 1) (strictly || ai < bi)

let dominates a b =
  if Array.length a <> Array.length b then
    invalid_arg "Pareto.dominates: objective length mismatch";
  dominates_from a b 0 false

let frontier ~objectives xs =
  let vals = List.map (fun x -> (x, objectives x)) xs in
  List.filter_map
    (fun (x, v) ->
      let dominated =
        List.exists (fun (_, v') -> dominates v' v) vals
      in
      if dominated then None else Some x)
    vals

let reduce ~objectives xs =
  let arr = Array.of_list xs in
  let objs = Array.map objectives arr in
  let n = Array.length arr in
  let dropped = ref 0 in
  let kept = ref [] in
  for i = n - 1 downto 0 do
    let dead = ref false in
    for j = 0 to n - 1 do
      if (not !dead) && j <> i then
        if dominates objs.(j) objs.(i) then dead := true
        else if j < i && objs.(j) = objs.(i) then dead := true
    done;
    if !dead then incr dropped else kept := arr.(i) :: !kept
  done;
  (!kept, !dropped)
