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

(* Lexicographic order.  A point can only be dominated by a
   lexicographically smaller one, and whatever dominates a dominated point
   is dominated by or equal to a survivor (dominance is transitive), so
   each point in this order needs comparing only with the survivors so
   far. *)
let compare_lex (a : float array) (b : float array) =
  let rec go i =
    if i = Array.length a then 0
    else match Float.compare a.(i) b.(i) with 0 -> go (i + 1) | c -> c
  in
  go 0

let frontier ~objectives xs =
  let vals = Array.of_list (List.map objectives xs) in
  let n = Array.length vals in
  if n > 0 then begin
    let d = Array.length vals.(0) in
    if Array.exists (fun v -> Array.length v <> d) vals then
      invalid_arg "Pareto.dominates: objective length mismatch"
  end;
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> compare_lex vals.(i) vals.(j)) order;
  let keep = Array.make n false in
  let survivors = ref [] in
  Array.iter
    (fun i ->
      let v = vals.(i) in
      if not (List.exists (fun s -> dominates_from s v 0 false) !survivors)
      then begin
        keep.(i) <- true;
        survivors := v :: !survivors
      end)
    order;
  List.filteri (fun i _ -> keep.(i)) xs

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
