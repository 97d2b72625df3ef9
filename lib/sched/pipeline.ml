(* Both searches read the per-class busy profiles of [Schedule.dense], so
   they are built once per schedule however many initiation intervals are
   tried. *)
let fits d ~ii =
  if ii < 1 then invalid_arg "Pipeline.feasible_ii: ii < 1";
  let s = d.Schedule.sched in
  (* units of a class busy in one slot of the schedule folded modulo [ii] *)
  let folded profile slot =
    let busy = ref 0 and step = ref slot in
    while !step < Array.length profile do
      busy := !busy + profile.(!step);
      step := !step + ii
    done;
    !busy
  in
  let rec slots_fit profile cap slot =
    slot >= ii || (folded profile slot <= cap && slots_fit profile cap (slot + 1))
  in
  let rec classes k = function
    | [] -> true
    | (_, cap) :: rest -> slots_fit d.Schedule.busy.(k) cap 0 && classes (k + 1) rest
  in
  ii >= s.Schedule.length || classes 0 s.Schedule.alloc

let first_feasible d =
  let s = d.Schedule.sched in
  let rec lower_bound k acc = function
    | [] -> acc
    | (_, cap) :: rest ->
        let work = Array.fold_left ( + ) 0 d.Schedule.busy.(k) in
        lower_bound (k + 1) (max acc (Chop_util.Units.ceil_div work cap)) rest
  in
  let rec search ii =
    if ii >= s.Schedule.length || fits d ~ii then ii else search (ii + 1)
  in
  search (max 1 (lower_bound 0 1 s.Schedule.alloc))

let feasible_ii s ~ii = fits (Schedule.dense s) ~ii
let min_ii s = first_feasible (Schedule.dense s)

let stage_count s ~ii =
  if ii < 1 then invalid_arg "Pipeline.stage_count: ii < 1";
  if s.Schedule.length = 0 then 1
  else Chop_util.Units.ceil_div s.Schedule.length ii
