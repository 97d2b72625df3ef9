(* Order statistics over latency samples. *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let median samples =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile: the smallest sample with at least [q]% of the
   samples at or below it. *)
let rank ~n q = max 1 (int_of_float (Float.ceil (q /. 100. *. float_of_int n -. 1e-9)))

let percentile samples q =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then 0. else a.(min n (rank ~n q) - 1)

(* The percentiles a tail may be reported at, highest first.  A phase's
   sample count moves with the host's speed, so no workload's count may
   sit near the count a step needs: auto-cold's 42-56 samples reach p75
   (40) and not p90 (100), explore-gateway's 2700-3300 reach p99 (1000),
   and p99.9 (10000) is left out because session-serve's ~20000, half
   that under heavy steal, could fall either side of it. *)
let ladder = [ 99.; 98.; 95.; 90.; 75.; 50. ]

let min_beyond = 10

(* The tail rule: the highest ladder percentile that leaves at least
   [min_beyond] samples above its rank.  Below 2 * [min_beyond] samples no
   percentile qualifies and the tail is p50, so a short run never reports
   a maximum as its tail.  At p50 the value is the median itself, which
   averages the two middle samples of an even count.  Returns the
   percentile, its value and the number of samples beyond it. *)
let tail samples =
  let n = Array.length samples in
  let q =
    match List.find_opt (fun q -> n - rank ~n q >= min_beyond) ladder with
    | Some q -> q
    | None -> 50.
  in
  let beyond = if n = 0 then 0 else max 0 (n - rank ~n q) in
  (q, (if q = 50. then median samples else percentile samples q), beyond)

(* Per-group throughput and median latency.  [ops] are the (group,
   completion time in ns, latency in ms) of the ops that succeeded; ops
   in a negative group belong to none and are left out.  A group's time
   runs from the last completion in the group before it, in id order
   ([start_ns] for the first), to its own last completion.  Returns (ops
   per second, median latency) per group, in id order. *)
let by_group ~start_ns ops =
  let ids =
    List.sort_uniq compare
      (List.filter_map (fun (g, _, _) -> if g >= 0 then Some g else None) ops)
  in
  let _, rows =
    List.fold_left
      (fun (from, acc) g ->
        let mine = List.filter (fun (g', _, _) -> g' = g) ops in
        let last = List.fold_left (fun m (_, d, _) -> if d > m then d else m) from mine in
        let secs = Int64.to_float (Int64.sub last from) /. 1e9 in
        let rate = if secs > 0. then float_of_int (List.length mine) /. secs else 0. in
        (last, (rate, median (Array.of_list (List.map (fun (_, _, l) -> l) mine))) :: acc))
      (start_ns, []) ids
  in
  List.rev rows

let mean = function
  | [||] -> 0.
  | a -> Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let ratio num den = if den = 0. then 0. else num /. den
