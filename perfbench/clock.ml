(* Monotonic time for every measurement the benchmark takes.  Wall-clock
   time can step; CLOCK_MONOTONIC cannot, so a span never comes out
   negative and two runs time the same interval the same way. *)

let now_ns () = Monotonic_clock.now ()
let ns_between a b = Int64.to_float (Int64.sub b a)
let ms_between a b = ns_between a b /. 1e6
let s_between a b = ns_between a b /. 1e9
