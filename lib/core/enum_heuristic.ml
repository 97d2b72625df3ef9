(* Exhaustive enumeration over the cartesian product of per-partition
   implementation lists.  The product is split on the first axis — one
   independent slice per implementation of the first partition — so a
   domain pool can search slices concurrently; Search.Slice.run
   recombines them into exactly the sequential outcome.

   The inner loop is allocation-free: picks live in a reused array driven
   by an odometer (first axis slowest, matching Listx.fold_cartesian), and
   the association list a combination needs is only built once the cheap
   bounds have let it through.  Provably-infeasible combinations are
   rejected by Integration.quick_check before any integration work —
   except in keep-all mode, where every evaluated design must be recorded
   exactly as before. *)

let run ?(keep_all = false) ?(pool = Chop_util.Pool.sequential) ?metrics ctx
    per_partition =
  let spec = Integration.spec_of ctx in
  let clocks = spec.Spec.clocks in
  let crit = spec.Spec.criteria in
  let labels = Array.of_list (List.map fst per_partition) in
  let lists =
    Array.of_list (List.map (fun (_, ps) -> Array.of_list ps) per_partition)
  in
  let k = Array.length labels in
  (* bounds over the current picks; smallest-work test first, then the
     quick check, and only then the full integration *)
  let consider slice cache (picks : Chop_bad.Prediction.t array) =
    let ii_bound = ref 1 in
    let clock_bound = ref clocks.Chop_tech.Clocking.main in
    for i = 0 to k - 1 do
      let p = picks.(i) in
      let ii = Chop_bad.Prediction.ii_main clocks p in
      if ii > !ii_bound then ii_bound := ii;
      let c = p.Chop_bad.Prediction.timing.Chop_bad.Prediction.clock_main in
      if c > !clock_bound then clock_bound := c
    done;
    (* performance upper bound: the slowest partition sets the pace.  It
       prunes combinations that cannot meet the performance constraint
       before any integration work — even in keep-all mode only evaluated
       designs are recorded, as in the paper's Figures 7 and 8 *)
    if
      float_of_int !ii_bound *. !clock_bound
      > crit.Chop_bad.Feasibility.perf_constraint
    then Search.Slice.step slice
    else begin
      let comb =
        let rec go i acc =
          if i < 0 then acc else go (i - 1) ((labels.(i), picks.(i)) :: acc)
        in
        go (k - 1) []
      in
      if (not keep_all) && Integration.quick_check cache comb then
        Search.Slice.avoid slice
      else
        Search.Slice.record ~keep_all slice
          (Integration.integrate_cached cache comb)
    end
  in
  let tasks =
    if k = 0 then
      (* degenerate: the empty product still has one (empty) combination *)
      [| (fun slice cache -> consider slice cache [||]) |]
    else begin
      let rest_nonempty =
        let ok = ref true in
        for i = 1 to k - 1 do
          if Array.length lists.(i) = 0 then ok := false
        done;
        !ok
      in
      Array.map
        (fun p0 slice cache ->
          if rest_nonempty then begin
            let picks = Array.make k p0 in
            for i = 1 to k - 1 do
              picks.(i) <- lists.(i).(0)
            done;
            (* odometer over axes 1..k-1, last axis fastest — the same
               order Listx.fold_cartesian walks *)
            let digits = Array.make (max 0 (k - 1)) 0 in
            let rec inc d =
              d >= 0
              && begin
                   let axis = lists.(d + 1) in
                   let v = digits.(d) + 1 in
                   if v < Array.length axis then begin
                     digits.(d) <- v;
                     picks.(d + 1) <- axis.(v);
                     true
                   end
                   else begin
                     digits.(d) <- 0;
                     picks.(d + 1) <- axis.(0);
                     inc (d - 1)
                   end
                 end
            in
            let continue = ref true in
            while !continue do
              consider slice cache picks;
              continue := inc (k - 2)
            done
          end)
        lists.(0)
    end
  in
  Search.Slice.run ~keep_all ~pool ?metrics ctx tasks
