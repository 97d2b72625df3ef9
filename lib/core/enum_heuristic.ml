(* Exhaustive enumeration over the cartesian product of per-partition
   implementation lists.  The product is split on the first axis — one
   independent slice per implementation of the first partition — so a
   domain pool can search slices concurrently; Search.Slice.merge
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
  let wall0 = Unix.gettimeofday () in
  let labels = Array.of_list (List.map fst per_partition) in
  let lists =
    Array.of_list (List.map (fun (_, ps) -> Array.of_list ps) per_partition)
  in
  let k = Array.length labels in
  let session = Integration.session ctx in
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
  let with_cache_counted slice f =
    let cache = Integration.domain_cache session in
    let hits0 = Integration.chip_cache_hits cache in
    f cache;
    Search.Slice.set_cache_hits slice
      (Integration.chip_cache_hits cache - hits0);
    slice
  in
  let slices, pool_stats =
    if k = 0 then begin
      (* degenerate: the empty product still has one (empty) combination *)
      let slice = Search.Slice.create () in
      let slice =
        with_cache_counted slice (fun cache -> consider slice cache [||])
      in
      ([ slice ], { Chop_util.Pool.worker_busy = [||]; chunk_count = 0 })
    end
    else begin
      let rest_nonempty =
        let ok = ref true in
        for i = 1 to k - 1 do
          if Array.length lists.(i) = 0 then ok := false
        done;
        !ok
      in
      let tasks =
        Array.map
          (fun p0 () ->
            let slice = Search.Slice.create () in
            if not rest_nonempty then slice
            else
              with_cache_counted slice (fun cache ->
                  let picks = Array.make k p0 in
                  for i = 1 to k - 1 do
                    picks.(i) <- lists.(i).(0)
                  done;
                  (* odometer over axes 1..k-1, last axis fastest — the
                     same order Listx.fold_cartesian walks *)
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
                  done))
          lists.(0)
      in
      let slices, stats = Chop_util.Pool.run_timed pool tasks in
      (Array.to_list slices, stats)
    end
  in
  let search_wall = Unix.gettimeofday () -. wall0 in
  let merge0 = Unix.gettimeofday () in
  let outcome = Search.Slice.merge ~keep_all slices in
  Option.iter
    (fun r ->
      r :=
        {
          Search.search_wall_seconds = search_wall;
          search_busy_seconds =
            Array.fold_left ( +. ) 0. pool_stats.Chop_util.Pool.worker_busy;
          merge_wall_seconds = Unix.gettimeofday () -. merge0;
          worker_busy_seconds = pool_stats.Chop_util.Pool.worker_busy;
          chunk_count = pool_stats.Chop_util.Pool.chunk_count;
          chip_cache_hits = Search.Slice.cache_hit_total slices;
        })
    metrics;
  outcome
