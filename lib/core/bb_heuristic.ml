(* Depth-first branch-and-bound over partition implementations, with
   admissible performance and per-chip area lower bounds.  The tree is
   split at the root — one independent slice per implementation of the
   first partition — so a domain pool can search subtrees concurrently;
   each slice gets private bound-bookkeeping arrays and Search.Slice.run
   recombines the results into exactly the sequential outcome.

   All per-node bookkeeping is int-indexed: partitions and chips are
   resolved to dense indexes once per run, so a tree node costs two array
   reads and two float adds instead of hash and association lookups.  At a
   leaf, Integration.quick_check rejects provably-infeasible combinations
   before any integration work — except in keep-all mode, where every
   evaluated design must be recorded exactly as before. *)

let run ?(keep_all = false) ?(pool = Chop_util.Pool.sequential) ?metrics ctx
    per_partition =
  let spec = Integration.spec_of ctx in
  let clocks = spec.Spec.clocks in
  let crit = spec.Spec.criteria in
  let order = Array.of_list per_partition in
  let n = Array.length order in
  (* dense chip indexes, in spec order *)
  let chips = Array.of_list spec.Spec.chips in
  let nchips = Array.length chips in
  let capacity =
    Array.map (fun ci -> Chop_tech.Chip.project_area ci.Spec.package) chips
  in
  let chip_index name =
    let rec find i =
      if i >= nchips then invalid_arg "Bb_heuristic: unknown chip"
      else if chips.(i).Spec.chip_name = name then i
      else find (i + 1)
    in
    find 0
  in
  (* per-partition level: its chip index and the area lower bound of its
     cheapest implementation (the admissible per-chip bound: the sum of
     area lower bounds of a chip's partitions can never exceed the raw
     project area) *)
  let chip_of_level =
    Array.map
      (fun (label, _) ->
        chip_index (Spec.chip_of_partition spec label).Spec.chip_name)
      order
  in
  let min_area_of =
    Array.map
      (fun (_, preds) ->
        List.fold_left
          (fun acc p ->
            Float.min acc Chop_util.Triplet.(p.Chop_bad.Prediction.area.low))
          infinity preds)
      order
  in
  (* chip -> area committed by chosen predictions plus lower bounds of the
     chip's still-unchosen partitions; each slice carries its own pair of
     arrays so subtrees never share mutable state *)
  let fresh_tables () =
    let unchosen_low = Array.make nchips 0. in
    Array.iteri
      (fun i _ ->
        let c = chip_of_level.(i) in
        unchosen_low.(c) <- unchosen_low.(c) +. min_area_of.(i))
      order;
    (Array.make nchips 0., unchosen_low)
  in
  let consider slice cache picked =
    let comb = List.rev picked in
    if (not keep_all) && Integration.quick_check cache comb then
      Search.Slice.avoid slice
    else
      Search.Slice.record ~keep_all slice
        (Integration.integrate_cached cache comb)
  in
  (* try one prediction [p] at level [i]; assumes unchosen_low already
     excludes level [i]'s lower bound *)
  let rec branch slice cache ~committed ~unchosen_low i picked ~ii_bound
      ~clock_bound ~chip p =
    let ii = max ii_bound (Chop_bad.Prediction.ii_main clocks p) in
    let clock =
      Float.max clock_bound
        p.Chop_bad.Prediction.timing.Chop_bad.Prediction.clock_main
    in
    let perf_lb = float_of_int ii *. clock in
    let area_low = Chop_util.Triplet.(p.Chop_bad.Prediction.area.low) in
    let chip_lb = committed.(chip) +. area_low +. unchosen_low.(chip) in
    if perf_lb > crit.Chop_bad.Feasibility.perf_constraint then
      Search.Slice.step slice (* pruned: counts as a considered stem *)
    else if chip_lb > capacity.(chip) then Search.Slice.step slice
    else begin
      let label, _ = order.(i) in
      committed.(chip) <- committed.(chip) +. area_low;
      dfs slice cache ~committed ~unchosen_low (i + 1) ((label, p) :: picked)
        ~ii_bound:ii ~clock_bound:clock;
      committed.(chip) <- committed.(chip) -. area_low
    end
  and dfs slice cache ~committed ~unchosen_low i picked ~ii_bound ~clock_bound
      =
    if i = n then consider slice cache picked
    else begin
      let _, preds = order.(i) in
      let chip = chip_of_level.(i) in
      (* this partition leaves the unchosen pool for the bound *)
      unchosen_low.(chip) <- unchosen_low.(chip) -. min_area_of.(i);
      List.iter
        (branch slice cache ~committed ~unchosen_low i picked ~ii_bound
           ~clock_bound ~chip)
        preds;
      unchosen_low.(chip) <- unchosen_low.(chip) +. min_area_of.(i)
    end
  in
  let tasks =
    if n = 0 then
      (* degenerate: integrate the empty combination, as the sequential
         search did *)
      [| (fun slice cache ->
           let committed, unchosen_low = fresh_tables () in
           dfs slice cache ~committed ~unchosen_low 0 [] ~ii_bound:1
             ~clock_bound:clocks.Chop_tech.Clocking.main) |]
    else begin
      let _, preds0 = order.(0) in
      let chip0 = chip_of_level.(0) in
      Array.of_list
        (List.map
           (fun p slice cache ->
             let committed, unchosen_low = fresh_tables () in
             unchosen_low.(chip0) <- unchosen_low.(chip0) -. min_area_of.(0);
             branch slice cache ~committed ~unchosen_low 0 [] ~ii_bound:1
               ~clock_bound:clocks.Chop_tech.Clocking.main ~chip:chip0 p)
           preds0)
    end
  in
  Search.Slice.run ~keep_all ~pool ?metrics ctx tasks
