let candidate_intervals ctx per_partition =
  let spec = Integration.spec_of ctx in
  let clocks = spec.Spec.clocks in
  let crit = spec.Spec.criteria in
  let all = List.concat_map snd per_partition in
  let min_clock =
    List.fold_left
      (fun acc p -> Float.min acc p.Chop_bad.Prediction.timing.clock_main)
      infinity all
  in
  let min_clock =
    if Float.is_finite min_clock then min_clock else clocks.Chop_tech.Clocking.main
  in
  List.map (fun p -> Chop_bad.Prediction.ii_main clocks p) all
  |> List.filter (fun l ->
         float_of_int l *. min_clock <= crit.Chop_bad.Feasibility.perf_constraint)
  |> List.sort_uniq Int.compare

(* Partitions worth serializing after a failed integration: those on chips
   whose area constraint is violated (Figure 5), and — so the search can
   recover — pipelined partitions involved in a data-rate mismatch. *)
let violated_partitions system =
  match system.Integration.failure with
  | Integration.Area_violation labels | Integration.Rate_mismatch labels ->
      labels
  | Integration.No_failure | Integration.Data_clash | Integration.Too_slow
  | Integration.Delay_exceeded | Integration.Structural _ ->
      []

let run ?(keep_all = false) ctx per_partition =
  let spec = Integration.spec_of ctx in
  let clocks = spec.Spec.clocks in
  let trials = ref 0 and integrations = ref 0 in
  let feasible = ref [] and explored = ref [] in
  (* one cache across every interval and serialization step: the walk
     revisits near-identical combinations constantly (each tentative
     serialization changes a single pick), so the staged integration
     shares the schedule and buffer sizing.  quick_check is NOT
     consulted: the interval is forced here ([ii_target]), for which the
     early exit is unsound. *)
  let cache = Integration.cache ctx in
  let integrate ~l comb =
    incr trials;
    incr integrations;
    let system = Integration.integrate_cached cache ~ii_target:l comb in
    if keep_all then explored := system :: !explored;
    system
  in
  let intervals = candidate_intervals ctx per_partition in
  List.iter
    (fun l ->
      (* rate-compatible candidates per partition, fastest first (the list
         is the Figure 5 sorted prediction list) *)
      let candidates =
        List.map
          (fun (label, preds) ->
            let compatible =
              List.filter
                (fun p -> Chop_bad.Prediction.ii_main clocks p <= l)
                (List.sort Chop_bad.Prediction.compare_speed preds)
            in
            (label, Array.of_list compatible))
          per_partition
      in
      if List.for_all (fun (_, c) -> Array.length c > 0) candidates then begin
        let cursor = Hashtbl.create 8 in
        List.iter (fun (label, _) -> Hashtbl.replace cursor label 0) candidates;
        let comb () =
          List.map
            (fun (label, c) -> (label, c.(Hashtbl.find cursor label)))
            candidates
        in
        let exception Done in
        (try
           (* bounded by the total number of serialization moves available *)
           let max_moves =
             Chop_util.Listx.sum_by (fun (_, c) -> Array.length c) candidates
           in
           for _ = 0 to max_moves do
             let system = integrate ~l (comb ()) in
             if Integration.feasible system then begin
               feasible := system :: !feasible;
               raise Done
             end;
             let q =
               violated_partitions system |> List.sort_uniq String.compare
             in
             if q = [] then raise Done (* not an area violation: give up on l *);
             (* tentative serialization of each violated partition: pick the
                one minimizing the expected system delay *)
             let best =
               List.fold_left
                 (fun best label ->
                   let c = List.assoc label candidates in
                   let i = Hashtbl.find cursor label in
                   if i + 1 >= Array.length c then best
                   else begin
                     Hashtbl.replace cursor label (i + 1);
                     let tentative = integrate ~l (comb ()) in
                     Hashtbl.replace cursor label i;
                     let expected =
                       if tentative.Integration.chip_reports = [] then infinity
                       else Chop_util.Triplet.(tentative.Integration.delay.likely)
                     in
                     match best with
                     | Some (_, d) when d <= expected -> best
                     | _ -> Some (label, expected)
                   end)
                 None q
             in
             match best with
             | None -> raise Done (* nothing left to serialize *)
             | Some (label, _) ->
                 Hashtbl.replace cursor label (Hashtbl.find cursor label + 1)
           done
         with Done -> ())
      end)
    intervals;
  let stats =
    {
      Search.implementation_trials = !trials;
      integrations = !integrations;
      integrations_avoided = 0;
      feasible_trials = List.length !feasible;
    }
  in
  Search.finalize ~keep_all ~feasible:!feasible ~explored:!explored stats
