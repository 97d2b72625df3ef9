exception Rejected of string

(* Every modification is a [Spec.update] edit list; the advisor merely maps
   the structured rejection onto the historical exception. *)
let apply spec edits =
  match Spec.update spec edits with
  | Ok (spec', _dirty) -> spec'
  | Error e -> raise (Rejected e.Spec.reason)

let move_operation spec ~op ~to_partition =
  apply spec [ Spec.Move_op { op; to_partition } ]

let move_partition spec ~partition ~to_chip =
  apply spec [ Spec.Reassign_chip { partition; chip = to_chip } ]

let rehost_memory spec ~block ~to_chip =
  apply spec [ Spec.Rehost_memory { block; chip = to_chip } ]

let swap_package spec ~chip package =
  apply spec [ Spec.Swap_package { chip; package } ]

let set_constraints spec ~criteria = apply spec [ Spec.Set_criteria criteria ]

type judgement = {
  spec : Spec.t;
  feasible : bool;
  best : Integration.system option;
  advice : string;
}

let judge spec (report : Explore.report) =
  match report.Explore.outcome.Search.feasible with
  | best :: _ ->
      {
        spec;
        feasible = true;
        best = Some best;
        advice =
          Printf.sprintf
            "feasible: best initiation interval %d cycles at %.0f ns clock \
             (delay %d cycles) after %d trials"
            best.Integration.ii_main best.Integration.clock
            best.Integration.delay_cycles
            report.Explore.outcome.Search.stats.Search.implementation_trials;
      }
  | [] ->
      {
        spec;
        feasible = false;
        best = None;
        advice =
          Printf.sprintf
            "infeasible under the current constraints (%d trials); consider \
             relaxing constraints, adding chips or repartitioning"
            report.Explore.outcome.Search.stats.Search.implementation_trials;
      }

let what_if ?(config = Explore.Config.default) spec =
  (* with_engine, not a bare create: a probe configured with jobs > 1
     would otherwise leak its worker domains until the Gc backstop *)
  judge spec (Explore.with_engine config spec Explore.Session.run)

let optimize_memory_hosts ?config spec =
  let on_chip_blocks =
    List.filter_map
      (fun m ->
        match m.Chop_tech.Memory.placement with
        | Chop_tech.Memory.On_chip _ -> Some m.Chop_tech.Memory.mname
        | Chop_tech.Memory.Off_chip_package _ -> None)
      spec.Spec.memories
  in
  let chip_names = List.map (fun c -> c.Spec.chip_name) spec.Spec.chips in
  let better a b =
    (* a beats b when it is feasible and faster (then shorter delay) *)
    match (a.best, b.best) with
    | Some sa, Some sb ->
        if sa.Integration.perf_ns <> sb.Integration.perf_ns then
          sa.Integration.perf_ns < sb.Integration.perf_ns
        else
          Chop_util.Triplet.(sa.Integration.delay.likely)
          < Chop_util.Triplet.(sb.Integration.delay.likely)
    | Some _, None -> true
    | None, Some _ | None, None -> false
  in
  let placements =
    Chop_util.Listx.cartesian (List.map (fun _ -> chip_names) on_chip_blocks)
  in
  List.fold_left
    (fun (best_spec, best_j) hosts ->
      let edits =
        List.map2
          (fun block chip -> Spec.Rehost_memory { block; chip })
          on_chip_blocks hosts
      in
      match apply spec edits with
      | candidate ->
          let j = what_if ?config candidate in
          if better j best_j then (candidate, j) else (best_spec, best_j)
      | exception Rejected _ -> (best_spec, best_j))
    (spec, what_if ?config spec) placements

let compare_specs ?config before after =
  let jb = what_if ?config before and ja = what_if ?config after in
  let describe j =
    match j.best with
    | Some b ->
        Printf.sprintf "II %d @ %.0f ns (delay %d)" b.Integration.ii_main
          b.Integration.clock b.Integration.delay_cycles
    | None -> "infeasible"
  in
  Printf.sprintf "before: %s; after: %s — %s" (describe jb) (describe ja)
    (match (jb.best, ja.best) with
    | Some b, Some a when a.Integration.perf_ns < b.Integration.perf_ns ->
        "the modification improves performance"
    | Some b, Some a when a.Integration.perf_ns > b.Integration.perf_ns ->
        "the modification degrades performance"
    | Some _, Some _ -> "performance is unchanged"
    | None, Some _ -> "the modification makes the design feasible"
    | Some _, None -> "the modification breaks feasibility"
    | None, None -> "still infeasible")
