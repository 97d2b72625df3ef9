type stats = {
  implementation_trials : int;
  integrations : int;
  integrations_avoided : int;
  feasible_trials : int;
  cpu_seconds : float;
}

type outcome = {
  feasible : Integration.system list;
  explored : Integration.system list;
  stats : stats;
}

let empty_stats =
  { implementation_trials = 0; integrations = 0; integrations_avoided = 0;
    feasible_trials = 0; cpu_seconds = 0. }

type parallel_metrics = {
  search_wall_seconds : float;
  search_busy_seconds : float;
  merge_wall_seconds : float;
  worker_busy_seconds : float array;
  chunk_count : int;
  chip_cache_hits : int;
}

let no_parallel_metrics =
  { search_wall_seconds = 0.; search_busy_seconds = 0.;
    merge_wall_seconds = 0.; worker_busy_seconds = [||]; chunk_count = 0;
    chip_cache_hits = 0 }

let delay_likely s = Chop_util.Triplet.(s.Integration.delay.likely)
let area_likely s = Chop_util.Triplet.((Integration.total_area s).likely)

(* the design point {!finalize} collapses distinct combinations to *)
let dedup_key s =
  ( s.Integration.ii_main,
    s.Integration.delay_cycles,
    int_of_float s.Integration.clock,
    int_of_float (area_likely s /. 50.) )

(* the (performance, delay) order of the feasible list *)
let compare_rank a b =
  match Float.compare a.Integration.perf_ns b.Integration.perf_ns with
  | 0 -> Float.compare (delay_likely a) (delay_likely b)
  | n -> n

let csv_line s =
  Printf.sprintf "%d,%.1f,%.1f,%d,%.1f,%.1f,%b\n" s.Integration.ii_main
    s.Integration.clock s.Integration.perf_ns s.Integration.delay_cycles
    (delay_likely s) (area_likely s) (Integration.feasible s)

let to_csv systems =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "ii_main,clock_ns,perf_ns,delay_cycles,delay_likely_ns,area_likely,feasible\n";
  List.iter (fun s -> Buffer.add_string buf (csv_line s)) systems;
  Buffer.contents buf

let admit system front =
  let objs = Integration.objectives system in
  let dominated =
    List.exists
      (fun s -> Chop_util.Pareto.dominates (Integration.objectives s) objs)
      front
  in
  if dominated then (front, false)
  else
    ( system
      :: List.filter
           (fun s ->
             not (Chop_util.Pareto.dominates objs (Integration.objectives s)))
           front,
      true )

let finalize ~keep_all ~feasible ~explored stats =
  let non_inferior =
    Chop_util.Pareto.frontier ~objectives:Integration.objectives feasible
  in
  (* collapse distinct combinations that predict the same design point *)
  let non_inferior =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun s ->
        let key = dedup_key s in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      non_inferior
  in
  {
    feasible = List.sort compare_rank non_inferior;
    explored = (if keep_all then explored else []);
    stats;
  }

module Slice = struct
  type t = {
    mutable trials : int;
    mutable integrations : int;
    mutable avoided : int;
    mutable cache_hits : int;
    mutable feasible : int;
    mutable front : Integration.system list;
    mutable admitted_rev : Integration.system list;
    mutable explored_rev : Integration.system list;
  }

  let create () =
    { trials = 0; integrations = 0; avoided = 0; cache_hits = 0; feasible = 0;
      front = []; admitted_rev = []; explored_rev = [] }

  let step sl = sl.trials <- sl.trials + 1

  let avoid sl =
    sl.trials <- sl.trials + 1;
    sl.avoided <- sl.avoided + 1

  let set_cache_hits sl n = sl.cache_hits <- n

  let cache_hit_total slices =
    List.fold_left (fun acc sl -> acc + sl.cache_hits) 0 slices

  let record ~keep_all sl system =
    sl.trials <- sl.trials + 1;
    sl.integrations <- sl.integrations + 1;
    if keep_all then sl.explored_rev <- system :: sl.explored_rev;
    if Integration.feasible system then begin
      sl.feasible <- sl.feasible + 1;
      let front, admitted = admit system sl.front in
      if admitted then begin
        sl.front <- front;
        sl.admitted_rev <- system :: sl.admitted_rev
      end
    end

  let merge ~keep_all ~cpu_seconds slices =
    (* the sequential accumulator prepends, so it ends up with the last
       integration first: concatenating the per-slice reversed lists in
       reverse task order reproduces it exactly *)
    let explored =
      List.concat (List.rev_map (fun sl -> sl.explored_rev) slices)
    in
    (* replay each slice's admissions, in task order, through the shared
       front.  A system a slice dropped locally was dominated by an earlier
       system of the same slice, which the replay also sees (or evicts only
       for something that dominates it in turn — dominance is transitive),
       so the replayed front equals the sequential one, order included. *)
    let front =
      List.fold_left
        (fun front sl ->
          List.fold_left
            (fun front system -> fst (admit system front))
            front
            (List.rev sl.admitted_rev))
        [] slices
    in
    let stats =
      {
        implementation_trials =
          List.fold_left (fun acc sl -> acc + sl.trials) 0 slices;
        integrations =
          List.fold_left (fun acc sl -> acc + sl.integrations) 0 slices;
        integrations_avoided =
          List.fold_left (fun acc sl -> acc + sl.avoided) 0 slices;
        (* the sequential searches count feasible *integrations*, not the
           final front size — sum the per-slice counters to match *)
        feasible_trials =
          List.fold_left (fun acc sl -> acc + sl.feasible) 0 slices;
        cpu_seconds;
      }
    in
    finalize ~keep_all ~feasible:front ~explored stats
end
