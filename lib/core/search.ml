type stats = {
  implementation_trials : int;
  integrations : int;
  integrations_avoided : int;
  feasible_trials : int;
}

type outcome = {
  feasible : Integration.system list;
  explored : Integration.system list;
  stats : stats;
}

let empty_stats =
  { implementation_trials = 0; integrations = 0; integrations_avoided = 0;
    feasible_trials = 0 }

type parallel_metrics = {
  search_wall_seconds : float;
  search_busy_seconds : float;
  merge_wall_seconds : float;
  worker_busy_seconds : float array;
  chunk_count : int;
}

let no_parallel_metrics =
  { search_wall_seconds = 0.; search_busy_seconds = 0.;
    merge_wall_seconds = 0.; worker_busy_seconds = [||]; chunk_count = 0 }

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

(* the primitive behind Printf's %.1f, without the format interpreter *)
external format_float : string -> float -> string = "caml_format_float"

let csv_row buf ii clock perf delay_cycles delay area feasible =
  let field s =
    Buffer.add_string buf s;
    Buffer.add_char buf ','
  in
  field (string_of_int ii);
  field (format_float "%.1f" clock);
  field (format_float "%.1f" perf);
  field (string_of_int delay_cycles);
  field (format_float "%.1f" delay);
  field (format_float "%.1f" area);
  Buffer.add_string buf (string_of_bool feasible);
  Buffer.add_char buf '\n'

let to_csv systems =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "ii_main,clock_ns,perf_ns,delay_cycles,delay_likely_ns,area_likely,feasible\n";
  List.iter
    (fun s ->
      csv_row buf s.Integration.ii_main s.Integration.clock
        s.Integration.perf_ns s.Integration.delay_cycles (delay_likely s)
        (area_likely s) (Integration.feasible s))
    systems;
  Buffer.contents buf

(* A front member keeps the objective vector it was admitted with, so
   every later comparison reads two arrays. *)
type member = { objectives : float array; system : Integration.system }

let admit m front =
  let dominates a b = Chop_util.Pareto.dominates a.objectives b.objectives in
  if List.exists (fun f -> dominates f m) front then (front, false)
  else (m :: List.filter (fun f -> not (dominates m f)) front, true)

(* the outcome of a non-dominated feasible list *)
let outcome ~keep_all ~non_inferior ~explored stats =
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

let finalize ~keep_all ~feasible ~explored stats =
  outcome ~keep_all
    ~non_inferior:
      (Chop_util.Pareto.frontier ~objectives:Integration.objectives feasible)
    ~explored stats

module Slice = struct
  type t = {
    mutable trials : int;
    mutable integrations : int;
    mutable avoided : int;
    mutable feasible : int;
    mutable front : member list;
    mutable admitted_rev : member list;
    mutable explored_rev : Integration.system list;
  }

  let create () =
    { trials = 0; integrations = 0; avoided = 0; feasible = 0; front = [];
      admitted_rev = []; explored_rev = [] }

  let step sl = sl.trials <- sl.trials + 1

  let avoid sl =
    sl.trials <- sl.trials + 1;
    sl.avoided <- sl.avoided + 1

  let record ~keep_all sl system =
    sl.trials <- sl.trials + 1;
    sl.integrations <- sl.integrations + 1;
    if keep_all then sl.explored_rev <- system :: sl.explored_rev;
    if Integration.feasible system then begin
      sl.feasible <- sl.feasible + 1;
      let m = { objectives = Integration.objectives system; system } in
      let front, admitted = admit m sl.front in
      if admitted then begin
        sl.front <- front;
        sl.admitted_rev <- m :: sl.admitted_rev
      end
    end

  let merge ~keep_all slices =
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
            (fun front m -> fst (admit m front))
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
      }
    in
    (* the replayed front is already non-dominated: [finalize]'s
       frontier would keep all of it, in order *)
    outcome ~keep_all
      ~non_inferior:(List.map (fun m -> m.system) front)
      ~explored stats

  let run ~keep_all ~pool ?metrics ctx tasks =
    let wall0 = Unix.gettimeofday () in
    let session = Integration.session ctx in
    let slices, pool_stats =
      Chop_util.Pool.run_timed pool
        (Array.map
           (fun task () ->
             let slice = create () in
             task slice (Integration.domain_cache session);
             slice)
           tasks)
    in
    let search_wall = Unix.gettimeofday () -. wall0 in
    let merge0 = Unix.gettimeofday () in
    let outcome = merge ~keep_all (Array.to_list slices) in
    Option.iter
      (fun r ->
        r :=
          {
            search_wall_seconds = search_wall;
            search_busy_seconds =
              Array.fold_left ( +. ) 0. pool_stats.Chop_util.Pool.worker_busy;
            merge_wall_seconds = Unix.gettimeofday () -. merge0;
            worker_busy_seconds = pool_stats.Chop_util.Pool.worker_busy;
            chunk_count = pool_stats.Chop_util.Pool.chunk_count;
          })
      metrics;
    outcome
end
