type heuristic = Enumeration | Iterative | Branch_bound

exception Cancelled

type bad_stats = {
  label : string;
  total_predictions : int;
  feasible_predictions : int;
  kept : int;
}

module Config = struct
  type cache_scope = Shared | Off | Custom of Pred_cache.t

  type t = {
    heuristic : heuristic;
    keep_all : bool;
    pre_prune : bool;
    jobs : int;
    cache : cache_scope;
  }

  let default =
    { heuristic = Iterative; keep_all = false; pre_prune = true; jobs = 1;
      cache = Shared }

  let make ?(heuristic = default.heuristic) ?(keep_all = default.keep_all)
      ?(pre_prune = default.pre_prune) ?(jobs = default.jobs)
      ?(cache = default.cache) () =
    if jobs < 1 then invalid_arg "Explore.Config.make: jobs must be >= 1";
    { heuristic; keep_all; pre_prune; jobs; cache }
end

module Metrics = struct
  type phase = { wall_seconds : float; busy_seconds : float }

  type t = {
    predict : phase;
    search : phase;
    merge_wall_seconds : float;
    worker_busy_seconds : float array;
    chunk_count : int;
    cache_hits : int;
    cache_misses : int;
    cache_evictions : int;
    pruned_impls : int;
    integrations_avoided : int;
    chip_cache_hits : int;
  }

  let zero_phase = { wall_seconds = 0.; busy_seconds = 0. }

  let zero =
    { predict = zero_phase; search = zero_phase; merge_wall_seconds = 0.;
      worker_busy_seconds = [||]; chunk_count = 0; cache_hits = 0;
      cache_misses = 0; cache_evictions = 0; pruned_impls = 0;
      integrations_avoided = 0; chip_cache_hits = 0 }

  (* elementwise sum, padding the shorter array with zeros *)
  let add_worker_busy a b =
    let n = max (Array.length a) (Array.length b) in
    Array.init n (fun i ->
        (if i < Array.length a then a.(i) else 0.)
        +. if i < Array.length b then b.(i) else 0.)

  let summary m =
    let buf = Buffer.create 256 in
    Buffer.add_string buf "phase      wall s    busy s\n";
    let phase name p =
      Buffer.add_string buf
        (Printf.sprintf "%-8s %8.3f  %8.3f\n" name p.wall_seconds
           p.busy_seconds)
    in
    phase "predict" m.predict;
    phase "search" m.search;
    Buffer.add_string buf
      (Printf.sprintf "%-8s %8.3f         -\n" "merge" m.merge_wall_seconds);
    Buffer.add_string buf
      (Printf.sprintf "workers: %d busy [%s] s, %d chunk(s), cache %d hit(s) \
                       / %d miss(es) / %d eviction(s)\n"
         (Array.length m.worker_busy_seconds)
         (String.concat "/"
            (Array.to_list
               (Array.map (Printf.sprintf "%.3f") m.worker_busy_seconds)))
         m.chunk_count m.cache_hits m.cache_misses m.cache_evictions);
    Buffer.add_string buf
      (Printf.sprintf
         "search: %d impl(s) pre-pruned, %d integration(s) avoided, %d \
          chip-report cache hit(s)\n"
         m.pruned_impls m.integrations_avoided m.chip_cache_hits);
    Buffer.contents buf
end

type report = {
  heuristic : heuristic;
  bad : bad_stats list;
  outcome : Search.outcome;
  jobs : int;
  metrics : Metrics.t;
}

let predictor_config spec ~label =
  let params = spec.Spec.params in
  Chop_bad.Predictor.config ~alloc_cap:params.Spec.alloc_cap
    ~max_pipelined_iis:params.Spec.max_pipelined_iis
    ~testability_overhead:params.Spec.testability_overhead
    ~memories:(Spec.memories_of_partition spec label)
    ~library:spec.Spec.library ~clocks:spec.Spec.clocks ~style:spec.Spec.style ()

(* at this stage the exact pin usage is unknown; Model.capacity assumes
   half the package pins are bonded as signal pads (hardware) or the
   processor's memory budget (software) *)
let partition_chip_area spec ~label = Model.capacity Model.Hardware spec ~label

module SMap = Map.Make (String)

module Session = struct
  type t = {
    config : Config.t;
    mutable spec : Spec.t;
    pool : Chop_util.Pool.t;
    owns_pool : bool;
        (* a pool passed in by the caller (the serving layer shares one
           pool across every session) outlives the session: close must not
           shut it down *)
    cache : Pred_cache.t option;
    mutable ctx : Integration.context;
    mutable revision : int;
    mutable pending : string list;
        (* labels whose predictions an edit invalidated since the last run
           (plus, before the first run, every partition) *)
    mutable entries : Pred_cache.entry SMap.t;
        (* each label's entry from the last completed prediction pass,
           valid exactly while the label is not pending: a pass serves it
           with no subgraph, key or cache lookup *)
    history : int;
    mutable undo_stack : Spec.t list;
        (* previous specs, most recent first, bounded by [history] *)
    mutable redo_stack : Spec.t list;
    mutable closed : bool;
  }

  let part_labels spec =
    List.map
      (fun p -> p.Chop_dfg.Partition.label)
      spec.Spec.partitioning.Chop_dfg.Partition.parts

  let create ?pool ?(history = 32) (config : Config.t) spec =
    if history < 0 then
      invalid_arg "Explore.Session.create: history must be >= 0";
    let cache =
      match config.Config.cache with
      | Config.Shared -> Some Pred_cache.shared
      | Config.Off -> None
      | Config.Custom c -> Some c
    in
    let pool, owns_pool =
      match pool with
      | Some p -> (p, false)
      | None -> (Chop_util.Pool.create ~jobs:config.Config.jobs (), true)
    in
    { config; spec; pool; owns_pool; cache; ctx = Integration.context spec;
      revision = 0; pending = part_labels spec; entries = SMap.empty; history;
      undo_stack = []; redo_stack = []; closed = false }

  let close e =
    e.closed <- true;
    if e.owns_pool then Chop_util.Pool.shutdown e.pool

  let config e = e.config
  let spec e = e.spec
  let context e = e.ctx
  let revision e = e.revision
  let pending_dirty e = e.pending
  let jobs e = Chop_util.Pool.jobs e.pool
  let undo_depth e = List.length e.undo_stack
  let redo_depth e = List.length e.redo_stack

  let check_open e name =
    if e.closed then
      invalid_arg (Printf.sprintf "Explore.Session.%s: session is closed" name)

  (* A speculative copy: same config, same (shared) prediction cache, same
     pool — borrowed, so closing the fork never shuts it down — and a
     snapshot of the parent's mutable state, carried entries included, so
     a fork predicts only what its own edits dirty.  Edits and runs on the
     fork leave the parent untouched; predictions the fork computes land
     in the shared cache, so whichever speculative state the caller later
     commits on the parent re-serves them as hits. *)
  let fork e =
    check_open e "fork";
    { e with owns_pool = false }

  (* Batched speculative evaluation: each task receives a private fork of
     [e] and the tasks run concurrently on the session's pool.  The parent
     session is not mutated, so a task that raises (the exception is
     re-raised here after the batch drains, per Pool.run semantics) leaves
     both the session and the pool fully usable.  Note: a fork's [run]
     submits its per-partition work to the same (already busy) pool; those
     nested submissions fall back to inline execution, so probes never
     deadlock. *)
  let speculate e fs =
    check_open e "speculate";
    let tasks = Array.map (fun f -> let s = fork e in fun () -> f s) fs in
    Chop_util.Pool.run_timed e.pool tasks

  (* Shared tail of every spec mutation: install the new spec, rebuild the
     integration context (its statics are per-spec), bump the revision and
     fold the dirty labels into the pending set.  Predictive work is not
     redone here; the next pass re-derives exactly the pending labels.  A
     [rederive] label is pending too: its carried entry was screened
     against the old chip or criteria. *)
  let install e spec' (d : Spec.dirty) =
    e.spec <- spec';
    e.ctx <- Integration.context spec';
    e.revision <- e.revision + 1;
    let live = part_labels spec' in
    e.pending <-
      List.sort_uniq String.compare
        (e.pending @ d.Spec.repredict @ d.Spec.rederive)
      |> List.filter (fun l -> List.mem l live)

  let edit e edits =
    check_open e "edit";
    match Spec.update e.spec edits with
    | Error _ as err -> err
    | Ok (spec', d) ->
        let prev = e.spec in
        install e spec' d;
        if e.history > 0 then begin
          e.undo_stack <-
            List.filteri (fun i _ -> i < e.history) (prev :: e.undo_stack);
          e.redo_stack <- []
        end;
        Ok d

  let undo e =
    check_open e "undo";
    match e.undo_stack with
    | [] -> Error "nothing to undo"
    | prev :: rest ->
        let d = Spec.diff ~current:e.spec ~target:prev in
        e.undo_stack <- rest;
        e.redo_stack <- e.spec :: e.redo_stack;
        install e prev d;
        Ok d

  let redo e =
    check_open e "redo";
    match e.redo_stack with
    | [] -> Error "nothing to redo"
    | next :: rest ->
        let d = Spec.diff ~current:e.spec ~target:next in
        e.redo_stack <- rest;
        e.undo_stack <- e.spec :: e.undo_stack;
        install e next d;
        Ok d

  (* The durable projection of a session: everything {!restore} needs to
     resurrect it in another process (the pool, cache handle and context
     are rebuilt there).  Specs inside are immutable, so the state shares
     them with the live session at zero cost. *)
  type state = {
    st_spec : Spec.t;
    st_revision : int;
    st_pending : string list;
    st_undo : Spec.t list;
    st_redo : Spec.t list;
  }

  let state e =
    check_open e "state";
    { st_spec = e.spec; st_revision = e.revision; st_pending = e.pending;
      st_undo = e.undo_stack; st_redo = e.redo_stack }

  let restore ?pool ?history config st =
    let e = create ?pool ?history config st.st_spec in
    e.revision <- st.st_revision;
    e.pending <- st.st_pending;
    e.undo_stack <- List.filteri (fun i _ -> i < e.history) st.st_undo;
    e.redo_stack <- st.st_redo;
    e

  (* Derive one partition's full entry (raw list, feasible count, pruned
     list) through the cache.  Returns the entry plus whether the cache
     served the raw predictions. *)
  let lookup_partition e part =
    let spec = e.spec in
    let label = part.Chop_dfg.Partition.label in
    let sub = Chop_dfg.Partition.subgraph spec.Spec.partitioning part in
    let model = Model.of_spec spec ~label in
    let cfg = predictor_config spec ~label in
    let chip_area = Model.capacity model spec ~label in
    let chip = (Spec.chip_of_partition spec label).Spec.package in
    let criteria = spec.Spec.criteria in
    let derive raw =
      let feasible_count =
        List.length
          (List.filter
             (Chop_bad.Feasibility.partition_feasible criteria
                ~clocks:spec.Spec.clocks ~chip_area)
             raw)
      in
      let kept = Model.prune model cfg ~criteria ~capacity:chip_area raw in
      { Pred_cache.raw; feasible_count; kept }
    in
    let entry, hit =
      match e.cache with
      | None -> (derive (Model.predict model cfg ~label sub), false)
      | Some cache -> (
          let raw_key = Pred_cache.Key.raw ~sub ~cfg ~model in
          let full_key = Pred_cache.Key.full ~raw:raw_key ~chip ~criteria in
          match Pred_cache.find_full cache full_key with
          | Some entry -> (entry, true)
          | None ->
              let raw, hit =
                match Pred_cache.find_raw cache raw_key with
                | Some raw -> (raw, true)
                | None ->
                    let raw = Model.predict model cfg ~label sub in
                    Pred_cache.add_raw cache raw_key raw;
                    (raw, false)
              in
              let entry = derive raw in
              Pred_cache.add_full cache full_key entry;
              (entry, hit))
    in
    (* cached predictions may have been computed under another partition's
       label: restamp, so downstream reports name this partition.  A list
       that already carries the label is shared with the cache, not
       copied. *)
    let relabel ps =
      if
        List.for_all
          (fun (p : Chop_bad.Prediction.t) ->
            p.Chop_bad.Prediction.partition_label = label)
          ps
      then ps
      else
        List.map
          (fun (p : Chop_bad.Prediction.t) ->
            { p with Chop_bad.Prediction.partition_label = label })
          ps
    in
    ( { entry with
        Pred_cache.raw = relabel entry.Pred_cache.raw;
        kept = relabel entry.Pred_cache.kept },
      hit )

  (* One partition's prediction work, run on a pool worker: the carried
     entry of a label no edit dirtied, else a cache lookup.  Returns the
     entry plus whether it was served without running BAD. *)
  let predict_partition ~interrupt e part =
    if interrupt () then raise Cancelled;
    let label = part.Chop_dfg.Partition.label in
    match SMap.find_opt label e.entries with
    | Some entry when not (List.mem label e.pending) -> (label, entry, true)
    | Some _ | None ->
        let entry, hit = lookup_partition e part in
        (label, entry, hit)

  (* Everything the prediction phase yields beyond the lists themselves:
     per-partition stats, cache counters and the timing breakdown. *)
  type predict_phase = {
    per_partition : (string * Chop_bad.Prediction.t list) list;
    bad : bad_stats list;
    hits : int;
    misses : int;
    wall_seconds : float;
    pool_stats : Chop_util.Pool.run_stats;
  }

  let predictions_timed ?(interrupt = fun () -> false) e ~prune =
    let wall0 = Unix.gettimeofday () in
    let tasks =
      Array.of_list
        (List.map
           (fun part () -> predict_partition ~interrupt e part)
           e.spec.Spec.partitioning.Chop_dfg.Partition.parts)
    in
    let results, pool_stats = Chop_util.Pool.run_timed e.pool tasks in
    let results = Array.to_list results in
    e.entries <-
      List.fold_left
        (fun m (label, entry, _) -> SMap.add label entry m)
        SMap.empty results;
    let per_partition =
      List.map
        (fun (label, entry, _) ->
          ( label,
            if prune then entry.Pred_cache.kept else entry.Pred_cache.raw ))
        results
    in
    let bad =
      List.map
        (fun (label, entry, _) ->
          {
            label;
            total_predictions = List.length entry.Pred_cache.raw;
            feasible_predictions = entry.Pred_cache.feasible_count;
            kept = List.length entry.Pred_cache.kept;
          })
        results
    in
    let hits = List.length (List.filter (fun (_, _, h) -> h) results) in
    {
      per_partition;
      bad;
      hits;
      misses = List.length results - hits;
      wall_seconds = Unix.gettimeofday () -. wall0;
      pool_stats;
    }

  let predictions e =
    check_open e "predictions";
    let p =
      predictions_timed e ~prune:e.spec.Spec.params.Spec.discard_inferior
    in
    (p.per_partition, p.bad)

  let cache_evictions e =
    match e.cache with
    | None -> 0
    | Some c -> (Pred_cache.counters c).Pred_cache.evictions

  let run_interruptible ~interrupt e =
    check_open e "run";
    if interrupt () then raise Cancelled;
    let keep_all = e.config.Config.keep_all in
    let evictions0 = cache_evictions e in
    let p = predictions_timed ~interrupt e ~prune:(not keep_all) in
    if interrupt () then raise Cancelled;
    (* second-level dominance pre-pruning: shrink each partition's list to
       picks that can still contribute to the Pareto front of full systems
       (Prune's soundness argument).  Only the exhaustive searches walk the
       whole product; the iterative heuristic's serialization path depends
       on the exact list contents, so it is left untouched. *)
    let search_lists, pruned_impls =
      match e.config.Config.heuristic with
      | (Enumeration | Branch_bound) when e.config.Config.pre_prune ->
          Prune.per_partition ~clocks:e.spec.Spec.clocks p.per_partition
      | Enumeration | Branch_bound | Iterative -> (p.per_partition, 0)
    in
    let search_metrics = ref Search.no_parallel_metrics in
    let search_wall0 = Unix.gettimeofday () in
    let outcome =
      match e.config.Config.heuristic with
      | Enumeration ->
          Enum_heuristic.run ~keep_all ~pool:e.pool ~metrics:search_metrics
            e.ctx search_lists
      | Iterative ->
          Iter_heuristic.run ~keep_all ~metrics:search_metrics e.ctx
            search_lists
      | Branch_bound ->
          Bb_heuristic.run ~keep_all ~pool:e.pool ~metrics:search_metrics
            e.ctx search_lists
    in
    let sm = !search_metrics in
    let search_phase =
      match e.config.Config.heuristic with
      | Iterative ->
          (* sequential: busy time equals the wall clock of the search *)
          let wall = Unix.gettimeofday () -. search_wall0 in
          { Metrics.wall_seconds = wall; busy_seconds = wall }
      | Enumeration | Branch_bound ->
          { Metrics.wall_seconds = sm.Search.search_wall_seconds;
            busy_seconds = sm.Search.search_busy_seconds }
    in
    let metrics =
      {
        Metrics.predict =
          { Metrics.wall_seconds = p.wall_seconds;
            busy_seconds =
              Array.fold_left ( +. ) 0.
                p.pool_stats.Chop_util.Pool.worker_busy };
        search = search_phase;
        merge_wall_seconds = sm.Search.merge_wall_seconds;
        worker_busy_seconds =
          Metrics.add_worker_busy p.pool_stats.Chop_util.Pool.worker_busy
            sm.Search.worker_busy_seconds;
        chunk_count =
          p.pool_stats.Chop_util.Pool.chunk_count + sm.Search.chunk_count;
        cache_hits = p.hits;
        cache_misses = p.misses;
        cache_evictions = cache_evictions e - evictions0;
        pruned_impls;
        integrations_avoided =
          outcome.Search.stats.Search.integrations_avoided;
        chip_cache_hits = sm.Search.chip_cache_hits;
      }
    in
    e.pending <- [];
    { heuristic = e.config.Config.heuristic; bad = p.bad; outcome;
      jobs = Chop_util.Pool.jobs e.pool; metrics }

  let run e = run_interruptible ~interrupt:(fun () -> false) e

  (* Distributed fan-out support: run only the first-axis slices whose
     global index is congruent to [index] modulo [count], and expose them
     raw (unmerged) so a front process can replay every backend's
     admissions in global task order — Search.Slice.merge at row
     granularity — and reproduce the sequential outcome byte for byte.
     Prediction and pre-pruning run in full (they are what make the
     restricted search identical to the corresponding slices of a full
     run); pending is left untouched, a partial run is not a run. *)
  type slice_run = {
    slice_bad : bad_stats list;
    first_total : int;
        (* first-axis choices in the full search (1 for the degenerate
           empty product, which index 0 owns) *)
    slice_indices : int list;  (* global indices, aligned with [slices] *)
    slices : Search.Slice.t list;
  }

  let run_slice ~index ~count e =
    check_open e "run_slice";
    if count < 1 || index < 0 || index >= count then
      invalid_arg "Explore.Session.run_slice: slice index out of range";
    let keep_all = e.config.Config.keep_all in
    let p = predictions_timed e ~prune:(not keep_all) in
    let search_lists =
      match e.config.Config.heuristic with
      | Iterative ->
          invalid_arg
            "Explore.Session.run_slice: the iterative heuristic does not \
             slice"
      | Enumeration | Branch_bound ->
          if e.config.Config.pre_prune then
            fst (Prune.per_partition ~clocks:e.spec.Spec.clocks p.per_partition)
          else p.per_partition
    in
    let first_total =
      match search_lists with [] -> 1 | (_, ps) :: _ -> List.length ps
    in
    let slice_indices =
      List.filter (fun j -> j mod count = index) (List.init first_total Fun.id)
    in
    let restricted =
      match search_lists with
      | [] -> []
      | (l0, ps0) :: rest ->
          (l0, List.filteri (fun j _ -> j mod count = index) ps0) :: rest
    in
    let slices =
      if slice_indices = [] then []
      else begin
        let out = ref [] in
        (match e.config.Config.heuristic with
        | Enumeration ->
            ignore
              (Enum_heuristic.run ~keep_all ~pool:e.pool ~slices_out:out e.ctx
                 restricted)
        | Branch_bound ->
            ignore
              (Bb_heuristic.run ~keep_all ~pool:e.pool ~slices_out:out e.ctx
                 restricted)
        | Iterative -> assert false);
        !out
      end
    in
    { slice_bad = p.bad; first_total; slice_indices; slices }
end

let with_engine ?pool config spec f =
  let e = Session.create ?pool config spec in
  Fun.protect ~finally:(fun () -> Session.close e) (fun () -> f e)

let unique_designs systems =
  let key s =
    ( s.Integration.ii_main,
      s.Integration.delay_cycles,
      int_of_float Chop_util.Triplet.((Integration.total_area s).likely) )
  in
  Chop_util.Listx.uniq_count ~compare:Stdlib.compare (List.map key systems)

let pp_heuristic ppf = function
  | Enumeration -> Format.pp_print_string ppf "E"
  | Iterative -> Format.pp_print_string ppf "I"
  | Branch_bound -> Format.pp_print_string ppf "B"
