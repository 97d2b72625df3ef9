type chip_instance = { chip_name : string; package : Chop_tech.Chip.t }

type params = {
  alloc_cap : int;
  max_pipelined_iis : int;
  testability_overhead : float;
  discard_inferior : bool;
}

let default_params =
  {
    alloc_cap = 8;
    max_pipelined_iis = 8;
    testability_overhead = 0.;
    discard_inferior = true;
  }

type t = {
  graph : Chop_dfg.Graph.t;
  library : Chop_tech.Component.library;
  chips : chip_instance list;
  memories : Chop_tech.Memory.t list;
  memory_hosts : (string * string) list;
  partitioning : Chop_dfg.Partition.partitioning;
  assignment : (string * string) list;
  clocks : Chop_tech.Clocking.t;
  style : Chop_tech.Style.t;
  criteria : Chop_bad.Feasibility.criteria;
  params : params;
  processors : Chop_model_sw.Processor.t list;
  impls : (string * string) list;
}

exception Invalid_spec of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid_spec s)) fmt

let make ?(params = default_params) ?(memories = []) ?(memory_hosts = [])
    ?(processors = []) ?(impls = []) ~graph
    ~library ~chips ~partitioning ~assignment ~clocks ~style ~criteria () =
  if chips = [] then fail "no chips in the chip set";
  let chip_names = List.map (fun c -> c.chip_name) chips in
  if List.length (List.sort_uniq String.compare chip_names) <> List.length chips
  then fail "duplicate chip name";
  if partitioning.Chop_dfg.Partition.graph != graph then
    fail "partitioning built for a different graph";
  if not (Chop_tech.Component.covers library graph) then
    fail "component library does not cover the graph's functional classes";
  (* every partition assigned exactly once, to a known chip *)
  List.iter
    (fun p ->
      let label = p.Chop_dfg.Partition.label in
      match List.filter (fun (l, _) -> l = label) assignment with
      | [] -> fail "partition %s is not assigned to a chip" label
      | [ (_, chip) ] ->
          if not (List.mem chip chip_names) then
            fail "partition %s assigned to unknown chip %s" label chip
      | _ -> fail "partition %s assigned more than once" label)
    partitioning.Chop_dfg.Partition.parts;
  List.iter
    (fun (label, _) ->
      if
        not
          (List.exists
             (fun p -> p.Chop_dfg.Partition.label = label)
             partitioning.Chop_dfg.Partition.parts)
      then fail "assignment references unknown partition %s" label)
    assignment;
  (* memory declarations *)
  let declared = List.map (fun m -> m.Chop_tech.Memory.mname) memories in
  List.iter
    (fun block ->
      if not (List.mem block declared) then
        fail "graph references undeclared memory block %s" block)
    (Chop_dfg.Graph.memory_blocks graph);
  List.iter
    (fun m ->
      let name = m.Chop_tech.Memory.mname in
      let host = List.assoc_opt name memory_hosts in
      match (m.Chop_tech.Memory.placement, host) with
      | Chop_tech.Memory.On_chip _, None ->
          fail "on-chip memory %s has no host chip" name
      | Chop_tech.Memory.On_chip _, Some h ->
          if not (List.mem h chip_names) then
            fail "memory %s hosted on unknown chip %s" name h
      | Chop_tech.Memory.Off_chip_package _, Some _ ->
          fail "off-chip memory %s must not have a host chip" name
      | Chop_tech.Memory.Off_chip_package _, None -> ())
    memories;
  (* implementation-model bindings: each partition defaults to the
     hardware model; a binding names a declared processor.  Bindings to
     "hw" are normalised away so two specs that mean the same thing
     compare equal. *)
  let proc_names =
    List.map (fun p -> p.Chop_model_sw.Processor.pname) processors
  in
  if
    List.length (List.sort_uniq String.compare proc_names)
    <> List.length proc_names
  then fail "duplicate processor name";
  let impls = List.filter (fun (_, m) -> m <> "hw") impls in
  let impl_labels = List.map fst impls in
  if
    List.length (List.sort_uniq String.compare impl_labels)
    <> List.length impl_labels
  then fail "partition bound to more than one implementation model";
  List.iter
    (fun (label, m) ->
      if
        not
          (List.exists
             (fun p -> p.Chop_dfg.Partition.label = label)
             partitioning.Chop_dfg.Partition.parts)
      then fail "impl binding references unknown partition %s" label;
      if not (List.mem m proc_names) then
        fail "partition %s bound to unknown model %s (declared: %s)" label m
          (String.concat ", " ("hw" :: proc_names)))
    impls;
  (* a chip is either a custom hardware die or one processor instance:
     every partition placed on it must follow the same model *)
  let impl_of label =
    match List.assoc_opt label impls with Some m -> m | None -> "hw"
  in
  List.iter
    (fun chip ->
      let on_chip =
        List.filter_map
          (fun (l, c) -> if c = chip then Some (impl_of l) else None)
          assignment
      in
      match List.sort_uniq String.compare on_chip with
      | [] | [ _ ] -> ()
      | models ->
          fail "chip %s mixes implementation models (%s)" chip
            (String.concat ", " models))
    chip_names;
  {
    graph;
    library;
    chips;
    memories;
    memory_hosts;
    partitioning;
    assignment;
    clocks;
    style;
    criteria;
    params;
    processors;
    impls;
  }

(* Incremental edits (paper, section 2.2: the designer's interactive moves).

   Every edit funnels through [make], so an [Ok] spec satisfies the full
   validator; the dirty sets tell the exploration session how much predictive
   work the edit invalidates. *)

type edit =
  | Move_op of { op : Chop_dfg.Graph.node_id; to_partition : string }
  | Merge_parts of { src : string; dst : string }
  | Split_part of {
      from_partition : string;
      members : Chop_dfg.Graph.node_id list;
      new_label : string;
    }
  | Reassign_chip of { partition : string; chip : string }
  | Swap_package of { chip : string; package : Chop_tech.Chip.t }
  | Rehost_memory of { block : string; chip : string }
  | Set_clocks of Chop_tech.Clocking.t
  | Set_criteria of Chop_bad.Feasibility.criteria
  | Set_impl of { partition : string; impl : string }

type dirty = {
  repredict : string list;
  rederive : string list;
  removed : string list;
}

let no_dirty = { repredict = []; rederive = []; removed = [] }

type update_error = { index : int; reason : string }

let pp_update_error ppf e =
  Format.fprintf ppf "edit %d: %s" e.index e.reason

let labels t =
  List.map (fun p -> p.Chop_dfg.Partition.label) t.partitioning.Chop_dfg.Partition.parts

let rebuild ?partitioning ?assignment ?chips ?memory_hosts ?clocks ?criteria
    ?impls t =
  let value d o = Option.value ~default:d o in
  let partitioning = value t.partitioning partitioning in
  (* bindings of labels the new partitioning no longer has are dropped;
     explicit bindings are still validated in full by [make] *)
  let impls =
    List.filter
      (fun (l, _) ->
        List.exists
          (fun p -> p.Chop_dfg.Partition.label = l)
          partitioning.Chop_dfg.Partition.parts)
      (value t.impls impls)
  in
  match
    make ~params:t.params ~memories:t.memories
      ~memory_hosts:(value t.memory_hosts memory_hosts)
      ~processors:t.processors ~impls ~graph:t.graph
      ~library:t.library ~chips:(value t.chips chips)
      ~partitioning
      ~assignment:(value t.assignment assignment) ~clocks:(value t.clocks clocks)
      ~style:t.style ~criteria:(value t.criteria criteria) ()
  with
  | t' -> Ok t'
  | exception Invalid_spec reason -> Error reason

let apply_edit t edit =
  let open Chop_dfg in
  let ( let* ) = Result.bind in
  match edit with
  | Move_op { op; to_partition } -> (
      match Partition.part_of t.partitioning op with
      | exception Not_found ->
          Error (Printf.sprintf "operation %d is not in any partition" op)
      | src ->
          let* pg = Partition.move_op t.partitioning ~op ~to_:to_partition in
          let* t' = rebuild ~partitioning:pg t in
          Ok
            ( t',
              { no_dirty with
                repredict = [ src.Partition.label; to_partition ] } ))
  | Merge_parts { src; dst } ->
      let* pg = Partition.merge_parts t.partitioning ~src ~dst in
      let assignment = List.remove_assoc src t.assignment in
      let* t' = rebuild ~partitioning:pg ~assignment t in
      Ok (t', { no_dirty with repredict = [ dst ]; removed = [ src ] })
  | Split_part { from_partition; members; new_label } ->
      let* pg =
        Partition.split_part t.partitioning ~label:from_partition ~members
          ~new_label
      in
      let* chip =
        match List.assoc_opt from_partition t.assignment with
        | Some c -> Ok c
        | None -> Error (Printf.sprintf "unknown partition %s" from_partition)
      in
      let assignment = t.assignment @ [ (new_label, chip) ] in
      (* the carved-out partition stays on the same chip, so it must keep
         the source partition's implementation model *)
      let impls =
        match List.assoc_opt from_partition t.impls with
        | Some m -> t.impls @ [ (new_label, m) ]
        | None -> t.impls
      in
      let* t' = rebuild ~partitioning:pg ~assignment ~impls t in
      Ok (t', { no_dirty with repredict = [ from_partition; new_label ] })
  | Reassign_chip { partition; chip } ->
      if not (List.mem_assoc partition t.assignment) then
        Error (Printf.sprintf "unknown partition %s" partition)
      else if not (List.exists (fun c -> c.chip_name = chip) t.chips) then
        Error (Printf.sprintf "unknown chip %s" chip)
      else
        let assignment =
          List.map
            (fun (l, c) -> if l = partition then (l, chip) else (l, c))
            t.assignment
        in
        let* t' = rebuild ~assignment t in
        Ok (t', { no_dirty with rederive = [ partition ] })
  | Swap_package { chip; package } ->
      if not (List.exists (fun c -> c.chip_name = chip) t.chips) then
        Error (Printf.sprintf "unknown chip %s" chip)
      else
        let chips =
          List.map
            (fun c -> if c.chip_name = chip then { c with package } else c)
            t.chips
        in
        let on_chip =
          List.filter_map
            (fun (l, c) -> if c = chip then Some l else None)
            t.assignment
        in
        let* t' = rebuild ~chips t in
        Ok (t', { no_dirty with rederive = on_chip })
  | Rehost_memory { block; chip } -> (
      match List.find_opt (fun m -> m.Chop_tech.Memory.mname = block) t.memories with
      | None -> Error (Printf.sprintf "unknown memory %s" block)
      | Some m -> (
          match m.Chop_tech.Memory.placement with
          | Chop_tech.Memory.Off_chip_package _ ->
              Error
                (Printf.sprintf "memory %s is an off-chip package; it has no host"
                   block)
          | Chop_tech.Memory.On_chip _ ->
              let memory_hosts =
                (block, chip) :: List.remove_assoc block t.memory_hosts
              in
              let* t' = rebuild ~memory_hosts t in
              (* hosting affects integration (transfer paths), not the
                 per-partition BAD prediction *)
              Ok (t', no_dirty)))
  | Set_clocks clocks ->
      let* t' = rebuild ~clocks t in
      Ok (t', { no_dirty with repredict = labels t' })
  | Set_criteria criteria ->
      let* t' = rebuild ~criteria t in
      (* the raw BAD enumeration survives a criteria change; only the
         feasibility screening (the kept set) must be re-derived *)
      Ok (t', { no_dirty with rederive = labels t' })
  | Set_impl { partition; impl } ->
      if not (List.mem_assoc partition t.assignment) then
        Error (Printf.sprintf "unknown partition %s" partition)
      else if
        impl <> "hw"
        && not
             (List.exists
                (fun p -> p.Chop_model_sw.Processor.pname = impl)
                t.processors)
      then
        Error
          (Printf.sprintf "unknown model %s (declared: %s)" impl
             (String.concat ", "
                ("hw"
                :: List.map
                     (fun p -> p.Chop_model_sw.Processor.pname)
                     t.processors)))
      else
        let impls =
          (partition, impl) :: List.remove_assoc partition t.impls
        in
        let* t' = rebuild ~impls t in
        (* a model change invalidates the partition's predictions outright:
           different predictor, different resource vocabulary *)
        Ok (t', { no_dirty with repredict = [ partition ] })

let update t edits =
  let union a b = List.sort_uniq String.compare (a @ b) in
  let rec go i t acc = function
    | [] -> Ok (t, acc)
    | e :: rest -> (
        match apply_edit t e with
        | Ok (t', d) ->
            go (i + 1) t'
              {
                repredict = union acc.repredict d.repredict;
                rederive = union acc.rederive d.rederive;
                removed = union acc.removed d.removed;
              }
              rest
        | Error reason -> Error { index = i; reason })
  in
  match go 0 t no_dirty edits with
  | Error _ as e -> e
  | Ok (t', d) ->
      (* Normalise against the final partitioning: a label removed then
         recreated is live (and marked for re-prediction by the recreating
         edit); a label edited then removed is only removed.  [repredict]
         subsumes [rederive]. *)
      let live = labels t' in
      let keep ls = List.filter (fun l -> List.mem l live) ls in
      let repredict = keep d.repredict in
      let rederive =
        List.filter (fun l -> not (List.mem l repredict)) (keep d.rederive)
      in
      let removed = List.filter (fun l -> not (List.mem l live)) d.removed in
      Ok (t', { repredict; rederive; removed })

let chip t name =
  List.find (fun c -> c.chip_name = name) t.chips

let chip_of_partition t label = chip t (List.assoc label t.assignment)

let impl_of_partition t label =
  match List.assoc_opt label t.impls with Some m -> m | None -> "hw"

let processor t name =
  List.find (fun p -> p.Chop_model_sw.Processor.pname = name) t.processors

let processor_of_partition t label =
  match List.assoc_opt label t.impls with
  | None -> None
  | Some m -> Some (processor t m)

(* the validator guarantees every partition on a chip follows one model,
   so the first partition's binding speaks for the chip *)
let processor_of_chip t chip_name =
  match
    List.find_opt (fun (_, c) -> c = chip_name) t.assignment
  with
  | None -> None
  | Some (label, _) -> processor_of_partition t label

(* Dirty set of a jump between two specs of the same edit chain (undo/redo
   lands on a spec that is not one [update] step away, so the per-edit dirty
   sets don't apply).  Global predictor inputs — clocks, style, params,
   memory declarations — dirty every partition; otherwise a partition
   re-predicts when its member set changed and re-derives when its chip or
   the criteria changed.  Memory hosting is integration-only state (the
   context is rebuilt on every jump), matching [Rehost_memory]'s empty
   dirty set. *)
let diff ~current ~target =
  let live = labels target in
  let removed = List.filter (fun l -> not (List.mem l live)) (labels current) in
  if
    current.clocks <> target.clocks
    || current.style != target.style
    || current.params <> target.params
    || current.memories <> target.memories
    || current.processors <> target.processors
  then { repredict = live; rederive = []; removed }
  else
    let part_of t l =
      List.find_opt
        (fun p -> p.Chop_dfg.Partition.label = l)
        t.partitioning.Chop_dfg.Partition.parts
    in
    let repredict =
      List.filter
        (fun l ->
          match (part_of current l, part_of target l) with
          | None, _ | _, None -> true
          | Some p, Some q ->
              p.Chop_dfg.Partition.members <> q.Chop_dfg.Partition.members
              || impl_of_partition current l <> impl_of_partition target l)
        live
    in
    let chip_changed l =
      let c = chip_of_partition current l and t' = chip_of_partition target l in
      c.chip_name <> t'.chip_name || c.package <> t'.package
    in
    let rederive =
      List.filter
        (fun l ->
          (not (List.mem l repredict))
          && (current.criteria <> target.criteria || chip_changed l))
        live
    in
    { repredict; rederive; removed }

let partitions_on t chip_name =
  Chop_dfg.Partition.topological_parts t.partitioning
  |> List.filter (fun p ->
         List.assoc p.Chop_dfg.Partition.label t.assignment = chip_name)

let memory t name =
  List.find (fun m -> m.Chop_tech.Memory.mname = name) t.memories

let memory_host t name = List.assoc_opt name t.memory_hosts

(* A partition's subgraph holds its members plus boundary nodes, and only
   members can be memory operations: read the blocks off the members. *)
let blocks_of t p =
  List.filter_map
    (fun id ->
      Chop_dfg.Op.memory_block (Chop_dfg.Graph.node t.graph id).Chop_dfg.Graph.op)
    p.Chop_dfg.Partition.members
  |> List.sort_uniq String.compare

let partitions_accessing t block =
  List.filter_map
    (fun p ->
      if List.mem block (blocks_of t p) then Some p.Chop_dfg.Partition.label
      else None)
    t.partitioning.Chop_dfg.Partition.parts

let memories_of_partition t label =
  List.map (memory t) (blocks_of t (Chop_dfg.Partition.find t.partitioning label))

let pp ppf t =
  Format.fprintf ppf "@[<v>spec: %s on %d chip(s)@,%a@]"
    (Chop_dfg.Graph.name t.graph) (List.length t.chips) Chop_dfg.Partition.pp
    t.partitioning
