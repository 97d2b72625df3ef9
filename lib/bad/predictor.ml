type scheduler = List_based | Force_directed

type config = {
  library : Chop_tech.Component.library;
  memories : Chop_tech.Memory.t list;
  clocks : Chop_tech.Clocking.t;
  style : Chop_tech.Style.t;
  alloc_cap : int;
  max_pipelined_iis : int;
  testability_overhead : float;
  scheduler : scheduler;
  chaining : bool;
}

let config ?(alloc_cap = 8) ?(max_pipelined_iis = 8) ?(testability_overhead = 0.)
    ?(memories = []) ?(scheduler = List_based) ?(chaining = false) ~library
    ~clocks ~style () =
  if alloc_cap < 1 then invalid_arg "Predictor.config: alloc_cap < 1";
  if max_pipelined_iis < 1 then invalid_arg "Predictor.config: max_pipelined_iis < 1";
  if testability_overhead < 0. then
    invalid_arg "Predictor.config: negative testability overhead";
  { library; memories; clocks; style; alloc_cap; max_pipelined_iis;
    testability_overhead; scheduler; chaining }

let signature cfg =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun c ->
      add "c:%s:%s:%d:%.17g:%.17g:%.17g;" c.Chop_tech.Component.cname
        c.Chop_tech.Component.cls c.Chop_tech.Component.width
        c.Chop_tech.Component.area c.Chop_tech.Component.delay
        c.Chop_tech.Component.power)
    cfg.library;
  List.iter
    (fun m ->
      add "m:%s:%d:%d:%d:%.17g:%s;" m.Chop_tech.Memory.mname
        m.Chop_tech.Memory.words m.Chop_tech.Memory.word_width
        m.Chop_tech.Memory.ports m.Chop_tech.Memory.access
        (match m.Chop_tech.Memory.placement with
        | Chop_tech.Memory.On_chip a -> Printf.sprintf "on(%.17g)" a
        | Chop_tech.Memory.Off_chip_package p -> Printf.sprintf "off(%d)" p))
    cfg.memories;
  add "k:%.17g:%d:%d;" cfg.clocks.Chop_tech.Clocking.main
    cfg.clocks.Chop_tech.Clocking.datapath_ratio
    cfg.clocks.Chop_tech.Clocking.transfer_ratio;
  add "s:%s:%s;"
    (match cfg.style.Chop_tech.Style.op_timing with
    | Chop_tech.Style.Single_cycle -> "1c"
    | Chop_tech.Style.Multi_cycle -> "mc")
    (String.concat ","
       (List.map
          (function
            | Chop_tech.Style.Pipelined -> "p"
            | Chop_tech.Style.Non_pipelined -> "n")
          cfg.style.Chop_tech.Style.pipelinings));
  add "p:%d:%d:%.17g:%s:%b" cfg.alloc_cap cfg.max_pipelined_iis
    cfg.testability_overhead
    (match cfg.scheduler with List_based -> "lb" | Force_directed -> "fd")
    cfg.chaining;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Nominal data-path overhead used before the real one is known: one
   register write plus one steering-mux level. *)
let nominal_overhead =
  Chop_tech.Mosis.register_cell.Chop_tech.Component.delay
  +. Chop_tech.Mosis.mux_cell.Chop_tech.Component.delay

let memory_of cfg block =
  match
    List.find_opt (fun m -> m.Chop_tech.Memory.mname = block) cfg.memories
  with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "Predictor: memory block %S not declared" block)

let module_for mset cls =
  List.find_opt (fun c -> c.Chop_tech.Component.cls = cls) mset

(* Latency (data-path cycles) of one operation under a module set. *)
let op_latency cfg mset ~dp_cycle n =
  match n.Chop_dfg.Graph.op with
  | Chop_dfg.Op.Mem_read b | Chop_dfg.Op.Mem_write b ->
      let m = memory_of cfg b in
      (match cfg.style.Chop_tech.Style.op_timing with
      | Chop_tech.Style.Single_cycle -> 1
      | Chop_tech.Style.Multi_cycle ->
          max 1 (Chop_util.Units.ceil_div_ns m.Chop_tech.Memory.access dp_cycle))
  | op ->
      let cls = Chop_dfg.Op.functional_class op in
      (match module_for mset cls with
      | None -> 1
      | Some c ->
          (match cfg.style.Chop_tech.Style.op_timing with
          | Chop_tech.Style.Single_cycle -> 1
          | Chop_tech.Style.Multi_cycle ->
              max 1
                (Chop_util.Units.ceil_div_ns
                   (c.Chop_tech.Component.delay +. nominal_overhead)
                   dp_cycle)))

(* What prediction needs to know about the graph, derived once per call
   and read by every design point. *)
type graph_facts = {
  datapath : Datapath.facts;
  values : Chop_sched.Lifetime.values;
  comparisons : int;
  blocks : string array;  (* memory blocks, sorted *)
  block_of : int array;  (* node id -> index into [blocks]; -1 if none *)
}

let graph_facts g =
  let blocks = Array.of_list (Chop_dfg.Graph.memory_blocks g) in
  let block_of = Array.make (max 1 (Chop_dfg.Graph.size g)) (-1) in
  if blocks <> [||] then
    List.iter
      (fun n ->
        match Chop_dfg.Op.memory_block n.Chop_dfg.Graph.op with
        | Some b ->
            block_of.(n.Chop_dfg.Graph.id) <-
              Option.get (Array.find_index (String.equal b) blocks)
        | None -> ())
      (Chop_dfg.Graph.nodes g);
  {
    datapath = Datapath.facts g;
    values = Chop_sched.Lifetime.values g;
    comparisons = Control.comparisons g;
    blocks;
    block_of;
  }

(* Slowest single-cycle resource: determines the stretched clock in the
   single-cycle style. *)
let slowest_resource cfg mset gf =
  List.fold_left
    (fun acc (cls, _) ->
      if Chop_tech.Component.is_memport_class cls then
        Array.fold_left
          (fun acc b -> Float.max acc (memory_of cfg b).Chop_tech.Memory.access)
          acc gf.blocks
      else
        match module_for mset cls with
        | Some c -> Float.max acc c.Chop_tech.Component.delay
        | None -> acc)
    0. gf.datapath.Datapath.profile

(* Per memory block: peak word accesses started in any one step. *)
let mem_bandwidth gf d =
  let horizon = max 1 d.Chop_sched.Schedule.sched.Chop_sched.Schedule.length in
  let per_step = Array.map (fun _ -> Array.make horizon 0) gf.blocks in
  Array.iteri
    (fun id b ->
      let st = d.Chop_sched.Schedule.start_at.(id) in
      if b >= 0 && st >= 0 && st < horizon then
        per_step.(b).(st) <- per_step.(b).(st) + 1)
    gf.block_of;
  Array.to_list
    (Array.mapi (fun b block -> (block, Array.fold_left max 0 per_step.(b))) gf.blocks)

(* One design point of a schedule: a style, its initiation interval and
   the register demand there. *)
type point = {
  pipelined : bool;
  ii_dp : int;
  demand : Chop_sched.Lifetime.demand;
}

(* What every module set of a latency class shares about one of its
   schedules: the memory bandwidth and each design point, in style order
   and then II ascending. *)
type scheduled = {
  sched : Chop_sched.Schedule.t;
  mem_bandwidth : (string * int) list;
  points : point list;
}

let scheduled cfg gf sched =
  let dense = Chop_sched.Schedule.dense sched in
  let live = Chop_sched.Lifetime.live gf.values dense in
  let length = sched.Chop_sched.Schedule.length in
  let points =
    List.concat_map
      (function
        | Chop_tech.Style.Non_pipelined ->
            [
              {
                pipelined = false;
                ii_dp = length;
                demand = Chop_sched.Lifetime.demand live;
              };
            ]
        | Chop_tech.Style.Pipelined ->
            let min_ii = Chop_sched.Pipeline.first_feasible dense in
            if min_ii >= length then
              (* pipelining cannot beat restarting the schedule *)
              []
            else
              List.map
                (fun ii ->
                  {
                    pipelined = true;
                    ii_dp = ii;
                    demand = Chop_sched.Lifetime.demand ~ii live;
                  })
                (Chop_util.Listx.range min_ii
                   (min (length - 1) (min_ii + cfg.max_pipelined_iis - 1))))
      cfg.style.Chop_tech.Style.pipelinings
  in
  { sched; mem_bandwidth = mem_bandwidth gf dense; points }

let power_estimate mset alloc est shape =
  let fu =
    List.fold_left
      (fun acc (cls, n) ->
        match module_for mset cls with
        | Some c -> acc +. (float_of_int n *. c.Chop_tech.Component.power)
        | None -> acc)
      0. alloc
  in
  fu
  +. (0.01 *. float_of_int est.Datapath.register_bits)
  +. (0.005 *. float_of_int est.Datapath.mux_count)
  +. (0.02 *. float_of_int shape.Chop_tech.Pla.product_terms)

(* Assemble one prediction from a design point of a schedule under one
   module set: the area/delay roll-up. *)
let assemble cfg ~label ~mset ~slowest gf sd ~units { pipelined; ii_dp; demand } =
  let sched = sd.sched in
  let est = Datapath.roll_up gf.datapath units demand in
  let shape =
    Control.controller ~comparisons:gf.comparisons ~sched ~est ~ii:ii_dp
      ~pipelined
  in
  let ctrl_area = Control.area shape and ctrl_delay = Control.delay shape in
  let active =
    est.Datapath.fu_area +. est.Datapath.register_area +. est.Datapath.mux_area
    +. ctrl_area
  in
  let wiring =
    Chop_tech.Wiring.routing_area ~active_area:active ~nets:est.Datapath.nets
  in
  let raw_total =
    Chop_util.Triplet.add (Chop_util.Triplet.exact active) wiring
  in
  let total =
    Chop_util.Triplet.scale (1. +. cfg.testability_overhead) raw_total
  in
  let overhead =
    Chop_tech.Mosis.register_cell.Chop_tech.Component.delay
    +. est.Datapath.mux_select_delay
    +. Chop_tech.Wiring.wire_delay ~total_area:(Chop_util.Triplet.mean total)
    +. ctrl_delay
  in
  let clocks = cfg.clocks in
  let k_dp = float_of_int clocks.Chop_tech.Clocking.datapath_ratio in
  let t_main = clocks.Chop_tech.Clocking.main in
  let clock_main =
    match cfg.style.Chop_tech.Style.op_timing with
    | Chop_tech.Style.Single_cycle ->
        (* the data-path cycle must cover the slowest module + overhead *)
        Float.max t_main ((slowest +. overhead) /. k_dp)
    | Chop_tech.Style.Multi_cycle ->
        (* multi-cycle operations absorb module delay; the per-cycle stretch
           is the steering/control overhead amortized over the ratio *)
        t_main +. (overhead /. k_dp)
  in
  let latency_dp = sched.Chop_sched.Schedule.length in
  let stages =
    if pipelined then Chop_sched.Pipeline.stage_count sched ~ii:ii_dp
    else latency_dp
  in
  {
    Prediction.partition_label = label;
    style =
      (if pipelined then Chop_tech.Style.Pipelined
       else Chop_tech.Style.Non_pipelined);
    module_set = mset;
    alloc = sched.Chop_sched.Schedule.alloc;
    timing =
      {
        Prediction.ii_dp;
        latency_dp;
        stages;
        clock_main;
        overhead;
      };
    area = total;
    breakdown =
      {
        Prediction.functional_units = est.Datapath.fu_area;
        registers = est.Datapath.register_area;
        multiplexers = est.Datapath.mux_area;
        controller = ctrl_area;
        wiring;
      };
    register_bits = est.Datapath.register_bits;
    mux_count = est.Datapath.mux_count;
    controller_shape = shape;
    mem_bandwidth = sd.mem_bandwidth;
    power = power_estimate mset sched.Chop_sched.Schedule.alloc est shape;
  }

let latency_function cfg ~module_set n =
  op_latency cfg module_set
    ~dp_cycle:(Chop_tech.Clocking.datapath_cycle cfg.clocks)
    n

(* Work runs at the level it depends on:
   - [graph_facts] once per call;
   - once per latency class, the module sets under which every node has
     the same latency (and, when chaining, the same chain delay), since
     nothing else that varies with the module set reaches a schedule: the
     allocations, the list scheduler's [prepare], the schedules and each
     schedule's [scheduled] facts;
   - the slowest resource once per module set, [Datapath.units] once per
     schedule and module set, and [assemble] per design point.
   The class table is local to the call: pool domains predict
   concurrently. *)
let predict cfg ~label g =
  (* validate memory references up front *)
  List.iter (fun b -> ignore (memory_of cfg b)) (Chop_dfg.Graph.memory_blocks g);
  if Chop_dfg.Graph.op_count g = 0 then []
  else if not (Chop_tech.Component.covers cfg.library g) then []
  else
    let dp_cycle = Chop_tech.Clocking.datapath_cycle cfg.clocks in
    let gf = graph_facts g in
    let memport_units =
      Array.to_list
        (Array.map
           (fun b -> ("memport:" ^ b, (memory_of cfg b).Chop_tech.Memory.ports))
           gf.blocks)
    in
    let chaining =
      cfg.scheduler = List_based && cfg.chaining
      && cfg.style.Chop_tech.Style.op_timing = Chop_tech.Style.Single_cycle
    in
    let chain_delay mset n =
      match n.Chop_dfg.Graph.op with
      | Chop_dfg.Op.Mem_read b | Chop_dfg.Op.Mem_write b ->
          (memory_of cfg b).Chop_tech.Memory.access
      | op -> (
          match module_for mset (Chop_dfg.Op.functional_class op) with
          | Some c -> c.Chop_tech.Component.delay
          | None -> nominal_overhead)
    in
    (* one schedule per serial-parallel design point: allocation-driven list
       scheduling (default), or length-driven force-directed scheduling *)
    let schedules ~latency ~delay =
      match cfg.scheduler with
      | List_based when chaining ->
          (* chain dependent operations within the long single-cycle step *)
          let budget = dp_cycle -. nominal_overhead in
          List.filter_map
            (fun alloc ->
              match Chop_sched.Chain_sched.run ~delay ~budget ~alloc g with
              | sched, _ -> Some sched
              | exception Invalid_argument _ ->
                  None (* a module outgrows the cycle: set unusable *))
            (Alloc_enum.enumerate ~cap:cfg.alloc_cap ~latency ~memport_units g)
      | List_based ->
          let allocs =
            Alloc_enum.enumerate ~cap:cfg.alloc_cap ~latency ~memport_units g
          in
          let prepared = Chop_sched.List_sched.prepare ~latency g in
          List.map
            (fun alloc -> Chop_sched.List_sched.schedule prepared ~alloc)
            allocs
      | Force_directed ->
          let cp = Chop_dfg.Analysis.critical_path ~latency g in
          let upper = max (cp + 1) (min (4 * cp) (cp + (3 * cfg.alloc_cap))) in
          let step = max 1 ((upper - cp) / (2 * cfg.alloc_cap)) in
          let rec lengths l acc =
            if l > upper then List.rev acc else lengths (l + step) (l :: acc)
          in
          List.filter_map
            (fun length ->
              let sched = Chop_sched.Force_directed.run ~latency ~length g in
              (* a length whose implied memory-port demand exceeds the
                 block's ports is not implementable *)
              let ports_ok =
                List.for_all
                  (fun (cls, used) ->
                    match List.assoc_opt cls memport_units with
                    | Some ports -> used <= ports
                    | None -> true)
                  sched.Chop_sched.Schedule.alloc
              in
              if ports_ok then Some sched else None)
            (lengths cp [])
    in
    (* the schedulers apply [latency] and [delay] to operations only *)
    let ops = Array.of_list (Chop_dfg.Graph.operations g) in
    let classes = Hashtbl.create 8 in
    List.concat_map
      (fun mset ->
        let latency = op_latency cfg mset ~dp_cycle and delay = chain_delay mset in
        let key =
          ( Array.map latency ops,
            if chaining then Array.map delay ops else [||] )
        in
        let shared =
          match Hashtbl.find_opt classes key with
          | Some shared -> shared
          | None ->
              let shared = List.map (scheduled cfg gf) (schedules ~latency ~delay) in
              Hashtbl.add classes key shared;
              shared
        in
        let slowest = slowest_resource cfg mset gf in
        List.concat_map
          (fun sd ->
            let units =
              Datapath.units gf.datapath ~module_set:mset
                ~alloc:sd.sched.Chop_sched.Schedule.alloc
            in
            List.map (assemble cfg ~label ~mset ~slowest gf sd ~units) sd.points)
          shared)
      (Chop_tech.Component.module_sets cfg.library g)

let prune cfg ~criteria ~chip_area preds =
  let feasible =
    List.filter
      (fun p ->
        Feasibility.partition_feasible criteria ~clocks:cfg.clocks ~chip_area p)
      preds
  in
  (* prune per design style: a non-pipelined prediction dominated by a
     pipelined one must survive, because the rate-compatibility rules of
     system integration can make it the only usable choice *)
  let pipe, seq =
    List.partition
      (fun p -> p.Prediction.style = Chop_tech.Style.Pipelined)
      feasible
  in
  Chop_util.Pareto.frontier ~objectives:(Prediction.objectives cfg.clocks) seq
  @ Chop_util.Pareto.frontier ~objectives:(Prediction.objectives cfg.clocks) pipe
