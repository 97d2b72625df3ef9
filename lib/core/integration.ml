type combination = (string * Chop_bad.Prediction.t) list

(* ------------------------------------------------------------------ *)
(* Static, per-spec stage.

   A combination search integrates thousands of combinations against one
   spec.  Everything that depends only on the spec — transfer tasks, pin
   budgets, transfer bandwidths and durations, the prepared urgency
   schedule of the data-transfer and partition tasks, pin-mux and memory
   areas, bonded signal pins — is computed once here and carried in the
   context; the per-combination path below only touches what the picked
   predictions actually change. *)

type dtm_static = {
  ds_task : Transfer.task;
  ds_bandwidth : int;
  ds_transfer_main : int;  (* X, main-clock cycles *)
  ds_member : bool array;  (* chip index -> chip appears in chips_of task *)
  ds_on_chip : bool array;  (* chip index -> cross-chip AND member *)
  ds_holder : int;  (* chip index holding the buffer, -1 when none *)
}

type chip_static = {
  cs_instance : Spec.chip_instance;
  cs_labels : string list;  (* partitions on this chip, partitioning order *)
  cs_label_idxs : int array;  (* same, as partition indexes *)
  cs_sharers : int;  (* cross-chip transfers sharing this chip's pins *)
  cs_pin_mux_area : float;
  cs_memory_area : float;
  cs_signal_pins : int;
  cs_available : float;  (* usable die mil^2, or memory-budget bytes (sw) *)
  cs_pad_mux : float;  (* 2*pad_delay + mux tree delay, when sharers > 0 *)
  cs_static_area_low : float;  (* pin_mux + memory: lower bound on fixed *)
  cs_sw : bool;  (* chip hosts software partitions; ledger is in bytes *)
}

type statics = {
  st_dtm : dtm_static array;
  st_dtm_error : string option;  (* first pin-exhausted transfer, if any *)
  st_dt_ii_max : int;
  st_pin_ii_floor : int;
  st_urgency : Chop_sched.Urgency.prepared;
      (* the data-transfer tasks, then one "pu_<label>" task per
         partition, over each chip's pins and each memory's ports *)
  st_durations : int array;  (* per urgency task; partitions' left 0 *)
  st_demands : (int * int) list array;  (* same, by resource index *)
  st_mem_resource : (string * int) list;  (* memory block -> index *)
  st_chips : chip_static array;
}

type context = {
  spec : Spec.t;
  labels : string array;  (* partition labels, partitioning order *)
  tasks : Transfer.task list;
  budgets : (string * Chop_tech.Chip.pin_budget) list;
  budget_errors : (string * string) list;
  statics : statics option;  (* [None] exactly when budget_errors <> [] *)
}

let spec_of ctx = ctx.spec
let tasks_of ctx = ctx.tasks

let data_pins ctx chip_name =
  match List.assoc_opt chip_name ctx.budgets with
  | Some b -> b.Chop_tech.Chip.data
  | None -> 0

type dtm = {
  task : Transfer.task;
  bandwidth : int;
  transfer_main : int;
  wait_main : int;
  buffer_bits : int;
  ctrl_shape : Chop_tech.Pla.shape;
}

type chip_report = {
  instance : Spec.chip_instance;
  partition_labels : string list;
  signal_pins : int;
  pin_mux_area : Chop_util.Units.mil2;
  dtm_area : Chop_util.Units.mil2;
  buffer_area : Chop_util.Units.mil2;
  memory_area : Chop_util.Units.mil2;
  area_parts : Chop_util.Triplet.t list;
  available : Chop_util.Units.mil2;
  area_verdict : Chop_bad.Feasibility.verdict;
  power : float;
}

type failure =
  | No_failure
  | Rate_mismatch of string list
  | Area_violation of string list
  | Data_clash
  | Too_slow
  | Delay_exceeded
  | Structural of string

type system = {
  combination : combination;
  ii_main : int;
  clock : Chop_util.Units.ns;
  perf_ns : Chop_util.Units.ns;
  delay_cycles : int;
  delay : Chop_util.Triplet.t;
  dtms : dtm list;
  chip_reports : chip_report list;
  task_schedule : Chop_sched.Urgency.result option;
  verdict : Chop_bad.Feasibility.verdict;
  failure : failure;
}

let feasible s = Chop_bad.Feasibility.is_feasible s.verdict

let total_area s =
  Chop_util.Triplet.sum (List.concat_map (fun cr -> cr.area_parts) s.chip_reports)

let objectives s =
  [| s.perf_ns; Chop_util.Triplet.(s.delay.likely);
     Chop_util.Triplet.((total_area s).likely) |]

(* On-chip transfers ride wide internal buses. *)
let on_chip_bus_bits = 128

let mux_cell_area = Chop_tech.Mosis.mux_cell.Chop_tech.Component.area
let register_cell_area = Chop_tech.Mosis.register_cell.Chop_tech.Component.area

(* The picks of a combination in partitioning order.  A combination in
   that order, which every search builds, is checked and unpacked by
   position; any other order is compared sorted. *)
let picks_of ctx comb =
  let labels = ctx.labels in
  let n = Array.length labels in
  let rec in_order i = function
    | [] -> i = n
    | (label, _) :: rest ->
        i < n && String.equal label labels.(i) && in_order (i + 1) rest
  in
  if in_order 0 comb then Array.of_list (List.map snd comb)
  else begin
    let sorted = List.sort String.compare in
    if sorted (Array.to_list labels) <> sorted (List.map fst comb) then
      invalid_arg
        "Integration.integrate: combination does not match partitioning";
    Array.map (fun label -> List.assoc label comb) labels
  end

(* Paper, section 2.4: two or more pipelined partitions with different data
   rates make the global implementation infeasible (rate mismatch); faster
   non-pipelined implementations can accompany slower pipelined ones. *)
let rate_mismatch clocks comb =
  let pipelined_iis =
    List.filter_map
      (fun (_, p) ->
        match p.Chop_bad.Prediction.style with
        | Chop_tech.Style.Pipelined -> Some (Chop_bad.Prediction.ii_main clocks p)
        | Chop_tech.Style.Non_pipelined -> None)
      comb
    |> List.sort_uniq Int.compare
  in
  match pipelined_iis with
  | _ :: _ :: _ ->
      Some
        (Printf.sprintf "data rate mismatch: pipelined partitions at rates {%s}"
           (String.concat ", " (List.map string_of_int pipelined_iis)))
  | [] | [ _ ] -> None

(* ------------------------------------------------------------------ *)
(* Context construction *)

let build_statics spec labels tasks budgets =
  let clocks = spec.Spec.clocks in
  let k_tr = clocks.Chop_tech.Clocking.transfer_ratio in
  let chips = Array.of_list spec.Spec.chips in
  let nchips = Array.length chips in
  let chip_idx = Hashtbl.create nchips in
  Array.iteri
    (fun i ci -> Hashtbl.replace chip_idx ci.Spec.chip_name i)
    chips;
  let data_pins_of name =
    match List.assoc_opt name budgets with
    | Some b -> b.Chop_tech.Chip.data
    | None -> 0
  in
  (* transfer bandwidths and durations; the first pin-exhausted transfer
     poisons the whole context, exactly like the eager Stop used to *)
  let dtm_error = ref None in
  let dtm_rev = ref [] in
  (try
     List.iter
       (fun (t : Transfer.task) ->
         let bandwidth =
           if not t.Transfer.cross_chip then on_chip_bus_bits
           else
             match Transfer.chips_of t with
             | [] -> on_chip_bus_bits
             | task_chips ->
                 (* maximum possible bandwidth (section 2.5) determines the
                    transfer time; the module then bonds only the pins
                    needed to achieve that time *)
                 let budget =
                   List.fold_left
                     (fun acc c -> min acc (data_pins_of c))
                     max_int task_chips
                 in
                 if budget <= 0 then 0
                 else
                   let x_min = Chop_util.Units.ceil_div t.Transfer.bits budget in
                   Chop_util.Units.ceil_div t.Transfer.bits x_min
         in
         if bandwidth <= 0 then begin
           dtm_error :=
             Some
               (Printf.sprintf "no data pins available for transfer %s"
                  t.Transfer.dt_name);
           raise Exit
         end;
         let transfer_main =
           Chop_util.Units.ceil_div t.Transfer.bits bandwidth * k_tr
         in
         let task_chips = Transfer.chips_of t in
         let ds_member = Array.make nchips false in
         List.iter
           (fun c ->
             match Hashtbl.find_opt chip_idx c with
             | Some i -> ds_member.(i) <- true
             | None -> ())
           task_chips;
         let ds_on_chip =
           Array.map (fun m -> t.Transfer.cross_chip && m) ds_member
         in
         let holder_name =
           match t.Transfer.dst_chip with
           | Some c -> c
           | None -> Option.value ~default:"" t.Transfer.src_chip
         in
         let ds_holder =
           match Hashtbl.find_opt chip_idx holder_name with
           | Some i -> i
           | None -> -1
         in
         dtm_rev :=
           { ds_task = t; ds_bandwidth = bandwidth;
             ds_transfer_main = transfer_main; ds_member; ds_on_chip;
             ds_holder }
           :: !dtm_rev)
       tasks
   with Exit -> ());
  let st_dtm = Array.of_list (List.rev !dtm_rev) in
  match !dtm_error with
  | Some _ as err ->
      (* the error fires before anything downstream is consulted *)
      { st_dtm; st_dtm_error = err; st_dt_ii_max = 1; st_pin_ii_floor = 1;
        st_urgency = Chop_sched.Urgency.prepare ~resources:[] [];
        st_durations = [||]; st_demands = [||]; st_mem_resource = [];
        st_chips = [||] }
  | None ->
      let st_dt_ii_max =
        Array.fold_left
          (fun acc d ->
            if d.ds_task.Transfer.cross_chip then max acc d.ds_transfer_main
            else acc)
          1 st_dtm
      in
      (* steady-state pin budget: with one problem instance initiated every
         interval, each chip's shared data pins must carry ALL its
         transfers' bits within one interval — or overlapped instances
         clash *)
      let st_pin_ii_floor =
        List.fold_left
          (fun acc ci ->
            let i = Hashtbl.find chip_idx ci.Spec.chip_name in
            let bits_per_instance =
              Array.fold_left
                (fun acc d ->
                  if d.ds_on_chip.(i) then acc + d.ds_task.Transfer.bits
                  else acc)
                0 st_dtm
            in
            let pins = data_pins_of ci.Spec.chip_name in
            if bits_per_instance = 0 then acc
            else
              max acc (Chop_util.Units.ceil_div bits_per_instance pins * k_tr))
          1 spec.Spec.chips
      in
      let resources =
        List.map
          (fun ci ->
            { Chop_sched.Urgency.rname = "pins:" ^ ci.Spec.chip_name;
              capacity = data_pins_of ci.Spec.chip_name })
          spec.Spec.chips
        @ List.map
            (fun m ->
              { Chop_sched.Urgency.rname = "mem:" ^ m.Chop_tech.Memory.mname;
                capacity = m.Chop_tech.Memory.ports })
            spec.Spec.memories
      in
      let dt_tasks =
        Array.to_list
          (Array.map
             (fun d ->
               let t = d.ds_task in
               {
                 Chop_sched.Urgency.tname = t.Transfer.dt_name;
                 duration = d.ds_transfer_main;
                 demands =
                   (if t.Transfer.cross_chip then
                      List.map
                        (fun c -> ("pins:" ^ c, d.ds_bandwidth))
                        (Transfer.chips_of t)
                    else []);
                 deps =
                   (match t.Transfer.src with
                   | Transfer.Partition_end l -> [ "pu_" ^ l ]
                   | Transfer.World -> []);
               })
             st_dtm)
      in
      (* a partition's duration and memory demands come with its pick *)
      let pu_tasks =
        Array.to_list
          (Array.map
             (fun label ->
               {
                 Chop_sched.Urgency.tname = "pu_" ^ label;
                 duration = 0;
                 demands = [];
                 deps =
                   Array.to_list st_dtm
                   |> List.filter_map (fun d ->
                          match d.ds_task.Transfer.dst with
                          | Transfer.Partition_end l when l = label ->
                              Some d.ds_task.Transfer.dt_name
                          | Transfer.Partition_end _ | Transfer.World -> None);
               })
             labels)
      in
      let urgency_tasks = dt_tasks @ pu_tasks in
      let st_urgency = Chop_sched.Urgency.prepare ~resources urgency_tasks in
      let resource_index = Chop_sched.Urgency.resource_index st_urgency in
      let st_durations =
        Array.of_list
          (List.map (fun t -> t.Chop_sched.Urgency.duration) urgency_tasks)
      in
      let st_demands =
        Array.of_list
          (List.map
             (fun t ->
               List.map
                 (fun (r, units) -> (resource_index r, units))
                 t.Chop_sched.Urgency.demands)
             urgency_tasks)
      in
      let st_mem_resource =
        List.map
          (fun m ->
            let block = m.Chop_tech.Memory.mname in
            (block, resource_index ("mem:" ^ block)))
          spec.Spec.memories
      in
      let part_idx = Hashtbl.create (Array.length labels) in
      Array.iteri (fun i l -> Hashtbl.replace part_idx l i) labels;
      let st_chips =
        Array.map
          (fun ci ->
            let name = ci.Spec.chip_name in
            let i = Hashtbl.find chip_idx name in
            let labels =
              List.map
                (fun p -> p.Chop_dfg.Partition.label)
                (Spec.partitions_on spec name)
            in
            let budget = List.assoc name budgets in
            let processor = Spec.processor_of_chip spec name in
            let sharers =
              Array.fold_left
                (fun acc d -> if d.ds_on_chip.(i) then acc + 1 else acc)
                0 st_dtm
            in
            let shared_pins =
              Array.fold_left
                (fun acc d ->
                  if d.ds_on_chip.(i) then max acc d.ds_bandwidth else acc)
                0 st_dtm
            in
            match processor with
            | Some p ->
                (* software chip: the shared bus arbitrates transfers, so
                   there is no pin-mux tree, no pad-delay overhead and no
                   on-chip memory macro; the area ledger is the processor's
                   memory budget in bytes *)
                {
                  cs_instance = ci;
                  cs_labels = labels;
                  cs_label_idxs =
                    Array.of_list (List.map (Hashtbl.find part_idx) labels);
                  cs_sharers = sharers;
                  cs_pin_mux_area = 0.;
                  cs_memory_area = 0.;
                  cs_signal_pins =
                    min ci.Spec.package.Chop_tech.Chip.pins shared_pins;
                  cs_available = p.Chop_model_sw.Processor.memory_budget_bytes;
                  cs_pad_mux = 0.;
                  cs_static_area_low = 0.;
                  cs_sw = true;
                }
            | None ->
                let pin_mux_area =
                  if sharers <= 1 then 0.
                  else
                    float_of_int (shared_pins * (sharers - 1)) *. mux_cell_area
                in
                let memory_area =
                  Chop_util.Listx.sum_byf
                    (fun m ->
                      match
                        ( m.Chop_tech.Memory.placement,
                          Spec.memory_host spec m.Chop_tech.Memory.mname )
                      with
                      | Chop_tech.Memory.On_chip a, Some host when host = name
                        ->
                          a
                      | _ -> 0.)
                    spec.Spec.memories
                in
                let data_pins_used = shared_pins in
                let signal_pins =
                  min ci.Spec.package.Chop_tech.Chip.pins
                    (data_pins_used + budget.Chop_tech.Chip.control
                    + budget.Chop_tech.Chip.memory_lines)
                in
                let available =
                  Chop_tech.Chip.usable_area ci.Spec.package ~signal_pins
                in
                let cs_pad_mux =
                  if sharers = 0 then 0.
                  else
                    (2. *. ci.Spec.package.Chop_tech.Chip.pad_delay)
                    +. Chop_tech.Wiring.mux_tree_delay ~fanin:sharers
                in
                {
                  cs_instance = ci;
                  cs_labels = labels;
                  cs_label_idxs =
                    Array.of_list (List.map (Hashtbl.find part_idx) labels);
                  cs_sharers = sharers;
                  cs_pin_mux_area = pin_mux_area;
                  cs_memory_area = memory_area;
                  cs_signal_pins = signal_pins;
                  cs_available = available;
                  cs_pad_mux;
                  cs_static_area_low = pin_mux_area +. memory_area;
                  cs_sw = false;
                })
          chips
      in
      { st_dtm; st_dtm_error = None; st_dt_ii_max; st_pin_ii_floor;
        st_urgency; st_durations; st_demands; st_mem_resource; st_chips }

let context spec =
  let labels =
    Array.of_list
      (List.map
         (fun p -> p.Chop_dfg.Partition.label)
         spec.Spec.partitioning.Chop_dfg.Partition.parts)
  in
  let tasks = Transfer.create spec in
  let budgets, budget_errors =
    List.fold_left
      (fun (ok, bad) ci ->
        match Spec.processor_of_chip spec ci.Spec.chip_name with
        | Some p ->
            (* software chip: off-chip data rides the processor bus, so the
               data budget is the bus width and no pins are reserved for
               control lines or memory address/data — pad-bonding
               exhaustion cannot occur here *)
            let budget =
              { Chop_tech.Chip.total = ci.Spec.package.Chop_tech.Chip.pins;
                power_ground = 0; clock = 0; control = 0; memory_lines = 0;
                data = p.Chop_model_sw.Processor.bus_bits }
            in
            ((ci.Spec.chip_name, budget) :: ok, bad)
        | None -> (
            let control =
              Transfer.control_pins_on spec tasks ci.Spec.chip_name
            in
            let memory_lines =
              Transfer.memory_lines_on spec ci.Spec.chip_name
            in
            match
              Chop_tech.Chip.pin_budget ci.Spec.package ~control ~memory_lines
                ()
            with
            | budget -> ((ci.Spec.chip_name, budget) :: ok, bad)
            | exception Invalid_argument reason ->
                (ok, (ci.Spec.chip_name, reason) :: bad)))
      ([], []) spec.Spec.chips
  in
  let statics =
    match budget_errors with
    | [] -> Some (build_statics spec labels tasks budgets)
    | _ :: _ -> None
  in
  { spec; labels; tasks; budgets; budget_errors; statics }

(* ------------------------------------------------------------------ *)
(* Per-search memoization.

   Two stages of the per-combination cost are shared by many
   combinations, and a cache keeps them:

   - the urgency schedule (and everything derived from it alone: DTM
     waits, controller shapes and areas, the transfer overhead, the
     makespan) depends only on each partition's (latency, memory-demand)
     pair — thousands of combinations share a handful of these vectors;
   - DTM buffer sizes add the initiation interval.

   A chip's report is a few adds and one area probability over its picks,
   so it is computed afresh for every combination.

   A cache is single-domain mutable state: use one per worker (the
   heuristics create one per slice via {!domain_cache}, which reuses the
   calling domain's cache across its slices). *)

type sched_stage = {
  ss_id : int;  (* cache-local identity, used in the buffer key *)
  ss_result : Chop_sched.Urgency.result;
  ss_waits : int array;  (* per dtm *)
  ss_shapes : Chop_tech.Pla.shape array;  (* per dtm *)
  ss_dtm_area : float array;  (* per chip *)
  ss_ctrl_delay : float array;  (* per chip: slowest member controller *)
  ss_overhead : float;  (* transfer overhead, ns *)
}

type ii_stage = {
  is_dtms : dtm list;
  is_buffer_area : float array;  (* per chip *)
}

type cache = {
  c_ctx : context;
  c_sched :
    ((int * (string * int) list) array, (sched_stage, string) result)
    Hashtbl.t;
  mutable c_next_sched : int;
  c_ii : (int * int, ii_stage) Hashtbl.t;
}

let cache ctx =
  { c_ctx = ctx; c_sched = Hashtbl.create 64; c_next_sched = 0;
    c_ii = Hashtbl.create 64 }

(* one cache per domain, shared across that domain's slices of one search *)
type session = { sn_ctx : context; sn_token : int }

let session_counter = Atomic.make 0

let session ctx = { sn_ctx = ctx; sn_token = Atomic.fetch_and_add session_counter 1 }

let cache_slot : (int * cache) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let domain_cache sn =
  let slot = Domain.DLS.get cache_slot in
  match !slot with
  | Some (tok, c) when tok = sn.sn_token -> c
  | _ ->
      let c = cache sn.sn_ctx in
      slot := Some (sn.sn_token, c);
      c

exception Stop of failure * string

let delay_spread = Chop_util.Triplet.make ~low:0.95 ~likely:1.0 ~high:1.08

let integrate_cached cache ?ii_target comb =
  let ctx = cache.c_ctx in
  let spec = ctx.spec in
  let picks = picks_of ctx comb in
  let clocks = spec.Spec.clocks in
  let crit = spec.Spec.criteria in
  try
    (match ctx.budget_errors with
    | (chip, reason) :: _ ->
        raise
          (Stop
             ( Structural reason,
               Printf.sprintf "chip %s: %s" chip reason ))
    | [] -> ());
    let st =
      match ctx.statics with Some st -> st | None -> assert false
    in
    (match rate_mismatch clocks comb with
    | Some reason ->
        let mismatched =
          List.filter_map
            (fun (label, p) ->
              match p.Chop_bad.Prediction.style with
              | Chop_tech.Style.Pipelined -> Some label
              | Chop_tech.Style.Non_pipelined -> None)
            comb
        in
        raise (Stop (Rate_mismatch mismatched, reason))
    | None -> ());
    (match st.st_dtm_error with
    | Some reason -> raise (Stop (Structural reason, reason))
    | None -> ());
    (* --- candidate initiation interval --- *)
    let part_ii_max =
      List.fold_left
        (fun acc (_, p) -> max acc (Chop_bad.Prediction.ii_main clocks p))
        1 comb
    in
    let dt_ii_max = st.st_dt_ii_max in
    let pin_ii_floor = st.st_pin_ii_floor in
    let mem_ii_floor =
      List.fold_left
        (fun acc m ->
          let block = m.Chop_tech.Memory.mname in
          let port_cycles =
            Chop_util.Listx.sum_by
              (fun (_, p) ->
                match List.assoc_opt block p.Chop_bad.Prediction.mem_bandwidth with
                | Some peak when peak > 0 ->
                    min peak m.Chop_tech.Memory.ports
                    * Chop_bad.Prediction.latency_main clocks p
                | Some _ | None -> 0)
              comb
          in
          if port_cycles = 0 then acc
          else
            max acc (Chop_util.Units.ceil_div port_cycles m.Chop_tech.Memory.ports))
        1 spec.Spec.memories
    in
    let floor_ii =
      max (max part_ii_max dt_ii_max) (max pin_ii_floor mem_ii_floor)
    in
    let ii_main = match ii_target with Some l -> l | None -> floor_ii in
    if part_ii_max > ii_main then
      raise
        (Stop
           ( Too_slow,
             Printf.sprintf "partition rate %d exceeds system interval %d"
               part_ii_max ii_main ));
    if dt_ii_max > ii_main then
      raise
        (Stop
           ( Data_clash,
             Printf.sprintf
               "data clash: transfer of %d cycles exceeds interval %d" dt_ii_max
               ii_main ));
    if pin_ii_floor > ii_main then
      raise
        (Stop
           ( Data_clash,
             Printf.sprintf
               "data clash: aggregate pin traffic needs an interval of %d \
                cycles but the target is %d"
               pin_ii_floor ii_main ));
    if mem_ii_floor > ii_main then
      raise
        (Stop
           ( Data_clash,
             Printf.sprintf
               "data clash: memory-port traffic needs an interval of %d \
                cycles but the target is %d"
               mem_ii_floor ii_main ));
    (* --- memory port sanity --- *)
    List.iter
      (fun (_, p) ->
        List.iter
          (fun (block, peak) ->
            let ports = (Spec.memory spec block).Chop_tech.Memory.ports in
            if peak > ports then begin
              let reason =
                Printf.sprintf
                  "memory %s: partition %s needs %d simultaneous accesses (%d \
                   ports)"
                  block p.Chop_bad.Prediction.partition_label peak ports
              in
              raise (Stop (Structural reason, reason))
            end)
          p.Chop_bad.Prediction.mem_bandwidth)
      comb;
    (* --- urgency scheduling over pins and memory ports (memoized) --- *)
    let skey =
      Array.map
        (fun (p : Chop_bad.Prediction.t) ->
          ( Chop_bad.Prediction.latency_main clocks p,
            List.filter (fun (_, peak) -> peak > 0)
              p.Chop_bad.Prediction.mem_bandwidth ))
        picks
    in
    let sched_entry =
      match Hashtbl.find_opt cache.c_sched skey with
      | Some e -> e
      | None ->
          let nchips = Array.length st.st_chips in
          let ndtm = Array.length st.st_dtm in
          let durations = Array.copy st.st_durations in
          let demands = Array.copy st.st_demands in
          Array.iteri
            (fun i (latency, peaks) ->
              durations.(ndtm + i) <- latency;
              demands.(ndtm + i) <-
                List.map
                  (fun (block, peak) ->
                    (List.assoc block st.st_mem_resource, peak))
                  peaks)
            skey;
          let e =
            match
              Chop_sched.Urgency.schedule st.st_urgency ~durations ~demands
            with
            | exception Chop_sched.Urgency.Unschedulable reason -> Error reason
            | sched_result, waits ->
                let ss_waits = Array.sub waits 0 ndtm in
                let ss_shapes =
                  Array.mapi
                    (fun j d ->
                      let states = max 1 (ss_waits.(j) + d.ds_transfer_main) in
                      Chop_tech.Pla.controller_shape ~states ~status_inputs:2
                        ~control_outputs:(4 + (d.ds_bandwidth / 4)))
                    st.st_dtm
                in
                let ss_dtm_area = Array.make nchips 0. in
                let ss_ctrl_delay = Array.make nchips 0. in
                Array.iteri
                  (fun j d ->
                    let area = Chop_tech.Pla.area ss_shapes.(j) in
                    let delay = Chop_tech.Pla.delay ss_shapes.(j) in
                    for c = 0 to nchips - 1 do
                      (* a software chip runs its transfer end in code:
                         no controller PLA on the die, no PLA settle time
                         stretching the clock *)
                      if not st.st_chips.(c).cs_sw then begin
                        if d.ds_on_chip.(c) then
                          ss_dtm_area.(c) <- ss_dtm_area.(c) +. area;
                        if d.ds_member.(c) then
                          ss_ctrl_delay.(c) <- Float.max ss_ctrl_delay.(c) delay
                      end
                    done)
                  st.st_dtm;
                let ss_overhead = ref 0. in
                Array.iteri
                  (fun c cs ->
                    if cs.cs_sharers <> 0 then
                      ss_overhead :=
                        Float.max !ss_overhead
                          (cs.cs_pad_mux +. ss_ctrl_delay.(c)))
                  st.st_chips;
                let ss =
                  { ss_id = cache.c_next_sched; ss_result = sched_result;
                    ss_waits; ss_shapes; ss_dtm_area; ss_ctrl_delay;
                    ss_overhead = !ss_overhead }
                in
                cache.c_next_sched <- cache.c_next_sched + 1;
                Ok ss
          in
          Hashtbl.replace cache.c_sched skey e;
          e
    in
    let ss =
      match sched_entry with
      | Ok ss -> ss
      | Error reason -> raise (Stop (Structural reason, reason))
    in
    (* --- buffer sizing at this interval (memoized per schedule) --- *)
    let istage =
      let ikey = (ss.ss_id, ii_main) in
      match Hashtbl.find_opt cache.c_ii ikey with
      | Some i -> i
      | None ->
          let nchips = Array.length st.st_chips in
          let is_buffer_area = Array.make nchips 0. in
          let is_dtms =
            Array.to_list
              (Array.mapi
                 (fun j d ->
                   let t = d.ds_task in
                   let wait_main = ss.ss_waits.(j) in
                   (* B = D * (ceil(W/l) + X/l), section 2.5 *)
                   let buffer_bits =
                     if not t.Transfer.cross_chip then 0
                     else
                       let l = float_of_int ii_main in
                       let dd = float_of_int t.Transfer.bits in
                       let w = float_of_int wait_main in
                       let xf = float_of_int d.ds_transfer_main in
                       int_of_float (ceil (dd *. (ceil (w /. l) +. (xf /. l))))
                   in
                   if d.ds_holder >= 0 then begin
                     (* the buffer costs register cells on a hardware die
                        but plain memory bytes on a software chip — same
                        ledger the chip's availability is denominated in *)
                     let cost =
                       if st.st_chips.(d.ds_holder).cs_sw then
                         float_of_int buffer_bits /. 8.
                       else float_of_int buffer_bits *. register_cell_area
                     in
                     is_buffer_area.(d.ds_holder) <-
                       is_buffer_area.(d.ds_holder) +. cost
                   end;
                   { task = t; bandwidth = d.ds_bandwidth;
                     transfer_main = d.ds_transfer_main; wait_main;
                     buffer_bits; ctrl_shape = ss.ss_shapes.(j) })
                 st.st_dtm)
          in
          let i = { is_dtms; is_buffer_area } in
          Hashtbl.replace cache.c_ii ikey i;
          i
    in
    (* --- clock adjustment --- *)
    let clock_parts =
      List.fold_left
        (fun acc (_, p) -> Float.max acc p.Chop_bad.Prediction.timing.clock_main)
        clocks.Chop_tech.Clocking.main comb
    in
    let clock =
      Float.max clock_parts
        (ss.ss_overhead /. float_of_int clocks.Chop_tech.Clocking.transfer_ratio)
    in
    let perf_ns = float_of_int ii_main *. clock in
    let delay_cycles = ss.ss_result.Chop_sched.Urgency.makespan in
    let delay =
      Chop_util.Triplet.scale (float_of_int delay_cycles *. clock) delay_spread
    in
    (* --- per-chip reports --- *)
    let chip_reports =
      Array.to_list
        (Array.mapi
           (fun c (cs : chip_static) ->
             let dtm_area = ss.ss_dtm_area.(c) in
             let buffer_area = istage.is_buffer_area.(c) in
             let part_areas =
               Array.to_list
                 (Array.map
                    (fun pi -> picks.(pi).Chop_bad.Prediction.area)
                    cs.cs_label_idxs)
             in
             let fixed =
               cs.cs_pin_mux_area +. dtm_area +. buffer_area
               +. cs.cs_memory_area
             in
             let area_parts = Chop_util.Triplet.exact fixed :: part_areas in
             let power =
               Array.fold_left
                 (fun acc pi -> acc +. picks.(pi).Chop_bad.Prediction.power)
                 0. cs.cs_label_idxs
             in
             {
               instance = cs.cs_instance;
               partition_labels = cs.cs_labels;
               signal_pins = cs.cs_signal_pins;
               pin_mux_area = cs.cs_pin_mux_area;
               dtm_area;
               buffer_area;
               memory_area = cs.cs_memory_area;
               area_parts;
               available = cs.cs_available;
               area_verdict =
                 Chop_bad.Feasibility.check_area crit
                   ~available:cs.cs_available area_parts;
               power;
             })
           st.st_chips)
    in
    (* --- overall verdict --- *)
    let verdict, failure =
      let open Chop_bad.Feasibility in
      let area_bad =
        List.find_map
          (fun cr ->
            match cr.area_verdict with
            | Infeasible r ->
                Some (Printf.sprintf "chip %s: %s" cr.instance.Spec.chip_name r)
            | Feasible -> None)
          chip_reports
      in
      let power_bad =
        List.find_map
          (fun cr ->
            match check_power crit cr.power with
            | Infeasible r ->
                Some (Printf.sprintf "chip %s: %s" cr.instance.Spec.chip_name r)
            | Feasible -> None)
          chip_reports
      in
      match
        (area_bad, check_perf crit perf_ns, check_delay crit delay, power_bad)
      with
      | Some r, _, _, _ ->
          let labels =
            List.concat_map
              (fun cr ->
                match cr.area_verdict with
                | Infeasible _ -> cr.partition_labels
                | Feasible -> [])
              chip_reports
          in
          (Infeasible r, Area_violation labels)
      | None, Infeasible r, _, _ -> (Infeasible r, Too_slow)
      | None, _, Infeasible r, _ -> (Infeasible r, Delay_exceeded)
      | None, _, _, Some r -> (Infeasible r, Structural r)
      | None, Feasible, Feasible, None -> (Feasible, No_failure)
    in
    {
      combination = comb;
      ii_main;
      clock;
      perf_ns;
      delay_cycles;
      delay;
      dtms = istage.is_dtms;
      chip_reports;
      task_schedule = Some ss.ss_result;
      verdict;
      failure;
    }
  with Stop (failure, reason) ->
    {
      combination = comb;
      ii_main = Option.value ~default:0 ii_target;
      clock = clocks.Chop_tech.Clocking.main;
      perf_ns = infinity;
      delay_cycles = 0;
      delay = Chop_util.Triplet.exact 0.;
      dtms = [];
      chip_reports = [];
      task_schedule = None;
      verdict = Chop_bad.Feasibility.Infeasible reason;
      failure;
    }

let integrate ctx ?ii_target comb = integrate_cached (cache ctx) ?ii_target comb

(* Provably-infeasible early exit.  Sound only for searches that let the
   integration derive the interval (no [ii_target]): every rejection below
   implies the full integration would have returned an [Infeasible]
   verdict.  The area test relies on [Prob.of_sum] being exactly 0 when
   the bound is below the summed lower bounds, which is decisive only when
   the criteria demand a positive fit probability. *)
let quick_check cache comb =
  let ctx = cache.c_ctx in
  match (ctx.budget_errors, ctx.statics) with
  | _ :: _, _ | _, None -> true
  | [], Some st -> (
      st.st_dtm_error <> None
      ||
      let spec = ctx.spec in
      let clocks = spec.Spec.clocks in
      let crit = spec.Spec.criteria in
      (* performance: the derived interval is at least the static floors
         and the slowest pick; the clock at least the slowest pick's *)
      let part_ii_max =
        List.fold_left
          (fun acc (_, p) -> max acc (Chop_bad.Prediction.ii_main clocks p))
          1 comb
      in
      let ii_lb = max part_ii_max (max st.st_dt_ii_max st.st_pin_ii_floor) in
      let clock_lb =
        List.fold_left
          (fun acc (_, p) ->
            Float.max acc p.Chop_bad.Prediction.timing.clock_main)
          clocks.Chop_tech.Clocking.main comb
      in
      float_of_int ii_lb *. clock_lb > crit.Chop_bad.Feasibility.perf_constraint
      || rate_mismatch clocks comb <> None
      || crit.Chop_bad.Feasibility.area_prob > 0.
         && Array.exists
              (fun cs ->
                let low =
                  List.fold_left
                    (fun acc l ->
                      acc
                      +. Chop_util.Triplet.(
                           (List.assoc l comb).Chop_bad.Prediction.area.low))
                    cs.cs_static_area_low cs.cs_labels
                in
                low > cs.cs_available)
              st.st_chips)
