let comparisons g =
  List.length
    (List.filter
       (fun n -> n.Chop_dfg.Graph.op = Chop_dfg.Op.Compare)
       (Chop_dfg.Graph.operations g))

let controller ~comparisons ~sched ~est ~ii ~pipelined =
  let states = if pipelined then max 1 ii else max 1 sched.Chop_sched.Schedule.length in
  (* start/done handshake with the distributed control network *)
  let status_inputs = 2 + comparisons in
  let total_fus =
    Chop_util.Listx.sum_by snd sched.Chop_sched.Schedule.alloc
  in
  let mux_selects = Chop_util.Units.ceil_div (max 1 est.Datapath.mux_count) 8 in
  let reg_loads = est.Datapath.peak_values in
  let control_outputs = (2 * total_fus) + mux_selects + reg_loads in
  Chop_tech.Pla.controller_shape ~states ~status_inputs ~control_outputs

let shape ~sched ~est ~ii ~pipelined =
  controller
    ~comparisons:(comparisons sched.Chop_sched.Schedule.graph)
    ~sched ~est ~ii ~pipelined

let area = Chop_tech.Pla.area
let delay = Chop_tech.Pla.delay
