type demand = { register_bits : int; peak_values : int }

(* A value that can be live: an input or an operation result with at
   least one computational consumer or a primary-output use.  Constants
   live in dedicated storage; any other value dies where it is born. *)
type value = {
  id : Chop_dfg.Graph.node_id;
  from_input : bool; (* born at step 0 rather than at its producer's finish *)
  width : int;
  consumers : Chop_dfg.Graph.node_id array;
  feeds_output : bool;
}

type values = value array

let values g =
  let op id = (Chop_dfg.Graph.node g id).Chop_dfg.Graph.op in
  List.filter_map
    (fun n ->
      let id = n.Chop_dfg.Graph.id in
      let succs = Chop_dfg.Graph.succs g id in
      let consumers =
        List.filter (fun c -> Chop_dfg.Op.is_computational (op c)) succs
      in
      let feeds_output = List.exists (fun c -> op c = Chop_dfg.Op.Output) succs in
      let from_input = n.Chop_dfg.Graph.op = Chop_dfg.Op.Input in
      if
        (from_input || Chop_dfg.Op.is_computational n.Chop_dfg.Graph.op)
        && (consumers <> [] || feeds_output)
      then
        Some
          {
            id;
            from_input;
            width = n.Chop_dfg.Graph.width;
            consumers = Array.of_list consumers;
            feeds_output;
          }
      else None)
    (Chop_dfg.Graph.nodes g)
  |> Array.of_list

(* Live bits and live values per step of one schedule, before any
   folding: each value is live from its birth until the last step a
   consumer starts (exclusive death), or until the schedule ends when it
   feeds an output. *)
type live = {
  horizon : int;
  usage : int array; (* [horizon + 1] entries: the last ends the difference array *)
  counts : int array;
}

let live values d =
  let s = d.Schedule.sched in
  let horizon = max 1 s.Schedule.length in
  (* difference arrays over [birth, death) *)
  let usage = Array.make (horizon + 1) 0 and counts = Array.make (horizon + 1) 0 in
  Array.iter
    (fun v ->
      let birth =
        if v.from_input then 0
        else d.Schedule.start_at.(v.id) + d.Schedule.latency_of.(v.id)
      in
      let death =
        if v.feeds_output then horizon
        else
          Array.fold_left
            (fun acc c -> max acc (d.Schedule.start_at.(c) + 1))
            birth v.consumers
      in
      let stop = min (max death (birth + 1)) horizon in
      if birth < stop then begin
        usage.(birth) <- usage.(birth) + v.width;
        usage.(stop) <- usage.(stop) - v.width;
        counts.(birth) <- counts.(birth) + 1;
        counts.(stop) <- counts.(stop) - 1
      end)
    values;
  for step = 1 to horizon - 1 do
    usage.(step) <- usage.(step) + usage.(step - 1);
    counts.(step) <- counts.(step) + counts.(step - 1)
  done;
  { horizon; usage; counts }

(* Peak live bits and the values live at the first peak step.  With [ii],
   step [t] lands in slot [t mod ii], since [stage_count] problem
   instances are simultaneously in flight; without, every step is its own
   slot. *)
let demand ?ii l =
  let horizon = l.horizon in
  let stride =
    match ii with
    | None -> horizon
    | Some ii ->
        if ii < 1 then invalid_arg "Lifetime.analyze: ii < 1";
        ii
  in
  let peak_bits = ref (-1) and peak_values = ref 0 in
  for slot = 0 to min stride horizon - 1 do
    let bits = ref 0 and values = ref 0 and step = ref slot in
    while !step < horizon do
      bits := !bits + l.usage.(!step);
      values := !values + l.counts.(!step);
      step := !step + stride
    done;
    if !bits > !peak_bits then begin
      peak_bits := !bits;
      peak_values := !values
    end
  done;
  { register_bits = !peak_bits; peak_values = !peak_values }

let analyze ?ii s = demand ?ii (live (values s.Schedule.graph) (Schedule.dense s))
