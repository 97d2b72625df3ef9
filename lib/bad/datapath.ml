type estimate = {
  register_bits : int;
  peak_values : int;
  mux_count : int;
  nets : int;
  fu_area : Chop_util.Units.mil2;
  register_area : Chop_util.Units.mil2;
  mux_area : Chop_util.Units.mil2;
  mux_select_delay : Chop_util.Units.ns;
}

type facts = { profile : (string * int) list; values : int; edges : int }

let facts g =
  {
    profile = Chop_dfg.Graph.op_profile g;
    values =
      List.length (Chop_dfg.Graph.operations g)
      + List.length (Chop_dfg.Graph.inputs g);
    edges = List.length (Chop_dfg.Graph.edges g);
  }

type units = {
  fu_mux : int;
  fu_area : Chop_util.Units.mil2;
  mux_select_delay : Chop_util.Units.ns;
}

let units f ~module_set ~alloc =
  let module_of cls =
    List.find_opt (fun c -> c.Chop_tech.Component.cls = cls) module_set
  in
  (* Functional-unit input steering: [n] operations sharing one of [a]
     units means each port selects among ~half of ceil(n/a) sources (the
     two operand buses of a register-file organization split the sources);
     an m-way selection needs (m-1) 2:1 muxes per bit. *)
  let fu_mux, worst_fanin =
    List.fold_left
      (fun (mux, fanin) (cls, n) ->
        let a = max 1 (Chop_sched.Schedule.alloc_get alloc cls) in
        let shared = Chop_util.Units.ceil_div n a in
        let per_unit = (shared + 1) / 2 |> max 1 in
        let width =
          match module_of cls with
          | Some c -> c.Chop_tech.Component.width
          | None -> 16 (* memory-port steering: data-bus width default *)
        in
        let ports = 2 in
        let mux' = mux + (a * ports * (per_unit - 1) * width) in
        (mux', max fanin per_unit))
      (0, 1) f.profile
  in
  let fu_area =
    List.fold_left
      (fun acc (cls, _) ->
        let a = Chop_sched.Schedule.alloc_get alloc cls in
        match module_of cls with
        | Some c -> acc +. (float_of_int a *. c.Chop_tech.Component.area)
        | None -> acc (* memory ports contribute no module area *))
      0. f.profile
  in
  {
    fu_mux;
    fu_area;
    mux_select_delay = Chop_tech.Wiring.mux_tree_delay ~fanin:worst_fanin;
  }

let roll_up f u demand =
  let register_bits = demand.Chop_sched.Lifetime.register_bits in
  let peak_values = max 1 demand.Chop_sched.Lifetime.peak_values in
  (* Register-file input steering: values outnumbering registers share
     register inputs. *)
  let writers = Chop_util.Units.ceil_div (max 1 f.values) peak_values in
  let reg_mux = (writers - 1) * register_bits in
  let mux_count = u.fu_mux + reg_mux in
  let nets = f.edges + (mux_count / 8) + (register_bits / 8) in
  {
    register_bits;
    peak_values;
    mux_count;
    nets;
    fu_area = u.fu_area;
    register_area =
      float_of_int register_bits
      *. Chop_tech.Mosis.register_cell.Chop_tech.Component.area;
    mux_area =
      float_of_int mux_count *. Chop_tech.Mosis.mux_cell.Chop_tech.Component.area;
    mux_select_delay = u.mux_select_delay;
  }

let estimate ~module_set ?ii sched =
  let f = facts sched.Chop_sched.Schedule.graph in
  roll_up f
    (units f ~module_set ~alloc:sched.Chop_sched.Schedule.alloc)
    (Chop_sched.Lifetime.analyze ?ii sched)
