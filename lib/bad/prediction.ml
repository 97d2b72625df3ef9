type timing = {
  ii_dp : int;
  latency_dp : int;
  stages : int;
  clock_main : Chop_util.Units.ns;
  overhead : Chop_util.Units.ns;
}

type area_breakdown = {
  functional_units : Chop_util.Units.mil2;
  registers : Chop_util.Units.mil2;
  multiplexers : Chop_util.Units.mil2;
  controller : Chop_util.Units.mil2;
  wiring : Chop_util.Triplet.t;
}

type t = {
  partition_label : string;
  style : Chop_tech.Style.pipelining;
  module_set : Chop_tech.Component.t list;
  alloc : Chop_sched.Schedule.alloc;
  timing : timing;
  area : Chop_util.Triplet.t;
  breakdown : area_breakdown;
  register_bits : int;
  mux_count : int;
  controller_shape : Chop_tech.Pla.shape;
  mem_bandwidth : (string * int) list;
  power : float;
}

let ii_main clocks p =
  Chop_tech.Clocking.main_cycles_of_datapath clocks p.timing.ii_dp

let latency_main clocks p =
  Chop_tech.Clocking.main_cycles_of_datapath clocks p.timing.latency_dp

let perf_ns clocks p = float_of_int (ii_main clocks p) *. p.timing.clock_main
let delay_ns clocks p = float_of_int (latency_main clocks p) *. p.timing.clock_main

let objectives clocks p =
  [| perf_ns clocks p; delay_ns clocks p; Chop_util.Triplet.(p.area.likely) |]

let compare_speed a b =
  match Int.compare a.timing.ii_dp b.timing.ii_dp with
  | 0 -> Int.compare a.timing.latency_dp b.timing.latency_dp
  | n -> n

let describe clocks p =
  let buf = Buffer.create 256 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "Partition %s:\n" p.partition_label;
  addf "  - a %s design style with %d stages,\n"
    (match p.style with
    | Chop_tech.Style.Pipelined -> "pipelined"
    | Chop_tech.Style.Non_pipelined -> "non-pipelined")
    p.timing.stages;
  addf "  - module library of %s,\n"
    (String.concat " and "
       (List.map (fun c -> c.Chop_tech.Component.cname) p.module_set));
  List.iter
    (fun (cls, n) -> addf "  - %d %s unit(s),\n" n cls)
    p.alloc;
  addf "  - %d bits of registers for the data path,\n" p.register_bits;
  addf "  - %d 1-bit 2-to-1 multiplexers,\n" p.mux_count;
  addf "  - initiation interval %d, latency %d (main cycles), clock %.0f ns."
    (ii_main clocks p) (latency_main clocks p) p.timing.clock_main;
  Buffer.contents buf

let pp ppf p =
  Format.fprintf ppf "%s[%s ii=%ddp lat=%ddp area=%a]" p.partition_label
    (match p.style with
    | Chop_tech.Style.Pipelined -> "pipe"
    | Chop_tech.Style.Non_pipelined -> "seq")
    p.timing.ii_dp p.timing.latency_dp Chop_util.Triplet.pp p.area
