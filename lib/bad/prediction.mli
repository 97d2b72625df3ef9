(** Predicted implementations of a single partition.

    BAD returns, per partition, a set of completely specified predicted
    designs: design style, module set, allocation, timing (initiation
    interval, latency, adjusted clock) and area broken down into functional
    units, registers, multiplexers, controller and wiring (paper,
    section 2.4). *)

type timing = {
  ii_dp : int;  (** initiation interval in data-path cycles *)
  latency_dp : int;  (** input-to-output latency in data-path cycles *)
  stages : int;
      (** pipeline stages (pipelined) or schedule steps (non-pipelined) *)
  clock_main : Chop_util.Units.ns;
      (** adjusted main clock: nominal cycle stretched by data-path
          overhead (registers, multiplexers, wiring, controller) *)
  overhead : Chop_util.Units.ns;  (** the stretch component, at dp level *)
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
  module_set : Chop_tech.Component.t list;  (** one entry per class, sorted *)
  alloc : Chop_sched.Schedule.alloc;
  timing : timing;
  area : Chop_util.Triplet.t;  (** total area prediction *)
  breakdown : area_breakdown;
  register_bits : int;
  mux_count : int;  (** equivalent 1-bit 2:1 multiplexers *)
  controller_shape : Chop_tech.Pla.shape;
  mem_bandwidth : (string * int) list;
      (** per memory block: peak word accesses in any one data-path cycle *)
  power : float;  (** mW, extension hook *)
}

val ii_main : Chop_tech.Clocking.t -> t -> int
(** Initiation interval in main-clock cycles. *)

val latency_main : Chop_tech.Clocking.t -> t -> int

val perf_ns : Chop_tech.Clocking.t -> t -> Chop_util.Units.ns
(** Initiation interval in adjusted-clock nanoseconds
    (= [ii_main * clock_main]). *)

val delay_ns : Chop_tech.Clocking.t -> t -> Chop_util.Units.ns

val objectives : Chop_tech.Clocking.t -> t -> float array
(** [| perf_ns; delay_ns; likely area |] — the inferiority (domination)
    objectives used by CHOP's pruning. *)

val compare_speed : t -> t -> int
(** Sorting order of the iterative heuristic (Figure 5): "increasing order
    first for the initiation interval and then for the circuit delay". *)

val describe : Chop_tech.Clocking.t -> t -> string
(** Multi-line designer guideline, as in the paper's section 3.1 example. *)

val pp : Format.formatter -> t -> unit
