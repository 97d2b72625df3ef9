(** A software implementation target: a partition compiled onto an embedded
    processor instead of synthesized into a custom chip (the SpecC-style
    HW/SW co-design flow).  The resource vocabulary changes with the model:
    "area" is a code+data memory footprint in bytes checked against
    [memory_budget_bytes], and the external interface is a shared bus of
    [bus_bits] data lines instead of a per-chip pin budget. *)

type t = private {
  pname : string;  (** model name; ["hw"] is reserved for the hardware model *)
  issue_slots : int;  (** issue widths 1..N enumerated by the predictor *)
  cycle_ns : Chop_util.Units.ns;  (** processor clock period *)
  code_bytes_per_op : int;  (** bytes per instruction slot per cycle word *)
  data_bytes_per_value : int;  (** bytes per live data-flow value *)
  memory_budget_bytes : float;  (** code+data capacity of the processor *)
  bus_bits : int;  (** external bus width, the model's "pin" resource *)
}

val make :
  name:string ->
  issue_slots:int ->
  cycle_ns:Chop_util.Units.ns ->
  code_bytes_per_op:int ->
  data_bytes_per_value:int ->
  memory_budget_bytes:float ->
  bus_bits:int ->
  t
(** @raise Invalid_argument on a non-token or reserved name, or any
    non-positive parameter. *)

val pp : Format.formatter -> t -> unit
