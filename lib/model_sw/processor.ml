type t = {
  pname : string;
  issue_slots : int;
  cycle_ns : Chop_util.Units.ns;
  code_bytes_per_op : int;
  data_bytes_per_value : int;
  memory_budget_bytes : float;
  bus_bits : int;
}

let make ~name ~issue_slots ~cycle_ns ~code_bytes_per_op ~data_bytes_per_value
    ~memory_budget_bytes ~bus_bits =
  if name = "" || String.contains name ' ' then
    invalid_arg "Processor.make: name must be a non-empty single token";
  if String.equal name "hw" then
    invalid_arg "Processor.make: \"hw\" names the hardware model";
  if issue_slots < 1 then invalid_arg "Processor.make: issue_slots < 1";
  if cycle_ns <= 0. then invalid_arg "Processor.make: non-positive cycle";
  if code_bytes_per_op < 1 then invalid_arg "Processor.make: code_bytes_per_op < 1";
  if data_bytes_per_value < 1 then
    invalid_arg "Processor.make: data_bytes_per_value < 1";
  if memory_budget_bytes <= 0. then
    invalid_arg "Processor.make: non-positive memory budget";
  if bus_bits < 1 then invalid_arg "Processor.make: bus_bits < 1";
  { pname = name; issue_slots; cycle_ns; code_bytes_per_op;
    data_bytes_per_value; memory_budget_bytes; bus_bits }

let pp ppf p =
  Format.fprintf ppf
    "%s: %d-issue, %a cycle, %.0f byte budget, %d-bit bus" p.pname
    p.issue_slots Chop_util.Units.pp_ns p.cycle_ns p.memory_budget_bytes
    p.bus_bits
