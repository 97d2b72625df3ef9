(* The implementation-model seam (DESIGN §14): everything the exploration
   layers need to know about *how* a partition is realised lives behind
   this type, so the hardware BAD stack is one instance rather than the
   assumption.  The hardware arm delegates to exactly the code that ran
   before the seam existed — byte-identity on hw-only specs is by
   construction, not by re-derivation. *)

type t =
  | Hardware
  | Software of Chop_model_sw.Processor.t

let name = function
  | Hardware -> "hw"
  | Software p -> p.Chop_model_sw.Processor.pname

let equal a b =
  match (a, b) with
  | Hardware, Hardware -> true
  | Software p, Software q -> p = q
  | Hardware, Software _ | Software _, Hardware -> false

let of_spec spec ~label =
  match Spec.processor_of_partition spec label with
  | None -> Hardware
  | Some p -> Software p

let of_chip spec ~chip =
  match Spec.processor_of_chip spec chip with
  | None -> Hardware
  | Some p -> Software p

(* The capacity the area screen checks a partition's predictions against:
   usable die area for hardware (half the package pins assumed bonded, as
   always), the processor's memory budget in bytes for software.  Same
   numeric slot, different unit — the feasibility code is generic over
   it. *)
let capacity t spec ~label =
  match t with
  | Hardware ->
      let ci = Spec.chip_of_partition spec label in
      let pkg = ci.Spec.package in
      Chop_tech.Chip.usable_area pkg
        ~signal_pins:(pkg.Chop_tech.Chip.pins / 2)
  | Software p -> p.Chop_model_sw.Processor.memory_budget_bytes

let resource_unit = function Hardware -> "mil^2" | Software _ -> "bytes"

let predict t (cfg : Chop_bad.Predictor.config) ~label sub =
  match t with
  | Hardware -> Chop_bad.Predictor.predict cfg ~label sub
  | Software p ->
      Chop_model_sw.Sw_predict.predict p
        ~clocks:cfg.Chop_bad.Predictor.clocks ~label sub

(* First-level pruning: the feasibility screens and the Pareto reduction
   are already generic over the capacity (the prediction objectives are
   perf/delay/likely-footprint in both models), so both arms share the
   hardware pruner. *)
let prune _t cfg ~criteria ~capacity preds =
  Chop_bad.Predictor.prune cfg ~criteria ~chip_area:capacity preds

let pp ppf t =
  match t with
  | Hardware -> Format.pp_print_string ppf "hw"
  | Software p -> Chop_model_sw.Processor.pp ppf p
