(** First-class implementation models (DESIGN §14).

    A partition's predictions, resource vocabulary and cache identity are
    functions of its implementation model.  [Hardware] is the paper's BAD
    predictor over the component library and chip packages; [Software] maps
    the partition onto an embedded {!Chop_model_sw.Processor} —
    cycle-count timing, code+data bytes against a memory budget, a bus in
    place of pins.  The contract every instance satisfies:

    - {!predict} yields {!Chop_bad.Prediction.t} values whose timing obeys
      the main-cycle algebra (perf = ii_main x clock_main) and whose [area]
      triplet is the model's footprint in its own resource unit;
    - {!capacity} is the bound the area screen checks that footprint
      against, in the same unit.

    {!Pred_cache.Key.raw} keys a prediction on the model's inputs: the
    predictor config for [Hardware], the processor and clocks for
    [Software]. *)

type t =
  | Hardware
  | Software of Chop_model_sw.Processor.t

val name : t -> string
(** ["hw"] or the processor name — the vocabulary of [Spec.impls]. *)

val equal : t -> t -> bool

val of_spec : Spec.t -> label:string -> t
(** The model the spec binds the partition to. *)

val capacity : t -> Spec.t -> label:string -> float
(** Usable die area (mil^2) for hardware, memory budget (bytes) for
    software. *)

val predict :
  t ->
  Chop_bad.Predictor.config ->
  label:string ->
  Chop_dfg.Graph.t ->
  Chop_bad.Prediction.t list

val prune :
  t ->
  Chop_bad.Predictor.config ->
  criteria:Chop_bad.Feasibility.criteria ->
  capacity:float ->
  Chop_bad.Prediction.t list ->
  Chop_bad.Prediction.t list
(** First-level pruning against the model's capacity (feasibility screens
    + per-style Pareto reduction, shared across models). *)

val pp : Format.formatter -> t -> unit
