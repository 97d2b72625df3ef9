(** Feasibility criteria and probabilistic checks.

    "All prediction results ... are stored in a statistical environment, and
    the feasibility analysis is done with ... probabilistic methods" (paper,
    section 2.6).  The experiments use: probability 1.0 of satisfying the
    performance and chip-area constraints and probability 0.8 of satisfying
    the system-delay constraint. *)

type criteria = {
  perf_constraint : Chop_util.Units.ns;
      (** maximum initiation interval, input-to-input *)
  delay_constraint : Chop_util.Units.ns;  (** maximum input-to-output delay *)
  perf_prob : float;  (** required probability for the performance check *)
  area_prob : float;  (** required probability for each chip-area check *)
  delay_prob : float;  (** required probability for the system-delay check *)
  power_budget : float option;  (** optional mW budget per chip (extension) *)
}

val criteria :
  ?perf_prob:float ->
  ?area_prob:float ->
  ?delay_prob:float ->
  ?power_budget:float ->
  perf:Chop_util.Units.ns ->
  delay:Chop_util.Units.ns ->
  unit ->
  criteria
(** Probabilities default to the paper's 1.0 / 1.0 / 0.8.
    @raise Invalid_argument on constraints <= 0 or probabilities outside
    [0, 1]. *)

type verdict = Feasible | Infeasible of string

val is_feasible : verdict -> bool

val check_area :
  criteria -> available:Chop_util.Units.mil2 -> Chop_util.Triplet.t list -> verdict
(** Probabilistic check that the summed area predictions fit. *)

val check_perf : criteria -> Chop_util.Units.ns -> verdict
(** Performance is a derived scalar (II x adjusted clock): compared
    directly, which realizes the 100%-probability criterion. *)

val check_delay : criteria -> Chop_util.Triplet.t -> verdict
(** System delay keeps prediction spread; checked at [delay_prob]. *)

val check_power : criteria -> float -> verdict

val partition_feasible :
  criteria ->
  clocks:Chop_tech.Clocking.t ->
  chip_area:Chop_util.Units.mil2 ->
  Prediction.t ->
  bool
(** First-level pruning test for a single partition prediction in
    isolation: its own area must fit the target chip and its own timing
    must not already violate the performance/delay constraints (system
    integration can only add overhead).  The same tests as {!check_area},
    {!check_perf}, {!check_delay} and {!check_power}, stopping at the first
    that fails and building no verdict. *)
