type criteria = {
  perf_constraint : Chop_util.Units.ns;
  delay_constraint : Chop_util.Units.ns;
  perf_prob : float;
  area_prob : float;
  delay_prob : float;
  power_budget : float option;
}

let criteria ?(perf_prob = 1.0) ?(area_prob = 1.0) ?(delay_prob = 0.8)
    ?power_budget ~perf ~delay () =
  if perf <= 0. || delay <= 0. then
    invalid_arg "Feasibility.criteria: non-positive constraint";
  let check_p name p =
    if not (0. <= p && p <= 1.) then
      invalid_arg (Printf.sprintf "Feasibility.criteria: %s out of [0,1]" name)
  in
  check_p "perf_prob" perf_prob;
  check_p "area_prob" area_prob;
  check_p "delay_prob" delay_prob;
  {
    perf_constraint = perf;
    delay_constraint = delay;
    perf_prob;
    area_prob;
    delay_prob;
    power_budget;
  }

type verdict = Feasible | Infeasible of string

let is_feasible = function Feasible -> true | Infeasible _ -> false

let check_area c ~available parts =
  let p = Chop_util.Prob.of_sum parts available in
  if p >= c.area_prob then Feasible
  else
    Infeasible
      (Printf.sprintf "area: P(fit in %.0f mil^2) = %.2f < %.2f" available p
         c.area_prob)

let check_perf c perf_ns =
  if perf_ns <= c.perf_constraint then Feasible
  else
    Infeasible
      (Printf.sprintf "performance: %.0f ns > %.0f ns" perf_ns c.perf_constraint)

let check_delay c delay =
  let p = Chop_util.Prob.prob_le delay c.delay_constraint in
  if p >= c.delay_prob then Feasible
  else
    Infeasible
      (Printf.sprintf "system delay: P(<= %.0f ns) = %.2f < %.2f"
         c.delay_constraint p c.delay_prob)

let check_power c power =
  match c.power_budget with
  | None -> Feasible
  | Some budget ->
      if power <= budget then Feasible
      else Infeasible (Printf.sprintf "power: %.1f mW > %.1f mW" power budget)

let partition_feasible c ~clocks ~chip_area p =
  Chop_util.Prob.of_sum [ p.Prediction.area ] chip_area >= c.area_prob
  && Prediction.perf_ns clocks p <= c.perf_constraint
  && Chop_util.Prob.prob_le
       (Chop_util.Triplet.exact (Prediction.delay_ns clocks p))
       c.delay_constraint
     >= c.delay_prob
  &&
  match c.power_budget with
  | None -> true
  | Some budget -> p.Prediction.power <= budget
