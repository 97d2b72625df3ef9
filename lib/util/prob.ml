let normal_cdf ~mean ~std x =
  if std <= 0. then if x >= mean then 1. else 0.
  else
    let z = (x -. mean) /. (std *. sqrt 2.) in
    (* Abramowitz & Stegun 7.1.26 rational approximation of erf. *)
    let t = 1. /. (1. +. (0.3275911 *. Float.abs z)) in
    let poly =
      t
      *. (0.254829592
         +. (t
            *. (-0.284496736
               +. (t *. (1.421413741 +. (t *. (-1.453152027 +. (t *. 1.061405429))))))))
    in
    let erf_abs = 1. -. (poly *. exp (-.z *. z)) in
    let erf = if z >= 0. then erf_abs else -.erf_abs in
    0.5 *. (1. +. erf)

let of_sum parts bound =
  match parts with
  | [] -> if bound >= 0. then 1. else 0.
  | [ t ] -> Triplet.cdf t bound
  | _ ->
      let total = Triplet.sum parts in
      if bound >= total.Triplet.high then 1.
      else if bound < total.Triplet.low then 0.
      else
        let mean = List.fold_left (fun acc t -> acc +. Triplet.mean t) 0. parts in
        let var =
          List.fold_left (fun acc t -> acc +. Triplet.variance t) 0. parts
        in
        if var <= 0. then if bound >= mean then 1. else 0.
        else normal_cdf ~mean ~std:(sqrt var) bound

let prob_le = Triplet.prob_le

let check_prob prob =
  if not (0. <= prob && prob <= 1.) then invalid_arg "Prob: probability out of [0,1]"

let meets ~prob t bound =
  check_prob prob;
  Triplet.cdf t bound >= prob
