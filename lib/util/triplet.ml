type t = { low : float; likely : float; high : float }

let make ~low ~likely ~high =
  let finite x = Float.is_finite x in
  if not (finite low && finite likely && finite high) then
    invalid_arg "Triplet.make: non-finite component";
  if not (low <= likely && likely <= high) then
    invalid_arg
      (Printf.sprintf "Triplet.make: unordered (%g, %g, %g)" low likely high);
  { low; likely; high }

let exact v = make ~low:v ~likely:v ~high:v

let spread ?(down = 0.1) ?(up = 0.1) v =
  if v < 0. then invalid_arg "Triplet.spread: negative value";
  make ~low:(v *. (1. -. down)) ~likely:v ~high:(v *. (1. +. up))

let zero = exact 0.
let is_exact t = t.low = t.high

let add a b =
  { low = a.low +. b.low; likely = a.likely +. b.likely; high = a.high +. b.high }

let sum ts = List.fold_left add zero ts

let scale k t =
  if k < 0. then invalid_arg "Triplet.scale: negative factor";
  { low = k *. t.low; likely = k *. t.likely; high = k *. t.high }

let max2 a b =
  {
    low = Float.max a.low b.low;
    likely = Float.max a.likely b.likely;
    high = Float.max a.high b.high;
  }

let mean t = (t.low +. t.likely +. t.high) /. 3.

let variance t =
  let a = t.low and b = t.high and c = t.likely in
  ((a *. a) +. (b *. b) +. (c *. c) -. (a *. b) -. (a *. c) -. (b *. c)) /. 18.

let cdf t x =
  let a = t.low and b = t.high and c = t.likely in
  if x < a then 0.
  else if x >= b then 1.
  else if a = b then 1. (* degenerate, x >= a *)
  else if x <= c then
    if c = a then 0. else (x -. a) ** 2. /. ((b -. a) *. (c -. a))
  else 1. -. (((b -. x) ** 2.) /. ((b -. a) *. (b -. c)))

let prob_le = cdf

let compare a b =
  match Float.compare a.likely b.likely with
  | 0 -> (
      match Float.compare a.low b.low with
      | 0 -> Float.compare a.high b.high
      | n -> n)
  | n -> n

let equal a b = compare a b = 0
let pp ppf t = Format.fprintf ppf "(%g, %g, %g)" t.low t.likely t.high
let to_string t = Format.asprintf "%a" pp t
