type mil2 = float
type mil = float
type ns = float
type bits = int

let mil2_of_dims ~width ~height =
  if width < 0. || height < 0. then invalid_arg "Units.mil2_of_dims: negative";
  width *. height

let pp_mil2 ppf a = Format.fprintf ppf "%.1f mil^2" a
let pp_ns ppf d = Format.fprintf ppf "%.1f ns" d

let ceil_div a b =
  if b <= 0 then invalid_arg "Units.ceil_div: non-positive divisor";
  if a < 0 then invalid_arg "Units.ceil_div: negative dividend";
  (a + b - 1) / b

let ceil_div_ns d cycle =
  if cycle <= 0. then invalid_arg "Units.ceil_div_ns: non-positive cycle";
  if d < 0. then invalid_arg "Units.ceil_div_ns: negative duration";
  if d = 0. then 0 else int_of_float (ceil (d /. cycle))
