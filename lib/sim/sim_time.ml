type t = int

let zero = 0

let ns n =
  if n < 0 then invalid_arg "Sim_time.ns: negative";
  n

let us n = ns (n * 1_000)
let ms n = ns (n * 1_000_000)
let sec n = ns (n * 1_000_000_000)

let of_us_f x =
  if Float.is_nan x || x < 0. then invalid_arg "Sim_time.of_us_f";
  int_of_float (Float.round (x *. 1e3))

let of_ms_f x =
  if Float.is_nan x || x < 0. then invalid_arg "Sim_time.of_ms_f";
  int_of_float (Float.round (x *. 1e6))

let of_sec_f x =
  if Float.is_nan x || x < 0. then invalid_arg "Sim_time.of_sec_f";
  int_of_float (Float.round (x *. 1e9))

let add a b = a + b

let sub a b =
  if a < b then invalid_arg "Sim_time.sub: negative result";
  a - b

let diff a b = abs (a - b)
let mul t k = if k < 0 then invalid_arg "Sim_time.mul: negative" else t * k
let div t k = if k <= 0 then invalid_arg "Sim_time.div: non-positive" else t / k
let max = Stdlib.max
let min = Stdlib.min
let compare = Int.compare
let equal = Int.equal
let ( < ) (a : t) b = Stdlib.( < ) a b
let ( <= ) (a : t) b = Stdlib.( <= ) a b
let ( > ) (a : t) b = Stdlib.( > ) a b
let ( >= ) (a : t) b = Stdlib.( >= ) a b
let to_ns t = t
let to_us_f t = float_of_int t /. 1e3
let to_ms_f t = float_of_int t /. 1e6
let to_sec_f t = float_of_int t /. 1e9
let to_min_f t = float_of_int t /. 60e9

let pp fmt t =
  if Stdlib.( < ) t 1_000 then Format.fprintf fmt "%dns" t
  else if Stdlib.( < ) t 1_000_000 then Format.fprintf fmt "%.2fus" (to_us_f t)
  else if Stdlib.( < ) t 1_000_000_000 then Format.fprintf fmt "%.2fms" (to_ms_f t)
  else Format.fprintf fmt "%.3fs" (to_sec_f t)
