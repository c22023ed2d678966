(* The splitmix64 state lives unboxed in 8 bytes: an [int64] record
   field would box a fresh [Int64] on every draw.  [mix] and [bits64]
   are inlined, so [int], [bool] and [chance] draws allocate nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (mix (Int64.of_int seed))
let copy = Bytes.copy

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let split t = of_state (mix (bits64 t))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (bits64 t) mask) in
  v mod bound

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  let v = Int64.shift_right_logical (bits64 t) 11 in
  (* 53 significant bits, the double mantissa width *)
  Int64.to_float v /. 9007199254740992.0 *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

(* [float t 1.0 < p], computed here so that no float is boxed *)
let chance t p =
  let v = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float v /. 9007199254740992.0 < p

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0. then epsilon_float else u in
  -.mean *. log u

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))
