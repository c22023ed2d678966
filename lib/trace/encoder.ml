type t = { mutable buf : Bytes.t; mutable len : int }

let create n = { buf = Bytes.create (max 16 n); len = 0 }
let clear t = t.len <- 0
let length t = t.len

(* Only reached when a write would not fit: double until it does. *)
let grow t n =
  let cap = ref (2 * Bytes.length t.buf) in
  while !cap < t.len + n do
    cap := 2 * !cap
  done;
  let buf = Bytes.create !cap in
  Bytes.blit t.buf 0 buf 0 t.len;
  t.buf <- buf

let put_byte t v =
  if t.len >= Bytes.length t.buf then grow t 1;
  Bytes.unsafe_set t.buf t.len (Char.unsafe_chr (v land 0xff));
  t.len <- t.len + 1

let put_bool t v = put_byte t (if v then 1 else 0)

(* One call per field, not per byte: a 63-bit varint is at most 9
   bytes, so one capacity check covers the loop. *)
let put_varint t n =
  if n < 0 then invalid_arg "Encoder.put_varint: negative field";
  if t.len + 9 > Bytes.length t.buf then grow t 9;
  let buf = t.buf in
  let pos = ref t.len and n = ref n in
  while !n >= 0x80 do
    Bytes.unsafe_set buf !pos (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    incr pos;
    n := !n lsr 7
  done;
  Bytes.unsafe_set buf !pos (Char.unsafe_chr !n);
  t.len <- !pos + 1

let put_string t s =
  let n = String.length s in
  put_varint t n;
  if t.len + n > Bytes.length t.buf then grow t n;
  Bytes.blit_string s 0 t.buf t.len n;
  t.len <- t.len + n

let add_to_buffer b t = Buffer.add_subbytes b t.buf 0 t.len
let contents t = Bytes.sub_string t.buf 0 t.len

(* ------------------------------------------------------------------ *)
(* FNV-1a 64                                                           *)
(* ------------------------------------------------------------------ *)

(* The state lives unboxed in eight bytes, so folding a chunk allocates
   nothing: the loop keeps the hash in a register and stores it back
   once. *)
type digest = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let fnv_prime = 0x100000001b3L

let digest () =
  let d = Bytes.create 8 in
  set64 d 0 0xcbf29ce484222325L (* FNV-1a 64 offset basis *);
  d

let fold d bytes pos len =
  let h = ref (get64 d 0) in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get bytes i))))
        fnv_prime
  done;
  set64 d 0 !h

let digest_add d t = fold d t.buf 0 t.len

let digest_add_string d s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Encoder.digest_add_string";
  fold d (Bytes.unsafe_of_string s) pos len

let digest_value d = get64 d 0
