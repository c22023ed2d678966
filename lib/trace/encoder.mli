(** The byte writer shared by the event stream, the [.trace] file
    format and the span digest: unsigned LEB128 varints written into one
    reusable, growable [Bytes], and the streaming FNV-1a 64 digest over
    those bytes.

    Writes build no closures and folding the digest makes no call per
    byte; neither allocates unless the buffer has to grow. *)

type t

val create : int -> t
(** An empty writer with room for [n] bytes (at least 16); it grows by
    doubling when a write would not fit. *)

val clear : t -> unit
(** Forget the written bytes, keeping the storage. *)

val length : t -> int

val put_byte : t -> int -> unit
(** The low 8 bits of the argument. *)

val put_bool : t -> bool -> unit
(** One byte, 1 or 0. *)

val put_varint : t -> int -> unit
(** Unsigned LEB128.  Raises [Invalid_argument] on a negative field. *)

val put_string : t -> string -> unit
(** The length as a varint, then the bytes. *)

val add_to_buffer : Buffer.t -> t -> unit
val contents : t -> string

(** {1 FNV-1a 64} *)

type digest
(** A mutable digest state. *)

val digest : unit -> digest
(** A fresh state at the FNV-1a 64 offset basis. *)

val digest_add : digest -> t -> unit
(** Fold every byte the writer currently holds into the state. *)

val digest_add_string : digest -> string -> pos:int -> len:int -> unit
(** Fold [len] bytes of [s] from [pos]; the same hash {!digest_add}
    computes over the same bytes. *)

val digest_value : digest -> int64
