(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic component of the simulation draws from an explicit
    [Rng.t] so that experiments are exactly reproducible from a seed. *)

type t

val create : seed:int -> t

val copy : t -> t
(** Independent copy with identical future output. *)

val split : t -> t
(** A new stream decorrelated from (and advancing) the parent. *)

val bits64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Raises [Invalid_argument]
    if [bound <= 0]. *)

val int_in : t -> lo:int -> hi:int -> int
(** Uniform in [\[lo, hi\]] inclusive.  Raises if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is [float t 1.0 < p], the same draw, without
    allocating. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
