(** Priority queue of timed events for the simulation engine.

    A binary min-heap keyed by [(time, sequence)].  The sequence number
    makes extraction stable: two events scheduled for the same instant
    pop in scheduling order, which keeps the simulation deterministic. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> time:Sim_time.t -> 'a -> unit
(** Insert an event payload at [time].  O(log n). *)

val min_time : 'a t -> Sim_time.t
(** Time of the earliest event.  Allocates nothing.  Raises
    [Invalid_argument] on an empty queue. *)

val take : 'a t -> 'a
(** Remove the earliest event and return its payload; read its time
    with {!min_time} first.  O(log n), allocates nothing.  Raises
    [Invalid_argument] on an empty queue. *)

val clear : 'a t -> unit
