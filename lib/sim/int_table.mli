(** A mutable map from [int] keys, by open addressing over flat arrays.

    The one table behind every sparse int-keyed map of the simulator:
    translations, the kernel's object and manager registries, trace id
    normalization, bad disk blocks.  A key's home slot comes from a
    multiplicative hash (the top bits of the key times an odd constant),
    so counters, clustered keys and power-of-two strides all spread over
    the slots; collisions probe linearly.  A removal shifts the rest of
    its probe run back, so the table never holds tombstones.  The table
    doubles when it is half full and never shrinks, except on {!reset}.

    Each stored value sits in an option the table allocates once per
    {!replace}; {!find}, {!find_opt} and {!mem} allocate nothing. *)

type 'a t

val create : int -> 'a t
(** An empty table sized for about [n] entries before it first grows. *)

val length : 'a t -> int

val mem : 'a t -> int -> bool

val find : 'a t -> int -> 'a
(** Raises [Not_found] when the key is absent. *)

val find_opt : 'a t -> int -> 'a option
(** The table's own [Some v] for the key: allocates nothing. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing any earlier binding.  Raises
    [Invalid_argument] for [min_int], which marks a free slot; no
    lookup ever finds it. *)

val remove : 'a t -> int -> unit
(** No-op when the key is absent. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Every binding once, in slot order: a deterministic function of the
    calls that built the table, but not insertion or key order.  [f]
    must not add or remove keys; collect them first. *)

val reset : 'a t -> unit
(** Empty the table and shrink it back to its created size. *)

val dense_id : int t -> int -> int
(** The dense id of a raw id: 0, 1, 2 … in order of first sight.  A raw
    id seen before keeps its dense id; after {!reset} numbering starts
    again at 0.  Trace and metrics normalize process-global ids (tasks,
    objects, containers) this way, so outputs do not depend on what ran
    earlier in the process.  Allocates only on first sight. *)
