(** A B+-tree index whose nodes are pages of a HiPEC-managed region.

    Every node visit issues a memory reference for the node's page, so
    index traversals exercise the replacement policy exactly as table
    scans do — the point-lookup counterweight to the scan-dominated
    heap tables.  Leaves are chained for range scans. *)

open Hipec_core

type t

val create :
  Db.t -> name:string -> ?order:int -> ?capacity_pages:int -> ?policy:Db.policy ->
  ?buffer_pages:int -> unit -> t
(** [order] = maximum keys per node (default 64; minimum 4,
    even).  [capacity_pages] bounds the index size (default 4096 nodes).
    [policy] defaults to [Lru]. *)

val name : t -> string
val container : t -> Container.t

val insert : t -> key:int -> row:int -> unit
(** Duplicate keys overwrite the stored row.  Raises [Failure] when the
    region is out of node pages. *)

val search : t -> key:int -> int option
val range : t -> lo:int -> hi:int -> (int * int) list
(** Inclusive [(key, row)] pairs in key order. *)

val delete : t -> key:int -> bool
(** Remove a key; false when absent.  Underfull nodes borrow from or
    merge with a sibling, and the tree height shrinks when the root
    empties (textbook B+-tree rebalancing).  Emptied node pages are
    recycled for future splits. *)

val entry_count : t -> int
val node_count : t -> int
val height : t -> int

val check_invariants : t -> bool
(** Keys sorted in every node, uniform leaf depth, node sizes within
    B+-tree bounds, leaf chain complete and sorted. *)
