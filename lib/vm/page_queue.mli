(** Kernel page queues (free / active / inactive / user-defined).

    Dequeue, removal and LRU/MRU victim lookup are O(1).  Enqueue is
    O(1) until the queue's first LRU/MRU lookup builds its recency
    index, and then costs the distance described at {!find_oldest}.
    Once the index is built, no operation allocates.  A page is on at
    most one queue at a time, and carries that queue's links itself
    (see {!Vm_page}).  These queues are both the kernel's own paging queues and the values
    behind HiPEC's [Queue] operands ([EnQueue], [DeQueue], [EmptyQ],
    [InQ], [FIFO], [LRU], [MRU] all operate on them). *)

type t = Vm_page.queue
(** A queue is its link core: this module adds the exclusivity checks
    over {!Vm_page.link} and {!Vm_page.unlink}, which skip them. *)

val create : string -> t
(** [create name] is a fresh empty queue; [name] appears in errors and
    debug output. *)

val id : t -> int
(** Unique queue id (the value stored in {!Vm_page.on_queue}). *)

val name : t -> string
val length : t -> int
val is_empty : t -> bool

val enqueue_head : t -> Vm_page.t -> unit
val enqueue_tail : t -> Vm_page.t -> unit
(** Raise [Invalid_argument] if the page is already on some queue. *)

val dequeue_head : t -> Vm_page.t option
val dequeue_tail : t -> Vm_page.t option

val peek_head : t -> Vm_page.t option
val peek_tail : t -> Vm_page.t option

val remove : t -> Vm_page.t -> unit
(** Remove a specific page.  Raises [Invalid_argument] if the page is
    not on this queue. *)

val mem : t -> Vm_page.t -> bool

val iter : (Vm_page.t -> unit) -> t -> unit
(** Head-to-tail order.  The callback must not mutate the queue. *)

val fold : ('a -> Vm_page.t -> 'a) -> 'a -> t -> 'a
val to_list : t -> Vm_page.t list
(** Head first. *)

val find_oldest : t -> Vm_page.t option
val find_newest : t -> Vm_page.t option
(** The least / most recently touched member ({!Vm_page.last_access}):
    the LRU and MRU complex commands' victims.  Ties resolve to the page
    nearest the head, as a first-extremum scan in queue order would.
    [find_oldest] is O(1); [find_newest] is O(1) plus the members that
    share the newest time.  Both read a recency index that the first
    call builds in O(n log n) and that enqueue, removal and
    {!Vm_page.touch} keep sorted from then on.  Once it is built, an
    enqueue costs the distance from the page's time to the nearer end
    of the index: O(1) for fresh pages and for the victims LRU and MRU
    recycle. *)

val check_invariants : t -> bool
(** Links are consistent, the length matches, every member's
    [on_queue] points here, and the recency index holds exactly the
    members in (last access, rank) order.  O(length).  For tests, the
    auditor and debug assertions. *)
