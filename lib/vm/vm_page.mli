(** Resident pages: the kernel's view of one physical frame's contents.

    Following Mach, a [Vm_page.t] exists only while it holds a physical
    frame.  It is either {e bound} to an offset of a VM object (it caches
    that page of the object) or {e unbound} (a free page slot whose frame
    is ready for reuse — this is what sits on free queues, including the
    private free lists HiPEC hands to applications). *)

open Hipec_sim
open Hipec_machine

type t

val create : frame:Frame.t -> t
(** A fresh unbound page slot holding [frame].  The page claims the
    frame ({!Frame.claim}): raises [Invalid_argument] unless [frame] is
    allocated and held by no page. *)

val id : t -> int
(** Unique for the lifetime of the process. *)

val frame : t -> Frame.t

val some : t -> t option
(** [Some t], preallocated: storing it allocates nothing. *)

val holds_frame : t -> bool
(** The page is still its frame's holder (false once the frame went
    back to the pool, even if it has since been handed to another page). *)

val releasable : t -> (unit, string) result
(** [Ok ()] when {!release_frame} would succeed; otherwise why not,
    naming the frame and its holder. *)

val release_frame : Frame.Table.t -> t -> unit
(** Give the page's frame back to the pool: clears the wired and
    modified bits and frees the frame.  The page must hold the frame and
    be unbound and off every queue; otherwise raises [Invalid_argument]
    with the {!releasable} reason.  Every path that frees a page's frame
    goes through here. *)

(** {1 Frame index}

    Each frame table carries an index from frame to holding page.
    {!create} and {!release_frame}, the only places a frame changes
    hands, keep it: one array store each, nothing on a reference. *)

type index

val index : Frame.Table.t -> index
(** The table's index (made empty on first use). *)

val holding : index -> int -> t option
(** The page {!create} last gave frame [i], until {!release_frame}
    takes it back.  A frame freed or claimed some other way keeps its
    old entry. *)

val holding_count : index -> int
(** Pages created on the table and not released.  When every frame
    changes hands through {!create} and {!release_frame}, this plus the
    table's free count is the table's total. *)

val mapping_count : index -> int
(** The mapping entries ({!add_mapping}) of the table's pages, less
    those removed. *)

(** {1 Binding to an object offset} *)

val binding : t -> (int * int) option
(** [(object_id, page_offset)] when bound. *)

val bind : t -> object_id:int -> offset:int -> unit
(** Raises [Invalid_argument] if already bound. *)

val unbind : t -> unit
(** Raises [Invalid_argument] if not bound.  The caller (normally
    {!Vm_object.disconnect}) is responsible for removing the page from
    the object's resident table and from all pmaps first. *)

val is_bound : t -> bool

(** {1 Mappings} *)

val mappings : t -> (Pmap.t * int) list
(** pmaps (with virtual page numbers) currently translating to this
    page's frame. *)

val add_mapping : t -> Pmap.t -> vpn:int -> unit
val remove_mapping : t -> Pmap.t -> vpn:int -> unit

val unmap_all : t -> unit
(** Remove every translation to this page from every pmap. *)

(** {1 State bits} *)

val dirty : t -> bool
(** The frame's hardware modify bit. *)

val referenced : t -> bool
val clear_modified : t -> unit
val clear_referenced : t -> unit
val wired : t -> bool
val set_wired : t -> bool -> unit

val last_access : t -> Sim_time.t
val touch : t -> Sim_time.t -> unit
(** Record an access time (kernel-visible approximation used by the LRU
    and MRU complex commands).  A page on an indexed queue is re-sorted
    in that queue's recency list: O(1) when the time is the queue's
    newest, as it is for every kernel access (the clock never goes
    back); it walks back only across pages touched at the same
    instant. *)

(** {1 Queue links (maintained by {!Page_queue})}

    A page carries the links of the one queue that may hold it, so
    linking, unlinking and touching never allocate.  The links make
    pages cyclic: compare pages with [==] or {!id}, never with
    structural equality, which does not terminate on them. *)

type queue
(** The link core of one {!Page_queue.t}: its queue-order list plus a
    recency list of the same members sorted by (last access, rank),
    where rank order is queue order.  The recency list is built on the
    first {!oldest} or {!newest} and maintained from then on. *)

val on_queue : t -> int option
(** Id of the queue currently holding the page, if any.  Allocates
    nothing. *)

(** The rest is {!Page_queue}'s implementation; nothing else calls it. *)

val new_queue : string -> queue
val queue_id : queue -> int
val queue_name : queue -> string
val queue_length : queue -> int

val linked_on : queue -> t -> bool
(** The page is on this queue. *)

val link : queue -> t -> at_head:bool -> unit
(** Link an off-queue page at one end.  On an indexed queue the recency
    insert walks from both ends in lockstep: O(distance to the nearer
    end). *)

val unlink : queue -> t -> unit
(** Unlink a page that is on this queue. *)

val head : queue -> t option
val tail : queue -> t option
val next : t -> t option

val oldest : queue -> t option
(** Least recently touched member; ties go to the page nearest the
    head.  O(1) once the index is built (the first call builds it in
    O(n log n)). *)

val newest : queue -> t option
(** Most recently touched member; ties go to the page nearest the head.
    O(1 + members sharing the newest time) once the index is built. *)

val links_ok : t -> bool
(** A queued page's own links agree with its neighbours' and with its
    queue's ends, in queue and recency order.  O(1), allocates nothing:
    the per-member view of {!check_links}. *)

val check_links : queue -> bool
(** Both lists are consistent, ordered, of the queue's length, and hold
    the same members, each of which points back at this queue (an
    unbuilt recency list links none). *)

val pp : Format.formatter -> t -> unit
