(** VM objects: the unit of backing storage, as in Mach.

    An object represents a contiguous range of pages that can be mapped
    into address spaces.  It is either file-backed (pagein always reads
    the file's disk extent) or zero-fill anonymous (first touch
    zero-fills; evicted dirty pages go to swap slots assigned by the
    kernel's swap allocator). *)

type backing =
  | Zero_fill  (** anonymous memory; swap-backed after first pageout *)
  | File of { base_block : int }
      (** a disk extent: page [i] lives at [base_block + i * blocks_per_page] *)

val blocks_per_page : int
(** 4 KB page / 512 B block = 8. *)

type t

val create : ?name:string -> size_pages:int -> backing:backing -> unit -> t
(** Raises [Invalid_argument] if [size_pages <= 0]. *)

val id : t -> int
val name : t -> string
val size_pages : t -> int
val backing : t -> backing

(** {1 Resident pages}

    As in Mach, a page is named by its offset in the object, and the
    object indexes its resident pages by offset in one array of
    [size_pages] slots: a lookup is one array read. *)

val find_resident : t -> offset:int -> Vm_page.t option
(** The page resident at [offset]: its preallocated {!Vm_page.some}, so
    the lookup allocates nothing.  [None] for an offset below 0 or
    at {!size_pages} and above. *)

val resident_count : t -> int

val iter_resident : (offset:int -> Vm_page.t -> unit) -> t -> unit
(** Every resident page in ascending offset order.  [f] may disconnect
    the page it is given. *)

val connect : t -> Vm_page.t -> offset:int -> unit
(** Bind an unbound page slot to [offset] and record it resident.
    Raises [Invalid_argument] if the offset is out of range, already
    resident, or the page is already bound. *)

val disconnect : t -> Vm_page.t -> unit
(** Remove all pmap translations to the page, unbind it and drop it from
    the resident table, leaving an unbound slot.  Raises
    [Invalid_argument] if the page is not bound to this object. *)

(** {1 Backing store} *)

val disk_block : t -> offset:int -> int option
(** Where page [offset]'s data lives on disk: the file extent, or the
    assigned swap slot, or [None] when the page has never been written
    out (zero-fill on next fault). *)

val assign_swap : t -> offset:int -> block:int -> unit
(** Record the swap slot chosen by the kernel's swap allocator for a
    zero-fill page being written out.  Idempotent per offset only with
    the same block.  Raises [Invalid_argument] on a file-backed object
    or an offset outside the object. *)

val remap_swap : t -> offset:int -> block:int -> unit
(** Move an already-assigned swap slot to a different block — the
    pageout path's answer to a permanently bad swap block.  Raises
    [Invalid_argument] on a file-backed object or an offset with no
    slot assigned. *)

val has_backing_data : t -> offset:int -> bool
(** True when a fault on [offset] must read from disk rather than
    zero-fill. *)

(** {1 Lazy copies (vm_copy)}

    A copy object starts empty and materializes pages on first touch
    from its source chain; the kernel write-protects the source's pages
    and pushes copies down before any source write, so the copy sees a
    consistent snapshot (Mach's copy-on-write, without shadow-object
    chains). *)

val create_copy : ?name:string -> t -> t
(** A lazy copy of [source] (same size, zero-fill backing of its own
    for eventual pageouts). *)

val copy_parent : t -> t option
val children : t -> t list
(** Live copy children of this object. *)

val has_children : t -> bool

val detach_copy : t -> unit
(** Break the child's link to its source (called when the copy's pages
    are torn down); severed copies resolve missing pages to zero-fill. *)

val copy_source : t -> offset:int -> [ `Page of Vm_page.t | `Block of int | `Zero ]
(** Where a missing page's data comes from, walking the source chain:
    a resident source page (memory copy), a source backing block
    (pagein), or nothing (zero-fill).  The object's own backing is the
    caller's responsibility and takes precedence. *)

val pp : Format.formatter -> t -> unit
