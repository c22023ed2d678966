(** Physical page frames and the machine frame table.

    A frame carries the hardware-maintained reference and modify bits
    (the i486 sets these in the page-table entry; Mach mirrors them per
    physical page, which is the view HiPEC's [Ref]/[Mod]/[Set] commands
    operate on), and records its one holder: it is free in the table's
    pool, allocated but held by no page, or held by exactly one resident
    page ({!Hipec_vm.Vm_page} claims it at creation and gives it back
    through [Vm_page.release_frame]). *)

val page_size : int
(** Bytes per page frame: 4096, as on the paper's i486. *)

type t
(** A physical page frame.  A frame points back at its table, so
    frames are cyclic values: compare them with [==] or {!index}, never
    with structural equality. *)

val index : t -> int
(** Physical frame number, stable for the frame's lifetime. *)

val referenced : t -> bool
val modified : t -> bool
val set_referenced : t -> bool -> unit
val set_modified : t -> bool -> unit
val wired : t -> bool
val set_wired : t -> bool -> unit

val is_free : t -> bool
(** True while the frame sits in the frame table's free pool. *)

val holder : t -> int
(** The id of the page holding the frame; [0] while it is allocated but
    held by no page, and negative while it is free. *)

val describe_holder : int -> string
(** ["free"], ["held by no page"] or ["held by page N"], for messages. *)

val claim : t -> holder:int -> unit
(** Record page [holder] (a positive id) as the frame's holder.  Raises
    [Invalid_argument], naming the frame and its current holder, unless
    the frame is allocated and held by no page. *)

val pp : Format.formatter -> t -> unit

type pages = ..
(** A slot each table keeps for the page layer's frame -> page index
    ({!Hipec_vm.Vm_page}): this layer cannot name pages, so the page
    layer adds the one constructor it stores here. *)

type pages += No_pages  (** a table no page has been created on *)

(** The machine's fixed pool of physical frames. *)
module Table : sig
  type frame := t
  type t

  val create : total:int -> t
  (** [create ~total] makes a table of [total] frames, all free.
      Raises [Invalid_argument] if [total <= 0]. *)

  val total : t -> int
  val free_count : t -> int

  val get : t -> int -> frame
  (** Frame by physical index.  Raises [Invalid_argument] if out of
      range. *)

  val alloc : t -> frame option
  (** Take a frame from the free pool; its ref/mod/wired bits are
      cleared and it is held by no page.  [None] when the pool is
      empty. *)

  val alloc_many : t -> int -> frame list
  (** Up to [n] frames; returns fewer when the pool runs dry. *)

  val free : t -> frame -> unit
  (** Return a frame to the pool, whoever holds it.  Raises
      [Invalid_argument] if the frame is already free or wired.  A frame
      a page holds goes back through [Vm_page.release_frame], which
      checks the holder; this primitive is for frames no page holds. *)

  val check_conservation : t -> bool
  (** Every frame is either in the free pool or allocated, never both,
      and the pool's count agrees.  Allocates nothing. *)

  val pages : t -> pages
  val set_pages : t -> pages -> unit
end

val table : t -> Table.t
(** The table the frame belongs to. *)
