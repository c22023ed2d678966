(** Per-task physical map: the machine-dependent translation layer.

    Maps virtual page numbers to physical frames with a protection, and
    performs the hardware side of a memory reference: on a translation
    hit it sets the frame's reference bit (and modify bit on a write).
    Mirrors Mach's pmap module at the granularity this simulation
    needs. *)

type protection = Read_only | Read_write

type t

val create : unit -> t

type owner = ..
(** Who owns the pmap, recorded by the layer above ({!Hipec_vm.Task}
    adds its constructor): this layer cannot name tasks. *)

type owner += Unowned  (** a fresh pmap's owner *)

val owner : t -> owner
val set_owner : t -> owner -> unit

val enter : t -> vpn:int -> frame:Frame.t -> prot:protection -> unit
(** Install (or replace) the translation for virtual page [vpn]. *)

val remove : t -> vpn:int -> unit
(** Drop the translation; no-op when absent. *)

val remove_all : t -> unit

val protect : t -> vpn:int -> prot:protection -> unit
(** Change protection of an existing translation.  Raises
    [Invalid_argument] when the page is unmapped. *)

val lookup : t -> vpn:int -> (Frame.t * protection) option

val access : t -> vpn:int -> write:bool -> int
(** One user memory reference.  On a hit (translation present,
    permission ok) it sets the frame's reference bit, and its modify bit
    on a write, and returns the frame's {!Frame.index}.  Otherwise it
    returns {!miss} (no translation: a page fault) or
    {!protection_violation} (a write to a read-only mapping).  The
    result is an unboxed int, so a reference allocates nothing. *)

val frame_at : t -> vpn:int -> int
(** The {!Frame.index} the translation for [vpn] targets, or {!miss}.
    No side effects, allocates nothing. *)

val miss : int
(** [-1] *)

val protection_violation : int
(** [-2] *)

val resident_count : t -> int

val iter : t -> (vpn:int -> frame:Frame.t -> prot:protection -> unit) -> unit
(** Every installed translation (used by the kernel auditor). *)

val vpn_of_va : int -> int
(** Virtual page number of a byte address. *)

val va_of_vpn : int -> int
(** First byte address of a virtual page. *)
