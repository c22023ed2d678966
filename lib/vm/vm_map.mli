(** Per-task virtual address maps: ordered, non-overlapping regions.

    The region is HiPEC's basic unit of specific control (paper §3): a
    contiguous range of virtual pages mapped onto a VM object, with a
    protection and optional special roles (wired, HiPEC command
    buffer). *)

open Hipec_machine

type region = {
  region_id : int;
  start_vpn : int;
  npages : int;
  obj : Vm_object.t;
  obj_offset : int;  (** object page corresponding to [start_vpn] *)
  mutable prot : Pmap.protection;
  mutable wired : bool;
  mutable command_buffer : bool;
      (** wired-down, read-only HiPEC policy buffer: a user write into it
          terminates the task (paper §4.1) *)
}

val region_end_vpn : region -> int
(** One past the last vpn. *)

val offset_of_vpn : region -> int -> int
(** Object page offset backing a vpn of the region. *)

type t

val create : unit -> t

val add : t -> start_vpn:int -> npages:int -> obj:Vm_object.t -> obj_offset:int ->
  prot:Pmap.protection -> region
(** Raises [Invalid_argument] on overlap, non-positive size, or an
    object range that does not fit. *)

val allocate_anywhere : t -> npages:int -> obj:Vm_object.t -> obj_offset:int ->
  prot:Pmap.protection -> region
(** Place the region in the first large-enough gap at or above the
    standard user base address. *)

val remove : t -> region -> unit
(** Raises [Invalid_argument] if the region is not in this map. *)

val find : t -> vpn:int -> region option

val region_at : t -> vpn:int -> region
(** [find] without the option: raises [Not_found] when no region holds
    [vpn].  Allocates nothing, for the reference path. *)

val regions : t -> region list
(** Sorted by start address. *)
