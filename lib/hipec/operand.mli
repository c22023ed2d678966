(** The container's operand array (paper §4.2).

    Each HiPEC command field is an index into a 256-entry array whose
    entries point at kernel variables: integers, booleans, page
    registers, or page-queue lists.  The well-known low slots (the
    {!Std} layout) carry the standard paging state the paper's Table 2
    programs use; higher slots are free for application-defined
    operands. *)

open Hipec_vm

type value =
  | Int of int ref  (** a mutable integer variable *)
  | Bool of bool ref
  | Page of Vm_page.t option ref  (** a page register *)
  | Queue of Page_queue.t
  | Count of Page_queue.t  (** reads as the queue's current length (read-only) *)

type kind = Kint | Kbool | Kpage | Kqueue | Kcount

val kind_of_value : value -> kind
val kind_name : kind -> string

val size : int
(** 256. *)

type t
(** The operand array. *)

val create : unit -> t
(** All slots empty. *)

val set : t -> int -> value -> unit
(** Raises [Invalid_argument] if the index is out of range. *)

val get : t -> int -> value option
val kind_at : t -> int -> kind option

(** {1 Typed access} *)

val type_error : ?write:bool -> int -> value option -> expected:kind -> string
(** [type_error ix slot ~expected] is the diagnostic for using slot
    [ix], holding [slot], as an [expected] operand:
    ["operand N: empty slot used as K"], ["operand N: K' used as K"], or,
    for a [~write:true] of an int into a [Count] slot,
    ["operand N: count is read-only"].  Both executor backends report
    ill-typed operands with exactly this text. *)

val read_int : t -> int -> (int, string) result
(** [Int] and [Count] slots read as integers. *)

val write_int : t -> int -> int -> (unit, string) result
(** [Count] slots are read-only. *)

val read_queue : t -> int -> (Page_queue.t, string) result

(** {1 The standard slot layout}

    Exactly the slot numbers the paper's Table 2 programs use. *)
module Std : sig
  val null : int  (** 0x00 — always-zero integer, the "no result" return *)

  val free_queue : int  (** 0x01 *)

  val free_count : int  (** 0x02 *)

  val active_queue : int  (** 0x03 *)

  val active_count : int  (** 0x04 *)

  val inactive_queue : int  (** 0x05 *)

  val inactive_count : int  (** 0x06 *)

  val fault_va : int  (** 0x07 — set by the kernel before PageFault *)

  val reclaim_target : int  (** 0x08 — set before ReclaimFrame *)

  val inactive_target : int  (** 0x09 *)

  val free_target : int  (** 0x0A *)

  val page_reg : int  (** 0x0B — the page register *)

  val reserved_target : int  (** 0x0C *)

  val scratch0 : int  (** 0x0D *)

  val scratch1 : int  (** 0x0E *)

  val scratch2 : int  (** 0x0F *)

  val first_user : int
  (** 0x10 — first application-defined slot. *)
end

(** Standard queues backing the Std slots of one container. *)
type std_queues = {
  free : Page_queue.t;
  active : Page_queue.t;
  inactive : Page_queue.t;
}

val install_std : t -> name:string ->
  free_target:int -> inactive_target:int -> reserved_target:int -> std_queues
(** Populate slots 0x00..0x0F: fresh queues with live [Count] views,
    target integers, the fault-VA and reclaim-target cells, the page
    register and scratch space. *)
