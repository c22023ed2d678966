(** The HiPEC command set: 20 operators and their flag sub-encodings
    (paper Table 1 / Figure 3).

    A command is one 32-bit word: an 8-bit operator code followed by
    three 8-bit fields whose meaning depends on the operator (operand
    array indices, immediates, or flags). *)

type t =
  | Return  (** end of execution; returns operand op1 *)
  | Arith  (** integer arithmetic: op1 := op1 <flag> op2 *)
  | Comp  (** integer comparison; sets the condition flag *)
  | Logic  (** boolean logic: op1 := op1 <flag> op2; sets condition *)
  | Emptyq  (** condition := queue op1 empty *)
  | Inq  (** condition := page op2 on queue op1 *)
  | Jump  (** conditional branch (taken unless condition = true) *)
  | Dequeue  (** page op1 := take from queue op2 at <flag> end *)
  | Enqueue  (** add page op1 to queue op2 at <flag> end *)
  | Request  (** ask the global frame manager for <imm> frames *)
  | Release  (** return frames (count or page operand) to the manager *)
  | Flush  (** write page op1's data to backing store (asynchronous) *)
  | Set  (** set/reset (flag1) the reference/modify (flag2) bit of page op1 *)
  | Ref  (** condition := page op1 referenced *)
  | Mod  (** condition := page op1 modified *)
  | Find  (** page op1 := resident page backing virtual address op2 *)
  | Activate  (** run event <imm> (procedure-call semantics) *)
  | Fifo  (** complex command: evict the FIFO victim of queue op1 *)
  | Lru  (** complex command: evict the least-recently-used page of queue op1 *)
  | Mru  (** complex command: evict the most-recently-used page of queue op1 *)

val all : t list
(** In opcode order. *)

val code : t -> int
(** Binary operator code, 0x00..0x13 (Table 1). *)

val of_code : int -> t option
val name : t -> string
val of_name : string -> t option
(** Case-insensitive. *)

val is_test : t -> bool
(** Commands that test a condition ([Comp], [Logic], [Emptyq], [Inq],
    [Ref], [Mod], [Find], [Request], [Release], [Fifo], [Lru], [Mru]).
    A test that evaluates TRUE skips the immediately following command —
    by convention the else-branch [Jump], which therefore executes (and
    branches, unconditionally) exactly when the test is false.  This is
    the paper's Table 2 discipline: the fast path [Comp, DeQueue,
    Return] fetches three commands. *)

val pp : Format.formatter -> t -> unit

(** {1 Flag sub-encodings} *)

module Arith_op : sig
  type t = Add | Sub | Mul | Div | Rem | Inc | Dec

  val code : t -> int  (** 1..7 *)

  val of_code : int -> t option
  val name : t -> string
  val of_name : string -> t option
end

module Comp_op : sig
  type t = Gt | Lt | Eq | Ne | Ge | Le

  val code : t -> int  (** 1..6; [Gt]=1 and [Lt]=2 as used in Table 2 *)

  val of_code : int -> t option
  val name : t -> string
  val of_name : string -> t option
  val apply : t -> int -> int -> bool
end

module Logic_op : sig
  type t = And | Or | Not | Xor

  val code : t -> int  (** 1..4 *)

  val of_code : int -> t option
  val name : t -> string
  val of_name : string -> t option
  val apply : t -> bool -> bool -> bool
  (** [Not] ignores its second argument. *)
end

module Queue_end : sig
  type t = Head | Tail

  val code : t -> int  (** Head=1, Tail=2 *)

  val of_code : int -> t option
  val name : t -> string
end

module Bit_action : sig
  type t = Set_bit | Reset_bit

  val code : t -> int  (** Set=1, Reset=2 *)

  val of_code : int -> t option
  val name : t -> string
end

module Bit_which : sig
  type t = Reference | Modify

  val code : t -> int  (** Reference=1, Modify=2 *)

  val of_code : int -> t option
  val name : t -> string
end
