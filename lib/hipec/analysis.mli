(** Abstract interpretation of HiPEC policy programs.

    A worklist fixpoint over each event's CFG (skip-next semantics)
    running three cooperating analyses:

    - {b intervals} on int operands and queue lengths, with branch
      refinement and threshold widening — proving divisors nonzero and
      queues non-empty;
    - {b page/queue typestate} per page operand — flagging
      double-EnQueue, DeQueue-from-provably-empty, Release of a
      still-linked page, and use of a provably empty page register;
    - {b static fuel bounds} — worst-case commands per entry for DAG
      events (activations composed bottom-up), termination proofs for
      loops with a provably monotonic exit counter, and "unbounded"
      tags with a reason for everything else.

    Facts are {e must}-facts: sound on every concrete execution of the
    analyzed program.  Entry states assume nothing about mutable
    operands; only install-time values of int operands no event ever
    writes (available when [analyze] is given the operand array) seed
    the entry environment.  Both executor backends keep their defensive
    runtime checks regardless, so executor correctness never depends on
    these facts — they feed diagnostics ({!findings}, [hipec lint] and
    [hipec check]), static fuel verdicts and pseudoc dead-branch
    elimination. *)

(** Integer intervals with infinite bounds. *)
module Interval : sig
  type t = { lo : int option; hi : int option }
  (** [None] bounds are infinities. *)

  val top : t
  val const : int -> t
  val nonneg : t
  val make : int option -> int option -> t
  val is_top : t -> bool
  val is_const : t -> int option
  val contains : t -> int -> bool
  val equal : t -> t -> bool
  val join : t -> t -> t

  val meet : t -> t -> t option
  (** [None] when the meet is empty (a contradiction). *)

  val widen : thresholds:int list -> t -> t -> t
  val apply : Opcode.Arith_op.t -> t -> t -> t

  val comp : Opcode.Comp_op.t -> t -> t -> [ `Always_true | `Always_false | `Unknown ]
  (** Definite comparison verdict, [`Unknown] when either outcome is
      possible. *)

  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

(** {1 Structural CFG helpers}

    Shared with the pseudoc code generator and optimizer; purely
    syntactic, no fixpoint. *)

val successors : Instr.t array -> int -> int list
(** CFG successors of one command under skip-next semantics (tests
    branch to [cc+1] and [cc+2]), filtered to in-bounds targets. *)

val reachable : Instr.t array -> bool array
(** Commands reachable from entry (CC 0) along structural edges. *)

val jump_only_cycles : Instr.t array -> int list list
(** Cycles of two or more commands consisting solely of unconditional
    [Jump]s: guaranteed non-termination once entered.  Each cycle is
    returned as a sorted list of its command counters.  Single-command
    self-jumps are not included (they have their own rule). *)

(** {1 Findings} *)

type severity = Error | Warning | Info

val severity_name : severity -> string

type finding = {
  event : int;
  cc : int option;  (** [None] for whole-event findings *)
  severity : severity;
  rule : string;  (** stable machine-readable rule id, e.g. ["div-by-zero"] *)
  message : string;
}

val pp_finding : Format.formatter -> finding -> unit

(** {1 Fuel} *)

type fuel =
  | Bounded of int
      (** provable worst case, in commands per entry (activated events
          inlined) *)
  | Terminates
      (** provably terminating, but with no static command bound *)
  | Unbounded of string  (** no proof; the string says why *)

val pp_fuel : Format.formatter -> fuel -> unit

(** {1 Trap classes} *)

type trap = Div_by_zero | Deq_empty | Empty_page_register

val trap_name : trap -> string

(** {1 Whole-program analysis} *)

type t

val analyze : ?ops:Operand.t -> Program.t -> t
(** Fixpoint analysis of every event.  With [?ops] (the container's
    operand array as built at install time), operand kinds drive the
    domains and install-time constants seed the entry state; without
    it, only operands that appear as [Arith] targets are tracked and
    entry states are all-Top — strictly fewer facts, never unsound. *)

val findings : t -> finding list
(** All findings, in event order. *)

val fuel : t -> event:int -> fuel option
val fuel_table : t -> (int * fuel) list

val possible_traps : t -> trap list
(** Trap classes with at least one reachable site the analysis could
    not prove safe.  A class absent from this list is proved to never
    occur at runtime. *)

val comp_verdict : t -> event:int -> cc:int -> [ `Always_true | `Always_false | `Unknown ]
val reachable_cc : t -> event:int -> cc:int -> bool
(** Semantically reachable: some abstract state flows there. *)

(** {1 Code-level analysis}

    The pseudoc optimizer's view: analyze one bare code array with no
    operand environment.  Only facts derivable from the code itself
    (e.g. [Sub x x; Inc x] making [x = 1]) are produced, so verdicts
    are sound for dead-branch elimination regardless of install-time
    operand values. *)
module Code : sig
  type info

  val analyze : Instr.t array -> info
  val comp_verdict : info -> int -> [ `Always_true | `Always_false | `Unknown ]
  val reachable_cc : info -> int -> bool
end
