(** Compile-once (threaded-code) policy execution backend.

    The interpreter in {!Executor} re-decodes every 32-bit command word
    on every fetch: operand indices are looked up in the operand array,
    kind-checked, and wrapped in [result] values on each step.  This
    module instead translates each event's command array into an array
    of OCaml closures {e once}, right after the security checker accepts
    the program:

    - operand references resolve at compile time to the kernel cells
      they point at (an [int ref], a [bool ref], a page register, a
      queue) — sound because operand slots are immutable after install,
      only the cells they designate change;
    - skip-next and [Jump] targets become direct references into the
      closure array, so taken branches cost one indexed call;
    - statically ill-typed commands compile to error thunks carrying the
      exact diagnostic the interpreter would produce at runtime.

    Each defined event compiles to exactly one closure array, one
    closure per command.  Every closure starts with the interpreter's
    per-step prologue, in the interpreter's order: the per-opcode
    profiler's boundary-timer branch, count the step, charge
    [hipec_fetch_decode], check the step budget.  That prologue is the
    only per-command work left on the hot path, and it is identical to
    the interpreter's: a compiled program produces the same
    simulated-time charge sequence, the same counters and the same
    error strings, and therefore the same trace digest, as interpreting
    it.  Profiled and unprofiled runs execute the same table, so the
    profiler times exactly what normal runs execute.

    Fixed costs are kept off the per-fault path: event dispatch is a
    dense 256-slot closure array (no hashing; undefined-event and
    depth diagnostics are preformatted), and each [t] owns one reusable
    scratch runtime record so {!run} allocates nothing. *)

open Hipec_sim
open Hipec_machine
open Hipec_vm

(** Kernel services the privileged commands call into (implemented by
    {!Frame_manager}; re-exported as {!Executor.services}). *)
type services = {
  request_frames : Container.t -> int -> bool;
  release_count : Container.t -> count:int -> int;
  release_page : Container.t -> Vm_page.t -> (unit, string) result;
  flush_page : Container.t -> Vm_page.t -> (unit, string) result;
  resolve_object : int -> Vm_object.t;
}

(** Internal execution result, shared with the interpreter: a value, an
    error, or budget exhaustion.  {!Executor.run} maps it to
    {!Executor.outcome}. *)
type exec = Value of Operand.value option | Err of string | Tout

val max_activation_depth : int
(** How deeply [Activate] may nest event handlers (16), in either
    backend. *)

val depth_msg : string
(** The error both backends return past {!max_activation_depth}. *)

type t
(** A container's program, compiled against its operand array.  Invalid
    after any further {!Operand.set} on the array (the install path
    never mutates operands post-admission). *)

val compile :
  engine:Engine.t ->
  costs:Costs.t ->
  max_steps:int ->
  services:services ->
  counter:int ref ->
  Container.t ->
  t
(** Translate every event of the container's program.  [counter] is the
    owning executor's global command counter, bumped once per step
    exactly like the interpreter's. *)

val container : t -> Container.t
(** The container this program was compiled against. *)

val run : ?prof:Hipec_metrics.Metrics.Profile.run -> t -> event:int -> exec
(** Execute the compiled handler for [event]: stamps
    [execution_started], charges [hipec_dispatch] once plus
    [hipec_fetch_decode] per command, and converts any
    [Invalid_argument] escaping a kernel service into an [Err] — all
    mirroring the interpreter.  The caller clears the timestamp when
    mapping [Value]/[Err] to an outcome.  [prof] threads the per-opcode
    profiler's boundary-timer state through the step prologues; the
    profiler only observes the simulation, it never advances it. *)
