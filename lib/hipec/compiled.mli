(** Compile-once (threaded-code) policy execution backend, and the
    command semantics both backends share.

    The interpreter in {!Executor} decodes every command on every fetch.
    This module instead translates each event's command array into an
    array of OCaml closures {e once per program}, and every container
    running that program shares them:

    - the closures take the container's binding ({!rt}) as their
      argument.  Compiling gives each operand slot the program names a
      dense cell index, binding fills the cells from the container's
      operand array, and a command reads its operand with one indexed
      load and the typed accessors below.  The code therefore does not
      depend on any one container, and the executor compiles each
      distinct program once, however many containers install it;
    - skip-next and [Jump] targets become direct references into the
      closure array, so taken branches cost one indexed call;
    - event dispatch is a dense 256-slot closure array, and the
      undefined-event, depth and control-range diagnostics are
      preformatted.

    Every closure starts with the interpreter's per-step prologue, in
    the interpreter's order: the per-opcode profiler's boundary-timer
    branch, count the step, charge [hipec_fetch_decode], check the step
    budget.  The command bodies call the same functions the interpreter
    calls, so a compiled program produces the same simulated-time charge
    sequence, the same counters and the same error strings, and
    therefore the same trace digest, as interpreting it.

    {b Per-command cost.}  Neither backend allocates on a clean run: an
    operand is read as a bare value, a page register is filled with the
    page's preallocated option ({!Hipec_vm.Vm_page.some}), and errors
    and budget exhaustion leave by exception, so no result is boxed per
    step. *)

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

(** {1 Shared command semantics}

    What a command does, written once and called by both backends.
    {!Executor.run} catches the two exceptions and maps them to its
    outcome; they never escape it. *)

exception Policy_error of string
(** A runtime error: the text is the diagnostic, without the event
    name {!Executor.run} prefixes. *)

exception Out_of_steps
(** The run exhausted its step budget. *)

val fail : string -> 'a
(** Raise {!Policy_error}. *)

val max_activation_depth : int
(** How deeply [Activate] may nest event handlers (16), in either
    backend. *)

val depth_msg : string
(** The error both backends return past {!max_activation_depth}. *)

(** {2 Typed operand access}

    Each accessor takes a slot's index and its content
    ({!Operand.get}) and returns the bare value; on a mistyped or empty
    slot it fails with {!Operand.type_error}'s text. *)

val int_of : int -> Operand.value option -> int
(** [Int] and [Count] slots read as integers. *)

val set_int : int -> Operand.value option -> int -> unit
(** [Count] slots are read-only. *)

val bool_of : int -> Operand.value option -> bool
val set_bool : int -> Operand.value option -> bool -> unit
val page_slot_of : int -> Operand.value option -> Vm_page.t option ref

val page_of : int -> Operand.value option -> Vm_page.t
(** The page in a page register; fails on an empty register. *)

val queue_of : int -> Operand.value option -> Page_queue.t

(** {2 Commands} *)

val arith : Opcode.Arith_op.t -> int -> int -> int
(** Fails on a division or remainder by zero. *)

val flush : services -> Container.t -> Vm_page.t -> unit
(** [Flush]: write the page back if it is dirty. *)

val enqueue :
  services -> Container.t -> Page_queue.t -> Vm_page.t -> Opcode.Queue_end.t -> unit
(** [EnQueue]; a bound page entering the container's free queue is
    laundered and unbound first. *)

val dequeue : Page_queue.t -> Vm_page.t option ref -> Opcode.Queue_end.t -> unit
(** [DeQueue] into a page register; fails on an empty queue. *)

val release : services -> Container.t -> int -> Operand.value option -> bool
(** [Release] of slot [ix], a count or a page register: whether all of
    it went back. *)

val set_bit : Vm_page.t -> Opcode.Bit_action.t -> Opcode.Bit_which.t -> unit

val find : Container.t -> Vm_page.t option ref -> int -> bool
(** [Find]: load the resident page backing a virtual address into a page
    register; whether there was one. *)

val replace :
  Engine.t ->
  Costs.t ->
  services ->
  Container.t ->
  Page_queue.t ->
  (Page_queue.t -> Vm_page.t option) ->
  Operand.value option ->
  bool
(** [FIFO]/[LRU]/[MRU]: charge the complex command, then move the page
    [select] picks onto the free queue and into the page register (the
    last argument is that slot's content); whether the queue had one. *)

(** {1 The compiled backend} *)

type t
(** A program's compiled event handlers, shared by every container that
    runs the program. *)

type rt
(** One container's binding to a compiled program: the container, the
    contents of the operand slots the program names, and the per-run
    step limit, activation depth and profiler state.  Invalid after any
    further {!Operand.set} on the container's array (the install path
    never mutates operands after admission). *)

type Container.code += Bound of rt
      (** How the executor caches a container's binding on it. *)

val compile :
  engine:Engine.t -> costs:Costs.t -> services:services -> counter:int ref -> Program.t -> t
(** Translate every event of the program.  [counter] is the owning
    executor's global command counter, bumped once per step exactly like
    the interpreter's. *)

val bind : t -> Container.t -> rt
(** Bind a container (and its operand array) to a compiled program. *)

val run :
  ?prof:Hipec_metrics.Metrics.Profile.run -> rt -> event:int -> limit:int -> Operand.value option
(** Execute the compiled handler for [event] and return the [Return]
    command's operand.  The run raises {!Out_of_steps} once the
    container's {!Container.commands_interpreted} passes [limit], and
    {!Policy_error} on a runtime error.  The caller stamps the container,
    charges [hipec_dispatch] and maps the result to an outcome, exactly
    as for the interpreter.  [prof] threads the per-opcode profiler's
    boundary-timer state through the step prologues; the profiler only
    observes the simulation, it never advances it. *)
