(** The application-specific policy executor (paper §4.3.2).

    Invoked by the page-fault handler or the global frame manager, it
    fetches commands from the policy buffer, decodes them and performs
    the operations — entirely in kernel context, so the only cost is
    ~50 ns of fetch+decode per command (see {!Hipec_machine.Costs}).

    Two backends execute the same semantics:

    - {!Interp} decodes every command on each fetch (the reference
      implementation);
    - {!Compiled} translates each event's command array into one array
      of OCaml closures once per program (see {!Compiled}).  Each
      closure runs the interpreter's per-step prologue (profiler branch,
      step count, fetch charge, budget check) before its command, and
      the command bodies are the functions the interpreter calls, so the
      backend is observationally identical — same simulated-time
      charges, counters, error strings and trace digests — and the
      profiler times the same table that unprofiled runs execute.  It
      saves host time only where per-command decode dominates.

    {b Cost per command.}  A clean run allocates nothing on either
    backend beyond the {!Returned} box: the interpreter's step loop
    keeps its state in arguments, operands are read as bare values,
    page registers take the page's preallocated option, and errors and
    budget exhaustion leave by exception.

    On entry it stamps the container with the current time; the security
    checker polls that stamp to detect runaway policies.  Execution is
    additionally step-bounded: a policy that exceeds the budget is
    suspended with {!Timed_out} and left stamped for the checker to
    kill. *)

open Hipec_sim
open Hipec_machine
open Hipec_vm

(** Kernel services the executor's privileged commands call into
    (implemented by {!Frame_manager}). *)
type services = Compiled.services = {
  request_frames : Container.t -> int -> bool;
      (** [Request]: grant [n] frames onto the container's free queue,
          or reject *)
  release_count : Container.t -> count:int -> int;
      (** [Release $int]: give back up to [count] free slots; returns
          how many actually went back *)
  release_page : Container.t -> Vm_page.t -> (unit, string) result;
      (** [Release $page]: give back one specific (unbound) slot *)
  flush_page : Container.t -> Vm_page.t -> (unit, string) result;
      (** [Flush]: asynchronous writeback; clears the modify bit
          immediately (the manager owns the disk I/O) *)
  resolve_object : int -> Vm_object.t;
}

type outcome =
  | Returned of Operand.value option
      (** the [Return] command's operand (empty slot = [None]) *)
  | Runtime_error of string
      (** ill-typed operand, empty dequeue, undefined event, ... — the
          kernel terminates the application *)
  | Timed_out
      (** step budget exhausted; container left stamped for the checker *)

(** {1 Backend selection} *)

type backend =
  | Interp  (** decode every command word on every fetch *)
  | Compiled  (** decode once at install into threaded closures *)

val backend_name : backend -> string
val backend_of_string : string -> backend option
(** ["interp"] / ["compiled"] (and common aliases). *)

val default_backend : unit -> backend
(** The process-wide backend that {!create} picks up: {!Interp} at
    start-up.  Workloads build their own kernels, so this is how a
    caller runs one on the other backend. *)

val set_default_backend : backend -> unit
(** Set the default for the rest of the process; {!with_backend} scopes
    it instead. *)

val with_backend : backend -> (unit -> 'a) -> 'a
(** [with_backend b f] runs [f] with {!default_backend} set to [b] and
    restores the previous default when [f] returns or raises. *)

type t

val create :
  ?max_steps:int ->
  engine:Engine.t ->
  costs:Costs.t ->
  services:services ->
  unit ->
  t
(** Defaults: 100_000 steps, on {!default_backend}[ ()].  Both backends
    bound [Activate] nesting at {!Compiled.max_activation_depth}. *)

val backend : t -> backend

val run : t -> Container.t -> event:int -> outcome
(** Execute the container's handler for [event].  Charges
    [hipec_dispatch] once plus [hipec_fetch_decode] per command,
    identically under either backend. *)

val precompile : t -> Container.t -> unit
(** Bind the container to its compiled program now (a no-op under
    {!Interp}) — called from the install path so no fault pays for it.
    The program is compiled only if no earlier container installed the
    same one (compared by its {!Program.to_bytes} image); the compiled
    code reads operands through the container's binding, so it does not
    depend on the operand array. *)

val forget : t -> Container.t -> unit
(** Drop the container's binding (teardown/demotion).  The compiled
    program stays for other containers. *)

val compiles : unit -> int
(** Programs compiled so far by every executor of the process.  An
    executor compiles each distinct program it runs under {!Compiled}
    once, however many containers install it; a workload's count is the
    difference across its run. *)

val commands_executed : t -> int
(** Total across all runs (instrumentation). *)

val max_steps : t -> int
(** The per-run step budget both backends enforce; the frame manager's
    fuel ledger derives its default windowed quota from it. *)
