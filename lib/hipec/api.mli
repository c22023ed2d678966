(** The HiPEC system-call layer (paper §4.3).

    [vm_allocate_hipec] and [vm_map_hipec] mirror Mach's [vm_allocate]
    and [vm_map]: they create the region, wire the policy's command
    buffer read-only into the caller's address space, build the operand
    array, run the security checker's static validation, create the
    container, obtain the private frame list from the global frame
    manager, and hook the object's faults to the policy executor. *)

open Hipec_sim
open Hipec_vm

type t
(** One HiPEC-extended kernel: frame manager + security checker. *)

val init :
  ?burst_fraction:float ->
  ?max_steps:int ->
  ?checker_timeout:Sim_time.t ->
  ?checker_wakeup:Sim_time.t ->
  ?start_checker:bool ->
  Kernel.t ->
  t
(** Extend [kernel] with HiPEC.  [start_checker] (default true) arms the
    periodic security-checker thread.  Policies run on
    {!Executor.default_backend}[ ()] as it stands at this call; under
    {!Executor.Compiled} each accepted program is translated to
    threaded closures when it is first installed, and containers that
    install the same program share them. *)

val kernel : t -> Kernel.t
val manager : t -> Frame_manager.t
val checker : t -> Checker.t

val enable_overload :
  ?fuel_quota:int ->
  ?fuel_window:Sim_time.t ->
  ?fuel_cooldown:Sim_time.t ->
  t ->
  unit
(** Engage the overload-protection stack in one call: the kernel's
    memory-pressure controller ({!Kernel.enable_pressure}), the frame
    manager's pressure subscription (emergency seizure at [Emergency],
    admission draining on recovery — {!Frame_manager.attach_pressure})
    and the per-tenant fuel ledger ({!Frame_manager.set_fuel_policy}).
    [fuel_quota] defaults to 4x the executor's per-run step budget.
    Call at most once per [t]; everything is off until this is called,
    so existing runs are byte-identical. *)

(** What a specific application passes to the HiPEC system calls. *)
type spec = {
  policy : Program.t;
  min_frames : int;  (** the [minFrame] admission request *)
  free_target : int option;  (** policy operand; default [max 4 (min/16)] *)
  inactive_target : int option;  (** default [max 8 (min/4)] *)
  reserved_target : int option;  (** default 2 *)
  extra_operands : (int * Operand.value) list;
      (** user-defined slots at [>= Operand.Std.first_user] *)
}

val default_spec : policy:Program.t -> min_frames:int -> spec

val vm_allocate_hipec :
  t -> Task.t -> npages:int -> spec -> (Vm_map.region * Container.t, string) result
(** Anonymous region under application control. *)

val vm_map_hipec :
  t -> Task.t -> ?name:string -> npages:int -> spec ->
  (Vm_map.region * Container.t, string) result
(** File-backed region under application control. *)

val vm_map_object_hipec :
  t -> Task.t -> obj:Vm_object.t -> spec -> (Vm_map.region * Container.t, string) result
(** Put an {e existing} VM object (its whole range) under application
    control — the way a database re-opens a persistent table with a
    different replacement policy.  Fails if the object is already
    managed. *)

val vm_deallocate_hipec : t -> Task.t -> Container.t -> unit
(** Voluntary teardown: dirty pages are flushed, frames returned. *)

val migrate_frames : t -> src:Container.t -> dst:Container.t -> n:int -> int
(** [vm_migrate_hipec]: move up to [n] free frames from one container's
    private list to another's (paper §6 future work).  Charges one
    system call; returns the number of frames moved. *)

val command_buffer_region : t -> Container.t -> Vm_map.region option
(** The wired read-only region holding the container's policy buffer. *)

val demotion_reason : t -> Container.t -> string option
(** Why (and whether) the container's policy was retired and its region
    handed back to the default pageout policy — [None] while the policy
    is still in control.  Mirrors {!Container.degraded_reason}; exposed
    here so applications can poll their region's fate after a fallback
    (paper's kernel would post a notification port message). *)

