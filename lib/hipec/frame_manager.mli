(** The global frame manager (paper §4.3.1).

    The pageout daemon, extended: it allocates private frame lists to
    specific applications (admission with [minFrame], dynamic [Request]/
    [Release]), keeps the allocation balanced against non-specific
    applications via the [partition_burst] watermark, reclaims frames —
    normally through each victim container's [ReclaimFrame] event in
    FAFR (First Allocated, First Reclaimed) order, forcibly by seizing
    frames — and performs all paging I/O on behalf of policies so the
    executor never waits on the disk.

    The manager has one way in and one way out.  {!admit} appends a
    container to the FAFR ledger (a queue, so admission is O(1)) and
    sets its {!Container.admitted} flag.  {!demote} and
    {!remove_container} both retire it: the ledger is rebuilt without
    it and the flag cleared, before any of its frames move.  Every
    forced take of frames — from a throttled reclaim victim, by forced
    reclamation, by emergency seizure, or at removal — goes through one
    seizure loop. *)

open Hipec_vm

type t

val create :
  kernel:Kernel.t ->
  ?burst_fraction:float ->
  ?max_steps:int ->
  unit ->
  t
(** [burst_fraction] (default 0.5) of the currently free frames becomes
    [partition_burst], as in the paper ("50% of the available free page
    frames after the system starts up").  [max_steps] bounds policy
    executions; the executor runs on {!Executor.default_backend}. *)

val kernel : t -> Kernel.t
val executor : t -> Executor.t
val partition_burst : t -> int
val set_partition_burst : t -> int -> unit
val specific_total : t -> int
(** Frames currently held by all containers. *)

val containers : t -> Container.t list
(** A fresh list of the ledger, in allocation (FAFR) order. *)

val fold_containers : ('a -> Container.t -> 'a) -> 'a -> t -> 'a
(** Fold over the ledger in FAFR order without copying it.  [f] must
    not admit, demote or remove a container. *)

(** {1 Container lifecycle} *)

(** Why an admission was refused: shed by the admission governor under
    pressure, or physical memory genuinely cannot cover [min_frames]. *)
type admission_error =
  | Overloaded of Pressure.level
  | No_memory of string

val admission_error_message : admission_error -> string

val admit : t -> Container.t -> (unit, admission_error) result
(** Grant the container its [min_frames] private list, reclaiming from
    the default pool and then from older containers if needed, and
    append it to the ledger.  At [Critical] pressure or above the
    admission is shed as [Overloaded]; below it, [No_memory] when
    physical memory cannot cover [min_frames].  Every refusal counts in
    [admissions_rejected] and [hipec.manager.admissions.rejected]; a
    refused tenant may try again later. *)

val remove_container : t -> Container.t -> flush_dirty:bool -> unit
(** Tear a container down, returning every frame it holds.  With
    [flush_dirty] the resident dirty pages are written back first
    (voluntary deallocation); without, they are dropped (task killed).
    A no-op for a container that is not admitted. *)

val demote : t -> Container.t -> reason:string -> unit
(** Policy fallback: retire the container's policy and hand the region
    back to the kernel's default pageout policy, without killing the
    task.  Resident pages migrate onto the central active queue (the
    default daemon ages them from there); unbound slots — queued or
    parked in page-register operands — return to the machine free pool.
    The container is un-admitted, its fault hook cleared, and its state
    set to {!Container.state.Degraded} with [reason].  Idempotent: a
    second demotion is a no-op (first reason wins). *)

(** {1 Executor entry points} *)

val run_event : t -> Container.t -> event:int -> Executor.outcome
(** Run a policy event with the manager's services wired in.  A
    [Runtime_error] outcome demotes the container (graceful fallback to
    the default policy — the task survives); [Timed_out] leaves the
    container stamped for the security checker. *)

val page_fault : t -> Container.t -> fault_va:int -> (Vm_page.t, string) result
(** Drive the container's [PageFault] event and extract the granted
    free slot; errors mean the region must fall back to the default
    policy (the caller demotes, the kernel retries the fault there). *)

(** {1 Manager operations (also exposed to policies as services)} *)

val request : t -> Container.t -> int -> bool
(** Grant [n] more frames onto the container's free queue, or reject. *)

val reclaim_from_specific : t -> need:int -> exclude:Container.t option -> int
(** Normal reclamation: walk containers FAFR, running [ReclaimFrame]
    on those holding more than their minimum, until [need] frames are
    free.  The victims are chosen before the first policy runs.  A
    throttled victim's policy never runs: its frames are seized
    directly, never below its minimum.  Returns frames freed. *)

val forced_reclaim : t -> need:int -> exclude:Container.t option -> int
(** Seize frames (free slots first, then resident pages) FAFR until
    [need] are free; a throttled tenant keeps its minimum. *)

val migrate : t -> src:Container.t -> dst:Container.t -> n:int -> int
(** Move up to [n] free slots from [src]'s private free list directly
    onto [dst]'s, without a round trip through the global pool — the
    paper's §6 first future-work item (physical frame migration between
    relevant jobs).  Only unbound slots move; returns how many did.
    Raises [Invalid_argument] when [src] and [dst] are the same
    container or either is no longer admitted. *)

val balance : ?exclude:Container.t -> t -> unit
(** If [specific_total > partition_burst], reclaim the overage from
    containers holding more than their minimum (paper's Balance task). *)

(** {1 Overload protection} *)

val burst_limit : t -> int
(** The effective burst watermark: [partition_burst] scaled down by the
    current {!Hipec_vm.Pressure.level} (3/4 at [Elevated], 1/2 at
    [Critical], 1/4 at [Emergency]).  Equal to {!partition_burst} while
    the pressure controller is disengaged. *)

val pressure_level : t -> Pressure.level

val set_fuel_policy : ?quota:int -> ?window:Hipec_sim.Sim_time.t -> ?cooldown:Hipec_sim.Sim_time.t -> t -> unit
(** Configure the per-tenant fuel ledger.  [quota] is the command budget
    per accounting [window] (default 10 ms); 0 (the default) disables
    fuel accounting entirely.  A tenant that burns more than [quota]
    commands inside one window is {!Container.state.Throttled} for
    [cooldown] (default 50 ms), doubled per rapid re-offence. *)

val fuel_quota : t -> int
val fuel_window : t -> Hipec_sim.Sim_time.t
val fuel_cooldown : t -> Hipec_sim.Sim_time.t

val emergency_seize : t -> level:Pressure.level -> unit
(** Kernel-directed seizure from the largest-over-minimum tenants (FAFR
    among equal overages) until the free pool is back at the daemon's
    free target plus its reserve — the policies are bypassed but the
    seizures are traced ({!Hipec_trace.Event.Seize}).  Never takes a
    tenant below [min_frames], and skips a tenant whose policy is
    executing. *)

val attach_pressure : t -> unit
(** Subscribe the manager to the kernel's pressure controller (which
    must already be enabled via {!Hipec_vm.Kernel.enable_pressure}):
    entering [Emergency] triggers {!emergency_seize}.  Raises
    [Invalid_argument] if pressure is not enabled. *)

val audit_check : t -> unit -> (string * string) list
(** Isolation invariants for {!Hipec_vm.Audit.register_check}: specific
    accounting agrees with the sum of container balances, and every
    throttled tenant still owns at least [min_frames].  Violations name
    the offending container. *)

(** {1 Statistics} *)

type stats = {
  mutable requests_granted : int;
  mutable requests_rejected : int;
  mutable frames_granted : int;
  mutable frames_reclaimed : int;
  mutable reclaim_events : int;
  mutable forced_seizures : int;
  mutable flush_writes : int;
  mutable demotions : int;
  mutable admissions_rejected : int;
  mutable throttles_entered : int;
  mutable throttles_exited : int;
  mutable emergency_seizures : int;
  mutable emergency_frames : int;
}

val stats : t -> stats
