(** The global frame manager (paper §4.3.1).

    The pageout daemon, extended: it allocates private frame lists to
    specific applications (admission with [minFrame], dynamic [Request]/
    [Release]), keeps the allocation balanced against non-specific
    applications via the [partition_burst] watermark, reclaims frames —
    normally through each victim container's [ReclaimFrame] event in
    FAFR (First Allocated, First Reclaimed) order, forcibly by seizing
    frames — and performs all paging I/O on behalf of policies so the
    executor never waits on the disk. *)

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
(** In allocation (FAFR) order. *)

(** {1 Container lifecycle} *)

val admit : t -> Container.t -> (unit, string) result
(** Grant the container its [min_frames] private list, reclaiming from
    the default pool and then from older containers if needed; reject
    when physical memory cannot cover the request — or, under
    [Critical]+ memory pressure, shed the admission outright (see
    {!try_admit} for the typed reason and the queueing variant). *)

(** Why an admission was refused: shed by the admission governor under
    pressure, or physical memory genuinely cannot cover [min_frames]. *)
type admission_error =
  | Overloaded of Pressure.level
  | No_memory of string

val admission_error_message : admission_error -> string

val try_admit :
  ?queue:bool ->
  t ->
  Container.t ->
  ([ `Admitted | `Queued ], admission_error) result
(** Admission with overload control: below [Critical] pressure this is
    {!admit}.  At [Critical] and above the admission is queued (default)
    or, with [~queue:false], rejected as {!admission_error.Overloaded}.
    Queued admissions are granted in arrival order when pressure recedes
    (see {!drain_admissions}, called automatically from the pressure
    listener installed by {!attach_pressure}). *)

val pending_admissions : t -> int
val drain_admissions : t -> unit

val remove_container : t -> Container.t -> flush_dirty:bool -> unit
(** Tear a container down, returning every frame it holds.  With
    [flush_dirty] the resident dirty pages are written back first
    (voluntary deallocation); without, they are dropped (task killed). *)

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
    on those holding more than their minimum.  Returns frames freed. *)

val forced_reclaim : t -> need:int -> exclude:Container.t option -> int
(** Seize frames (free slots first, then resident pages) FAFR. *)

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
(** Kernel-directed seizure from the largest-over-minimum tenants until
    the free pool is back above the daemon watermarks — the policies are
    bypassed but the seizures are traced ({!Hipec_trace.Event.Seize}).
    Never takes a tenant below [min_frames]. *)

val attach_pressure : t -> unit
(** Subscribe the manager to the kernel's pressure controller (which
    must already be enabled via {!Hipec_vm.Kernel.enable_pressure}):
    entering [Emergency] triggers {!emergency_seize}; receding below
    [Critical] drains queued admissions.  Raises [Invalid_argument] if
    pressure is not enabled. *)

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
  mutable admissions_queued : int;
  mutable admissions_rejected : int;
  mutable throttles_entered : int;
  mutable throttles_exited : int;
  mutable emergency_seizures : int;
  mutable emergency_frames : int;
}

val stats : t -> stats
