(** The simulated kernel: tasks, memory syscalls, and the page-fault
    path, tying the machine substrate to the VM object layer.

    Two kernels can be instantiated, mirroring the paper's evaluation:
    the {e unmodified} Mach-like kernel, and the {e HiPEC} kernel, which
    pays a small region check on every fault and supports external
    memory managers (installed by the [Hipec_core] library) that take
    over frame allocation and replacement for their objects. *)

open Hipec_sim
open Hipec_machine

exception Task_terminated of Task.t * string
(** Raised out of [access] and friends when the kernel kills the
    faulting task (protection violation, manager denial, ...). *)

type config = {
  total_frames : int;  (** physical memory size in 4 KB frames *)
  costs : Costs.t;
  disk_params : Disk.params option;  (** [None] = default geometry *)
  disk_faults : Disk.Faults.config option;
      (** fault-injection model for the paging device ([None] = no
          faults); see {!Disk.Faults} *)
  seed : int;  (** all stochastic behaviour derives from this *)
  hipec_kernel : bool;  (** modified kernel: region check on every fault *)
  readahead : int;
      (** pages of clustered pagein after a default-pool file fault
          (0 = off).  Prefetched pages arrive unmapped on the inactive
          queue — a wrong guess is the first thing evicted.  HiPEC
          regions are never prefetched into: frame placement there
          belongs to the application's policy. *)
  io_retry : Io_retry.policy;
      (** retry/backoff parameters for every paging I/O path *)
}

val default_config : config
(** 64 MB (16384 frames), default costs and disk, no faults, seed 1,
    HiPEC off, no readahead, default retry policy. *)

type t

val create : ?config:config -> unit -> t

(** {1 Accessors} *)

val engine : t -> Engine.t
val costs : t -> Costs.t
val disk : t -> Disk.t
val frame_table : t -> Frame.Table.t
val pageout : t -> Pageout.t
val pageout_ctx : t -> Pageout.ctx
val rng : t -> Rng.t
val now : t -> Sim_time.t

val charge : t -> Sim_time.t -> unit
(** Advance virtual time and run any asynchronous completions that have
    come due (disk interrupts, daemon wakeups). *)

val drain_io : t -> unit
(** Run the engine until all in-flight I/O and timers complete. *)

(** {1 Tasks} *)

val create_task : t -> ?name:string -> unit -> Task.t
val tasks : t -> Task.t list

val terminate_task : t -> Task.t -> reason:string -> unit
(** Kill the task and release every frame its regions hold back to the
    system (default-pool pages only; HiPEC containers release theirs
    through the frame manager's deallocation path: the manager of each
    region's object, looked up in the task's own map in region order,
    gets [on_task_terminated]).  A manager of an object the task does
    not map is not called. *)

(** {1 Memory syscalls} *)

val vm_allocate : t -> Task.t -> npages:int -> Vm_map.region
(** Anonymous zero-fill region; charges one syscall. *)

val vm_map_file : t -> Task.t -> ?name:string -> npages:int -> unit -> Vm_map.region
(** Create a file of [npages] pages on the simulated disk and map it;
    charges one syscall. *)

val vm_map_object : t -> Task.t -> obj:Vm_object.t -> obj_offset:int -> npages:int ->
  prot:Pmap.protection -> Vm_map.region
(** Map an existing object (used to share objects between tasks). *)

val vm_deallocate : t -> Task.t -> Vm_map.region -> unit
(** Unmap the region and free its resident default-pool pages: those at
    the object offsets the region maps, in ascending offset order.  The
    object's pages outside the region stay resident. *)

val wire_region : t -> Task.t -> Vm_map.region -> unit
(** Fault every page in and pin it (never evicted). *)

val protect_region : t -> Task.t -> Vm_map.region -> prot:Pmap.protection -> unit

val vm_copy : t -> Task.t -> Vm_map.region -> Vm_map.region
(** Map a lazy copy-on-write snapshot of the region's object into the
    task (Mach's [vm_copy]).  The source's pages are write-protected;
    source writes first push copies down to the snapshot, so it stays
    consistent.  Raises [Invalid_argument] on a HiPEC-managed object. *)

val alloc_disk_extent : t -> npages:int -> int
(** Reserve a disk extent (flat allocator); returns the base block. *)

(** {1 Memory access} *)

val access : t -> Task.t -> va:int -> write:bool -> unit
(** One user memory reference; faults transparently.  Raises
    {!Task_terminated} on a protection violation or manager denial, and
    [Invalid_argument] on an unmapped address (segmentation fault). *)

val access_vpn : t -> Task.t -> vpn:int -> write:bool -> unit

val set_access_recorder : t -> (Task.t -> vpn:int -> write:bool -> unit) option -> unit
(** Install (or clear) a tap on the memory-reference stream — the
    simulated analogue of a tracing pmap.  Used to capture real traces
    for the offline policy advisor. *)

val touch_region : t -> Task.t -> Vm_map.region -> write:bool -> unit
(** Reference every page of the region once, in ascending order. *)

(** {1 External memory managers (the HiPEC hook)} *)

type fault_grant =
  | Grant_page of Vm_page.t
      (** an unbound page slot whose frame will receive the data *)
  | Deny of string  (** terminate the faulting task *)
  | Fallback of string
      (** the manager has demoted itself (policy error or timeout): the
          kernel resolves this fault through the default pool and the
          task lives on.  The manager is expected to have migrated its
          frames back and cleared its hook before returning this. *)

type manager = {
  on_fault : task:Task.t -> obj:Vm_object.t -> offset:int -> write:bool -> fault_grant;
  on_resolved : task:Task.t -> page:Vm_page.t -> unit;
      (** called after the grant is bound, paged in and mapped *)
  on_task_terminated : task:Task.t -> unit;
}

val set_manager : t -> Vm_object.t -> manager -> unit
(** Install the object's manager, keyed by object id in a
    {!Hipec_sim.Int_table}: the fault path finds it without
    allocating. *)

val clear_manager : t -> Vm_object.t -> unit
val managed : t -> Vm_object.t -> bool

(** {1 Memory pressure (overload protection)} *)

val enable_pressure : t -> Pressure.t
(** Engage the overload-protection controller (idempotent — a second
    call returns the existing controller).  Once engaged, every page
    fault re-evaluates the level after service; level changes scale the
    pageout daemon's urgency, emit a [pressure] trace event, and fire {!Pressure.subscribe} listeners (the HiPEC frame
    manager hangs its emergency seizure there).  A kernel that never
    calls this behaves — and traces — exactly as before. *)

val pressure : t -> Pressure.t option
val pressure_level : t -> Pressure.level
(** [Normal] when no controller is engaged. *)

val check_pressure : t -> unit
(** Force a re-evaluation outside the fault path (the frame manager
    calls this before admission decisions); a no-op when disengaged. *)

val register_object : t -> Vm_object.t -> unit
(** Add an externally created object to the kernel registry (objects
    made via [vm_allocate]/[vm_map_file] are registered automatically). *)

val resolve_object : t -> int -> Vm_object.t
(** Registry lookup; raises [Not_found]. *)

val iter_objects : t -> (Vm_object.t -> unit) -> unit
(** Every registered VM object (used by the kernel auditor), in the
    registry's {!Hipec_sim.Int_table.iter} order. *)

(** {1 Mechanism micro-operations (Table 4)} *)

val null_syscall : t -> unit
val null_ipc : t -> unit

(** {1 Statistics} *)

type stats = {
  mutable faults : int;
  mutable fast_refaults : int;  (** resident page, translation only *)
  mutable zero_fill_faults : int;
  mutable pagein_faults : int;
  mutable hipec_faults : int;  (** resolved by an external manager *)
  mutable protection_faults : int;
  mutable prefetched_pages : int;  (** brought in by readahead *)
  mutable cow_copies : int;  (** pages materialized into copy objects *)
  mutable cow_pushes : int;  (** copies pushed down before a source write *)
}

val stats : t -> stats

val io_stats : t -> Io_retry.stats
(** Paging-I/O error/retry/giveup counters, shared across the kernel's
    synchronous pageins, the pageout daemon's laundry and the HiPEC
    frame manager's flushes. *)

val io_policy : t -> Io_retry.policy
