(** The container: HiPEC's kernel object (paper §4.1).

    Created when a specific application invokes [vm_map_hipec] or
    [vm_allocate_hipec] and mounted under the region's VM object.  It
    records the policy program (the command buffer), the operand array,
    the private frame lists allocated by the global frame manager, and
    the executor timestamp the security checker polls. *)

open Hipec_sim
open Hipec_vm

type t

(** What the executor caches on a container.  The compiled backend
    extends it with the container's binding to its shared program, so a
    run finds that program without a table lookup. *)
type code = ..

type code += No_code  (** nothing cached: the state at {!create} *)

val create :
  task:Task.t ->
  obj:Vm_object.t ->
  region:Vm_map.region ->
  program:Program.t ->
  operands:Operand.t ->
  queues:Operand.std_queues ->
  min_frames:int ->
  unit ->
  t

val id : t -> int
val task : t -> Task.t
val obj : t -> Vm_object.t
val region : t -> Vm_map.region
val program : t -> Program.t
val operands : t -> Operand.t

val code : t -> code
val set_code : t -> code -> unit

val free_queue : t -> Page_queue.t
val active_queue : t -> Page_queue.t
val inactive_queue : t -> Page_queue.t

(** {1 The container's queues}

    The one definition of the private lists the frame manager owns for
    this container: the standard slots {!Operand.Std.free_queue},
    [active_queue] and [inactive_queue] (0x01, 0x03, 0x05), then every
    user slot from {!Operand.Std.first_user} up to [Operand.size - 1]
    that holds a [Queue], in ascending order.  A user slot holding a
    standard queue is skipped.  Neither function allocates. *)

val iter_queues : t -> (Page_queue.t -> unit) -> unit

val queue_of_page : t -> Vm_page.t -> Page_queue.t
(** The container queue [page] sits on.  Raises [Not_found] when the
    page is off-queue or on a queue the container does not hold. *)

val min_frames : t -> int

val frames_held : t -> int
(** Frames currently charged to this container by the frame manager. *)

val add_frames : t -> int -> unit
val remove_frames : t -> int -> unit
(** Raises [Invalid_argument] if the count would go negative. *)

val admitted : t -> bool
(** On the frame manager's FAFR ledger: set at admission, cleared when
    demotion or removal retires the container. *)

val set_admitted : t -> bool -> unit

val resident_pages : t -> int
(** Pages currently bound under the container's object. *)

(** {1 Executor timestamp (polled by the security checker)} *)

val executing : t -> bool
(** A policy run is in flight (allocation-free; the fault hot path and
    the reclaim re-entry guard poll this instead of building an option). *)

val execution_started : t -> Sim_time.t option
(** Option view of {!executing}/start time, for the checker and tests. *)

val start_execution : t -> at:Sim_time.t -> unit
val stop_execution : t -> unit
(** Allocation-free setters used by the executor backends per run. *)

val set_execution_started : t -> Sim_time.t option -> unit
(** Compatibility wrapper over {!start_execution}/{!stop_execution}. *)

val timed_out : t -> bool
val set_timed_out : t -> unit

(** {1 Degradation and throttling} *)

type state =
  | Active  (** the policy handles this region's faults *)
  | Throttled of { since : Sim_time.t; until : Sim_time.t; fuel : int }
      (** the tenant burned fuel faster than its quota: its policy is
          bypassed (faults served by the kernel-run default policy over
          its own lists) until the cooldown expires at [until].  Unlike
          {!Degraded} this is temporary — the container keeps its frames
          and its admission, and recovers automatically. *)
  | Degraded of { reason : string; at : Sim_time.t }
      (** the policy erred or ran away: the region fell back to the
          kernel's default pageout policy at [at], permanently *)

val state : t -> state
val degraded : t -> bool
(** True only for {!Degraded} — a throttled container is not degraded. *)

val throttled : t -> bool
val throttled_until : t -> Sim_time.t option
val degraded_reason : t -> string option

val set_degraded : t -> reason:string -> at:Sim_time.t -> unit
(** Record the fallback; only the first demotion's reason is kept.
    Demotion is permanent: it also overrides a live throttle. *)

val set_throttled : t -> since:Sim_time.t -> until:Sim_time.t -> unit
(** Enter the throttled state (no-op unless currently [Active]);
    snapshots the window's fuel and counts the throttle. *)

val clear_throttled : t -> unit
(** Return to [Active] (no-op unless currently [Throttled]). *)

(** {1 Fuel ledger (windowed command budget)} *)

val fuel_window_start : t -> Sim_time.t
val fuel_used : t -> int
(** Commands interpreted/executed during the current window. *)

val burn_fuel : t -> int -> unit
val reset_fuel_window : t -> at:Sim_time.t -> unit

val throttles : t -> int
(** Times this container has entered {!state.Throttled}. *)

val cooldown_level : t -> int
(** Hysteresis: doubles the cooldown on rapid re-throttle, decays on
    clean windows.  Maintained by the frame manager. *)

val set_cooldown_level : t -> int -> unit

(** {1 Accounting} *)

val events_run : t -> int
val count_event_run : t -> unit
val commands_interpreted : t -> int
val count_command : t -> int
(** Count one executed command; returns the new {!commands_interpreted},
    which the executor compares with the run's step limit. *)

val pp : Format.formatter -> t -> unit
