(** The kernel auditor: periodic self-verification of VM invariants.

    A paranoid kernel thread for the fault-injection era: every sweep it
    re-derives the structural invariants the rest of the VM relies on —
    frame conservation, queue membership, object/page binding agreement,
    frame aliasing, and pmap consistency — and reports (or raises on)
    any violation.  Aliasing is read off each frame's recorded holder
    ({!Hipec_machine.Frame.holder}) as the sweep visits the page, so a
    clean sweep allocates nothing per page.  HiPEC container queues are registered dynamically so
    a policy's private lists are audited exactly like the kernel's own
    queues. *)

open Hipec_sim

type violation = { check : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

exception Violation of violation list
(** Raised by {!sweep} when [raise_on_violation] is set and the sweep
    found anything. *)

type t

val create : ?period:Sim_time.t -> ?raise_on_violation:bool -> Kernel.t -> t
(** [period] (default 500 ms) spaces the periodic sweeps;
    [raise_on_violation] (default true) makes every failing sweep raise
    {!Violation} instead of merely recording it. *)

val register_queue : t -> Page_queue.t -> unit
(** Audit an additional queue (a HiPEC container's private list) on
    every sweep.  Idempotent and O(1): a storm registers three queues
    per tenant.  Sweeps visit registered queues in registration order. *)

val unregister_queue : t -> Page_queue.t -> unit
(** O(registered queues); a no-op for a queue not registered. *)

val register_check : t -> name:string -> (unit -> (string * string) list) -> unit
(** Run an external invariant check on every sweep.  The closure
    returns [(check, detail)] pairs for each violation it finds; they
    are counted and reported like the auditor's own.  Used by the HiPEC
    layer (which the VM auditor cannot depend on) to assert isolation
    invariants — a [Throttled] container still owning ≥ its minimum
    frames, emergency seizure never stripping a container below its
    minimum — with the violating container named in [detail].
    Idempotent per [name]. *)

val unregister_check : t -> name:string -> unit

val sweep : t -> violation list
(** Run one full sweep now; returns (and counts) the violations found. *)

val start : t -> unit
(** Arm the periodic daemon sweep. *)

val stop : t -> unit

val sweeps : t -> int
val violations_found : t -> int

val first_violation : t -> violation option
(** The first violation any sweep found, kept for reporting the cause
    rather than just a count. *)
