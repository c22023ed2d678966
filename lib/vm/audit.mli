(** The kernel auditor: periodic self-verification of VM invariants.

    A paranoid kernel thread for the fault-injection era.  The full
    {!sweep} re-derives the structural invariants the rest of the VM
    relies on — frame conservation, queue membership, object/page
    binding agreement, frame aliasing, and pmap consistency — and
    reports (or raises on) any violation.  Aliasing is read off each
    frame's recorded holder ({!Hipec_machine.Frame.holder}) as the sweep
    visits the page, so a clean sweep allocates nothing per page.  HiPEC
    container queues are registered dynamically so a policy's private
    lists are audited exactly like the kernel's own queues.

    {2 The daemon's periods}

    The daemon ({!start}) does not sweep every period.  Each period
    checks, through the frame table's frame -> page index
    ({!Vm_page.index}):
    - the next ⌈frames / {!periods_per_pass}⌉ frames from a cursor that
      wraps, so every frame is checked within {!periods_per_pass}
      periods.  For each frame a page holds, that page: still holds the
      frame; if it is on an audited queue, its own links agree with its
      neighbours' and its queue's ends ([queue-invariants],
      [queue-membership]); if bound, it is resident at its binding in
      its object ([binding]); and each translation it lists is present,
      targets its frame and lies in a region that maps its binding
      (the [pmap-*] classes for pages that are mapped);
    - two counts kept exactly, in O(tasks) and with no allocation: free
      frames plus pages holding a frame equals the table's total (a
      frame freed, or a frame handed to a second page, behind
      {!Vm_page.release_frame}'s back: [free-frame-on-queue],
      [resident-free-frame], [frame-aliasing]), and live translations
      equal the pages' mapping entries (a translation no page lists:
      [pmap-unmapped-vpn], [pmap-stale], [pmap-free-frame]);
    - the free-list walk of {!Hipec_machine.Frame.Table.check_conservation}
      ([frame-conservation]), in the period whose slice starts at
      frame 0;
    - every registered check ({!register_check}).

    These read, from the frame side, the same invariants the sweep
    reads from the queue, object and pmap side.  Any hit or count
    mismatch escalates: the period runs the full {!sweep} there and
    then, and only the sweep's output is recorded.  So
    {!first_violation}, {!violations_found} and each violation's text
    are exactly what the sweep reports at that instant; a hit on
    damage the sweep cannot see (a bound page missing from every
    resident table, say) records nothing.  A clean period allocates
    nothing beyond what the registered checks allocate.  Queue
    damage no member's links show (a wrong length, a dangling end on an
    empty queue) waits for a full sweep, as every run ends with one. *)

open Hipec_sim

type violation = { check : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

exception Violation of violation list
(** Raised by {!sweep} when [raise_on_violation] is set and the sweep
    found anything. *)

type t

val periods_per_pass : int
(** 8: the daemon checks every frame at least once in this many
    consecutive periods. *)

val create : ?period:Sim_time.t -> ?raise_on_violation:bool -> Kernel.t -> t
(** [period] (default 500 ms) spaces the daemon's periods;
    [raise_on_violation] (default true) makes every failing sweep raise
    {!Violation} instead of merely recording it. *)

val register_queue : t -> Page_queue.t -> unit
(** Audit an additional queue (a HiPEC container's private list) on
    every sweep.  Idempotent and O(1): a storm registers three queues
    per tenant.  Sweeps visit registered queues in registration order. *)

val unregister_queue : t -> Page_queue.t -> unit
(** O(1); a no-op for a queue not registered. *)

val register_check : t -> name:string -> (unit -> (string * string) list) -> unit
(** Run an external invariant check on every sweep.  The closure
    returns [(check, detail)] pairs for each violation it finds; they
    are counted and reported like the auditor's own.  Used by the HiPEC
    layer (which the VM auditor cannot depend on) to assert isolation
    invariants — a [Throttled] container still owning ≥ its minimum
    frames, emergency seizure never stripping a container below its
    minimum — with the violating container named in [detail].
    Idempotent per [name]; checks run in registration order, every
    sweep and every daemon period. *)

val unregister_check : t -> name:string -> unit

val sweep : t -> violation list
(** Run one full sweep now; returns (and counts) the violations found. *)

val tick : t -> unit
(** Run one daemon period now (see above): the incremental checks, and
    a full {!sweep} if they find anything.  Counts one sweep either
    way. *)

val start : t -> unit
(** Arm the daemon: one {!tick} per period. *)

val stop : t -> unit

val sweeps : t -> int
(** One per daemon period plus one per explicit {!sweep}. *)

val violations_found : t -> int

val first_violation : t -> violation option
(** The first violation any sweep found, kept for reporting the cause
    rather than just a count. *)
