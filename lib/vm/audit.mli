(** The kernel auditor: periodic self-verification of VM invariants.

    A paranoid kernel thread for the fault-injection era.  The full
    {!sweep} re-derives the structural invariants the rest of the VM
    relies on — frame conservation, queue membership, object/page
    binding agreement, frame aliasing, and pmap consistency — and
    returns and records any violation; a sweep never raises.  Aliasing
    is read off each frame's recorded holder
    ({!Hipec_machine.Frame.holder}) as the sweep visits the page, so a
    clean sweep allocates nothing per page.

    The auditor keeps no list of queues of its own beyond the pageout
    daemon's.  The layer that owns other queues hands the auditor an
    iterator over them ({!watch}), which every sweep calls afresh: the
    HiPEC frame manager's iterator visits each admitted container's
    private lists, so a policy's queues are audited exactly like the
    kernel's own, from the moment the container is admitted until it
    is retired.

    {2 The daemon's periods}

    The daemon ({!start}) does not sweep every period.  Each period
    checks, through the frame table's frame -> page index
    ({!Vm_page.index}):
    - the next ⌈frames / {!periods_per_pass}⌉ frames from a cursor that
      wraps, so every frame is checked within {!periods_per_pass}
      periods.  For each frame a page holds, that page: still holds the
      frame; if it is on a queue, its own links agree with its
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
    - every watched check ({!watch}).

    These read, from the frame side, the same invariants the sweep
    reads from the queue, object and pmap side.  Any hit or count
    mismatch escalates: the period runs the full {!sweep} there and
    then, and only the sweep's output is recorded.  So
    {!first_violation}, {!violations_found} and each violation's text
    are exactly what the sweep reports at that instant; a hit on
    damage the sweep cannot see (a bound page missing from every
    resident table, say, or broken links on a queue no source names)
    records nothing.  A clean period allocates nothing beyond what the
    watched checks allocate.  Queue damage no member's links show (a
    wrong length, a dangling end on an empty queue) waits for a full
    sweep, as every run ends with one. *)

open Hipec_sim

type violation = { check : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

type t

val periods_per_pass : int
(** 8: the daemon checks every frame at least once in this many
    consecutive periods. *)

val create : ?period:Sim_time.t -> Kernel.t -> t
(** [period] (default 500 ms) spaces the daemon's periods. *)

val watch :
  t ->
  queues:((Page_queue.t -> unit) -> unit) ->
  check:(unit -> (string * string) list) ->
  unit
(** Add a source: [queues f] calls [f] on each queue the source owns at
    that moment, and [check ()] returns a [(check, detail)] pair per
    violation of the source's own invariants, counted and reported like
    the auditor's.  Every sweep walks the queues right after the
    kernel's own and runs [check] after the pmaps; every daemon period
    runs [check].  Sources are visited in the order they were watched,
    and none is ever dropped.  The HiPEC layer, which the VM auditor
    cannot depend on, watches through [Frame_manager.watch]: its
    containers' queues and its isolation invariants (a [Throttled]
    container still owning its minimum frames, with the container named
    in [detail]). *)

val sweep : t -> violation list
(** Run one full sweep now; returns (and counts) the violations found,
    in the sweep's order: frame conservation, the kernel's queues, each
    source's queues, the objects' resident pages, the pmaps, each
    source's check. *)

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
