(** Memory-pressure severity for the overload-protection layer.

    Derives a four-step severity ladder from the free-frame count
    measured against the pageout daemon's watermarks.  The ladder
    drives pageout urgency (bigger reclaim batches, more aggressive
    laundering), admission shedding in the HiPEC frame manager, and —
    at [Emergency] — kernel-directed frame seizure that bypasses (but
    traces) tenant policies.

    The controller is entirely deterministic: severity is a pure
    function of the frame counts it is evaluated at, so traced runs
    digest identically across repetitions and executor backends.

    Nothing here runs unless {!Kernel.enable_pressure} installs a
    controller — an un-engaged kernel behaves (and traces) exactly as it
    did before this module existed. *)

type level = Normal | Elevated | Critical | Emergency

val severity : level -> int
(** 0..3, the wire encoding used by trace events and metrics gauges. *)

val level_name : level -> string

type t

val create : unit -> t

val evaluate : t -> free:int -> free_target:int -> reserved:int -> level
(** Recompute the level: [free <= reserved] is [Emergency],
    [free <= free_target/2] is [Critical], [free < free_target] is
    [Elevated].  Escalations apply
    immediately; recovery steps down one level per evaluation
    (hysteresis), so a single good sample cannot flap the system back
    to [Normal].  Fires the {!subscribe} listeners on a change. *)

val level : t -> level
(** The last evaluated level ([Normal] before the first evaluation). *)

val peak : t -> level
(** The highest level any transition has reached ([Normal] if none). *)

val changes : t -> int
(** Level transitions observed so far. *)

val subscribe : t -> (prev:level -> next:level -> unit) -> unit
(** Register a listener for level transitions, called inside
    {!evaluate} after the level is updated, in subscription order.
    The kernel subscribes its own urgency/trace/metrics hook first;
    the HiPEC frame manager subscribes its emergency-seizure and
    admission-queue hooks after. *)
