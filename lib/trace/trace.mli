(** The global trace sink.

    Instrumented code calls the per-category emit functions below on its
    hot paths; when no collector is installed each call is one match on
    the global sink and allocates nothing.  Call sites that must
    {e compute} an argument (a binding lookup, a stats snapshot) guard
    on {!on} first.

    A collector stamps every event with the registered simulation clock,
    keeps per-category counters, a fault-latency histogram, a bounded
    ring of recent events, a streaming FNV-1a digest of the encoded
    event bytes, and (optionally) the full stream for {!Recorded}
    serialization.  Beyond the event record itself, recording an event
    allocates nothing: it is encoded into one reusable {!Encoder.t}
    that the digest and the store both read.  Task/object/container ids are normalized to dense
    first-seen order so digests are independent of global id counters
    left behind by earlier runs in the same process. *)

open Hipec_sim

type collector

val start : ?ring:int -> ?store:bool -> ?clock:(unit -> Sim_time.t) -> unit -> collector
(** Install a fresh collector as the global sink (replacing any current
    one).  [ring] bounds the recent-event buffer (default 512);
    [store] (default false) retains the full encoded stream, required
    for {!Recorded.of_collector}.  The clock defaults to a constant
    zero until {!set_clock} is called — {!Kernel.create} registers its
    engine automatically. *)

val stop : unit -> collector option
(** Uninstall and return the current collector. *)

val on : unit -> bool
val active : unit -> collector option
val set_clock : (unit -> Sim_time.t) -> unit
(** No-op when no collector is installed. *)

val set_consumer : (Event.t -> unit) option -> unit
(** Install (or clear, with [None]) a live event consumer on the
    current collector: it observes every pushed event after the digest
    and ring updates, in stream order, with ids already normalized —
    exactly the events a recording would replay, which is what makes
    online and offline span reconstruction bit-identical.  One [match]
    per event when unset; a no-op when no collector is installed. *)

(** {1 Emitters} *)

val access : task:int -> vpn:int -> write:bool -> unit
val fault : task:int -> vpn:int -> kind:Event.fault_kind -> latency_ns:int -> unit
val pagein : task:int -> block:int -> unit
val pageout : obj:int -> offset:int -> block:int -> unit
val evict : source:Event.evict_source -> obj:int -> offset:int -> dirty:bool -> unit
val grant : container:int -> frames:int -> unit
val reclaim : container:int -> frames:int -> forced:bool -> unit

val policy_run :
  container:int -> event:int -> outcome:Event.policy_outcome -> commands:int -> unit

val demote : container:int -> reason:string -> unit
val io_retry : block:int -> write:bool -> attempt:int -> gave_up:bool -> unit
val disk_io : block:int -> nblocks:int -> write:bool -> ok:bool -> unit
val map_op : vpn:int -> enter:bool -> unit
val kill : task:int -> reason:string -> unit

val pressure : level:int -> free:int -> unit
(** Memory-pressure level change (0=normal .. 3=emergency); only emitted
    while the overload subsystem is engaged, so recordings of scenarios
    that never enable it are byte-identical to pre-overload streams. *)

val throttle : container:int -> entered:bool -> fuel:int -> unit
val seize : container:int -> frames:int -> level:int -> unit

(** {1 Inspection} *)

val events_seen : collector -> int
val counts : collector -> int array
(** Per-category totals, indexed by {!Event.tag}. *)

val digest : collector -> int64
val digest_hex : int64 -> string
val recent : collector -> Event.t list
(** Up to [ring] most recent events, oldest first. *)

val events : collector -> Event.t array
(** The full stream; raises [Invalid_argument] unless the collector was
    started with [~store:true]. *)

val fault_latency_buckets : collector -> int array * int
(** 16 uniform 1 ms buckets over [0, 16 ms) of fault service latency,
    plus the overflow count.  A latency of exactly 16 ms lands in the
    overflow count, not in the last bucket. *)

val counts_summary : collector -> string
(** ["access 12, fault 3, ..."] in category order; [""] when no events
    have been recorded.  Shared by {!pp_summary} and [Kstat.pp] so the
    two surfaces print identical strings. *)

val fault_latency_summary : collector -> string
(** ["[c0 c1 ... c15 | >16ms n]"] — the bucket counts of
    {!fault_latency_buckets} in display form. *)

val pp_summary : Format.formatter -> collector -> unit

(** {1 Recorded streams (the [.trace] file format)} *)

module Recorded : sig
  type t = { meta : (string * string) list; events : Event.t array; digest : int64 }

  val of_collector : collector -> meta:(string * string) list -> t
  val meta_find : t -> string -> string option
  val save : t -> path:string -> unit
  val load : path:string -> (t, string) result
  (** Verifies the stored digest against the decoded events. *)

  val to_json : t -> string

  type divergence = { seq : int; left : Event.t option; right : Event.t option }

  val diff : t -> t -> divergence option
  (** [None] when both streams are event-for-event identical. *)
end
