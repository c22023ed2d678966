(** The one emit path: a dispatcher of typed events to a byte sink and
    to stages.

    Instrumented code calls the per-category emitters below on its hot
    paths.  The dispatcher owns the simulated clock ({!Kernel.create}
    sets it), the sequence number and the id normalization, the
    collector, and a list of attached stages, each taking a set of
    event categories.  With no collector running and no stage taking
    its category, an emitter is one load and one branch and allocates
    nothing.  Call sites that must {e compute} an argument (a binding
    lookup) guard on {!takes} first.

    The collector ({!start}/{!stop}) is the dispatcher's byte sink: it
    keeps category counts, a streaming FNV-1a digest of the encoded
    event bytes and optionally the full stream for {!Recorded}
    serialization.  An emitter writes its event's bytes with the
    category's [Event.put_*] writer into one reusable {!Encoder.t} that
    the digest and the store both read, so collecting allocates
    nothing.  Two stages exist: the live consumer ({!set_consumer}),
    taking every category, and the metrics registry
    ([Metrics.install]), which takes only the categories it derives
    metrics from.  An emitter builds an {!Event.t} only when some
    attached stage takes its category.  Every event takes the next
    sequence number, whoever sees it.  Task/object/container ids are
    normalized to dense first-seen order, restarted by each {!start},
    so digests are independent of global id counters left behind by
    earlier runs in the same process. *)

open Hipec_sim

(** {1 The dispatcher} *)

type stage

val attach : categories:int list -> (Event.t -> unit) -> stage
(** Attach a stage that is fed every event of [categories] (indices as
    {!Event.tag} returns them), after the stages attached before it. *)

val detach : stage -> unit

val on : unit -> bool
(** A collector is running or some stage is attached. *)

val takes : int -> bool
(** A collector is running or some attached stage takes this
    category. *)

val set_clock : (unit -> Sim_time.t) -> unit
(** The simulated clock every event is stamped with, and the one
    [Metrics] series read; a constant zero until first set. *)

val now : unit -> Sim_time.t

(** {1 The collector and the consumer} *)

type collector

val start : ?store:bool -> unit -> collector
(** Start a fresh collector (replacing any current one and its
    consumer) and restart the sequence numbers and id normalization.
    [store] (default false) retains the full encoded stream, required
    for {!Recorded.of_collector}. *)

val stop : unit -> collector option
(** Stop and return the current collector, and detach the consumer. *)

val active : unit -> collector option

val set_consumer : (Event.t -> unit) option -> unit
(** Attach (or detach, with [None]) the live event consumer, replacing
    any current one: it observes every event in stream order, with ids
    already normalized — exactly the events a recording would replay,
    which is what makes online and offline span reconstruction
    bit-identical.  {!stop} detaches it. *)

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
val events : collector -> Event.t array
(** The full stream; raises [Invalid_argument] unless the collector was
    started with [~store:true]. *)

val counts_summary : collector -> string
(** ["access 12, fault 3, ..."] in category order; [""] when no events
    have been recorded.  Shared by {!pp_summary} and [Kstat.pp] so the
    two surfaces print identical strings. *)

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
