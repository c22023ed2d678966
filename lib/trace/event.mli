(** Typed simulation trace records.

    One event per interesting kernel/HiPEC transition, stamped with the
    simulated time and a stream sequence number.  Task, object and
    container identifiers are {e normalized} by the collector (dense,
    first-seen order) so a recorded stream — and therefore its digest —
    does not depend on how many objects earlier runs in the same
    process created.

    Events encode to a compact varint binary form (the record/replay
    file format and the digest both hash these bytes) and export to
    JSON for offline analysis. *)

open Hipec_sim

type fault_kind =
  | Soft  (** data resident, translation only *)
  | Zero_fill
  | File_pagein
  | Cow  (** copy-on-write materialization or push-down *)
  | Hipec  (** resolved by a container's policy *)

val fault_kind_code : fault_kind -> int
(** The kind's byte in the binary codec, [0 .. 4]. *)

val fault_kind_name : fault_kind -> string
(** ["soft" | "zero-fill" | "pagein" | "cow" | "hipec"]. *)

type evict_source =
  | Policy  (** a HiPEC policy moved a bound page to its free queue *)
  | Daemon  (** the default pageout daemon reclaimed the page *)

type policy_outcome = Returned | Policy_error | Policy_timeout

type payload =
  | Access of { task : int; vpn : int; write : bool }
  | Fault of { task : int; vpn : int; kind : fault_kind; latency_ns : int }
  | Pagein of { task : int; block : int }
  | Pageout of { obj_id : int; offset : int; block : int }
  | Evict of { source : evict_source; obj_id : int; offset : int; dirty : bool }
  | Grant of { container : int; frames : int }
  | Reclaim of { container : int; frames : int; forced : bool }
  | Policy_run of {
      container : int;
      event : int;
      outcome : policy_outcome;
      commands : int;
    }
  | Demote of { container : int; reason : string }
  | Io_retry of { block : int; write : bool; attempt : int; gave_up : bool }
  | Disk_io of { block : int; nblocks : int; write : bool; ok : bool }
  | Map_op of { vpn : int; enter : bool }
  | Task_kill of { task : int; reason : string }
  | Pressure_change of { level : int; free : int }
      (** the kernel's memory-pressure severity moved to [level]
          (0=normal .. 3=emergency) with [free] frames in the pool *)
  | Throttle of { container : int; entered : bool; fuel : int }
      (** a container crossed its fuel quota ([entered]) or finished its
          cooldown ([not entered]); [fuel] is the window's command count *)
  | Seize of { container : int; frames : int; level : int }
      (** emergency, kernel-directed seizure: [frames] taken from the
          container without running its policy, at pressure [level] *)

type t = { seq : int; time : Sim_time.t; payload : payload }

(** {1 Categories} *)

val num_categories : int
val tag : payload -> int
(** Category index of a payload, [0 .. num_categories-1]. *)

val category_name : int -> string

(** Category indices, as {!tag} returns them, in {!category_name}
    order. *)
module Cat : sig
  val access : int
  val fault : int
  val pagein : int
  val pageout : int
  val evict : int
  val grant : int
  val reclaim : int
  val policy : int
  val demote : int
  val io_retry : int
  val disk : int
  val map : int
  val kill : int
  val pressure : int
  val throttle : int
  val seize : int
end

val pressure_level_name : int -> string
(** ["normal" | "elevated" | "critical" | "emergency"] for 0..3. *)

(** {1 Binary codec} *)

val encode : Encoder.t -> t -> unit
(** Appends the event (without its sequence number, which is implied by
    stream position) to the writer, through the writer of its category
    below.  {!Trace.Recorded.save} writes these bytes. *)

(** One writer per category: the tag byte, the time varint, then the
    payload's fields in declaration order.  They are the one byte
    layout: {!encode} calls them on an event, and the trace collector
    calls them on an emitter's arguments, so collecting builds no
    event. *)

val put_access : Encoder.t -> time:Sim_time.t -> task:int -> vpn:int -> write:bool -> unit

val put_fault :
  Encoder.t -> time:Sim_time.t -> task:int -> vpn:int -> kind:fault_kind -> latency_ns:int -> unit

val put_pagein : Encoder.t -> time:Sim_time.t -> task:int -> block:int -> unit
val put_pageout : Encoder.t -> time:Sim_time.t -> obj_id:int -> offset:int -> block:int -> unit

val put_evict :
  Encoder.t ->
  time:Sim_time.t ->
  source:evict_source ->
  obj_id:int ->
  offset:int ->
  dirty:bool ->
  unit

val put_grant : Encoder.t -> time:Sim_time.t -> container:int -> frames:int -> unit

val put_reclaim :
  Encoder.t -> time:Sim_time.t -> container:int -> frames:int -> forced:bool -> unit

val put_policy_run :
  Encoder.t ->
  time:Sim_time.t ->
  container:int ->
  event:int ->
  outcome:policy_outcome ->
  commands:int ->
  unit

val put_demote : Encoder.t -> time:Sim_time.t -> container:int -> reason:string -> unit

val put_io_retry :
  Encoder.t -> time:Sim_time.t -> block:int -> write:bool -> attempt:int -> gave_up:bool -> unit

val put_disk_io :
  Encoder.t -> time:Sim_time.t -> block:int -> nblocks:int -> write:bool -> ok:bool -> unit

val put_map_op : Encoder.t -> time:Sim_time.t -> vpn:int -> enter:bool -> unit
val put_kill : Encoder.t -> time:Sim_time.t -> task:int -> reason:string -> unit
val put_pressure : Encoder.t -> time:Sim_time.t -> level:int -> free:int -> unit

val put_throttle :
  Encoder.t -> time:Sim_time.t -> container:int -> entered:bool -> fuel:int -> unit

val put_seize : Encoder.t -> time:Sim_time.t -> container:int -> frames:int -> level:int -> unit

val decode : string -> pos:int ref -> seq:int -> t
(** Reads one event starting at [!pos], advancing [pos].
    Raises [Failure] on malformed input. *)

val decode_varint : string -> int ref -> int
(** The codec's unsigned LEB128 reader, exposed for the file format's
    framing fields. *)

(** {1 Rendering} *)

val to_json : Buffer.t -> t -> unit

val json_escape : string -> string
(** The body of a JSON string literal for [s]: quote, backslash and
    control characters escaped.  Returns [s] itself when nothing needs
    escaping.  Trace export, the metrics registry's JSON and the CLI's
    JSON output all escape with it. *)

val pp : Format.formatter -> t -> unit
