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

val pressure_level_name : int -> string
(** ["normal" | "elevated" | "critical" | "emergency"] for 0..3. *)

(** {1 Binary codec} *)

val encode : Encoder.t -> t -> unit
(** Appends the event (without its sequence number, which is implied by
    stream position) to the writer.  This is the one encoding: the
    collector's digest, its stored stream and {!Trace.Recorded.save}
    all read the bytes it writes. *)

val decode : string -> pos:int ref -> seq:int -> t
(** Reads one event starting at [!pos], advancing [pos].
    Raises [Failure] on malformed input. *)

val decode_varint : string -> int ref -> int
(** The codec's unsigned LEB128 reader, exposed for the file format's
    framing fields. *)

(** {1 Rendering} *)

val to_json : Buffer.t -> t -> unit
val pp : Format.formatter -> t -> unit
