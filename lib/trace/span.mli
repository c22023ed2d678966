(** Causal fault-lifecycle spans, reconstructed from the event stream.

    A span covers one fault's service window — the interval
    [fault.time - latency_ns, fault.time] — tiled exactly by timed
    segments attributed to the lifecycle stage that was running:
    policy execution, disk reads (every retry attempt separately),
    retry backoff, laundry waits, reclaim scans, throttled default
    service, or plain kernel bookkeeping.  The tiling is derived purely
    from the events the trace sink already emits, so the same spans can
    be rebuilt {e online} (install {!feed} as the collector's consumer
    via [Trace.set_consumer]) or {e offline} from any recorded [.trace]
    file — old goldens gain spans for free — and the two constructions
    produce bit-identical {!digest}s.

    Because the segments partition the window at event timestamps, their
    durations sum {e exactly} to the fault's measured latency; the
    builder asserts this per fault.  The builder keeps no events: since
    the last fault it holds one small group per distinct timestamp in a
    reusable array, so a non-fault event costs it no allocation once the
    array has grown to the longest gap between faults.  Digests chain FNV-1a over a
    canonical encoding of every span, so Interp and Compiled executor
    runs of the same scenario must agree span-for-span exactly as their
    trace digests do. *)

type segment_kind =
  | Policy  (** HiPEC policy execution, closed by a [Policy_run] event *)
  | Disk_read  (** a synchronous pagein transfer, one per attempt *)
  | Backoff  (** retry backoff after a transient I/O error *)
  | Laundry_wait  (** blocked until an async writeback freed a frame *)
  | Reclaim  (** pageout-daemon / eviction scan work *)
  | Throttled  (** default-policy service of a throttled HiPEC tenant *)
  | Service  (** trap, map and other kernel bookkeeping *)

val num_segment_kinds : int
val segment_kind_index : segment_kind -> int
val segment_kind_name : segment_kind -> string

type segment = { seg_kind : segment_kind; seg_start_ns : int; seg_stop_ns : int }

val seg_dur_ns : segment -> int

(** One fault's lifecycle: the root span plus its leaf segments.
    [segments] tile [start_ns, stop_ns] left to right with no gaps. *)
type t = {
  index : int;  (** fault ordinal within the stream, 0-based *)
  task : int;  (** normalized task id (the trace's dense id space) *)
  vpn : int;
  fault_kind : Event.fault_kind;
  start_ns : int;
  stop_ns : int;
  latency_ns : int;
  segments : segment array;
  policy_runs : int;  (** [Policy_run] events inside the window *)
  disk_reads : int;  (** read transfers inside the window *)
  retries : int;  (** [Io_retry] attempts inside the window *)
}

val phases : t -> (segment_kind * int * int * int) list
(** The middle tier of the span tree: maximal runs of consecutive
    same-kind segments merged into [(kind, start_ns, stop_ns, nsegs)],
    in window order.  A fault span parents its phases; a phase parents
    its leaf segments. *)

val by_kind_ns : t -> int array
(** Per-[segment_kind] total ns inside this span, indexed by
    {!segment_kind_index}; the array sums to [latency_ns]. *)

(** {1 Building} *)

type builder

val create : unit -> builder

val feed : builder -> Event.t -> unit
(** Consume one event in stream order.  A non-fault event folds into the
    group of its timestamp and allocates nothing; a [Fault] event closes
    its window (the groups after its start), tiles it, appends a span
    and folds it into the digest.  Raises [Failure] if a window's tiling does not
    sum to the fault's recorded latency (a violated emit-order
    contract, never an expected outcome). *)

val of_events : Event.t array -> builder
(** Fold a whole recorded stream; equivalent to {!feed} in a loop. *)

val spans : builder -> t array
(** All spans so far, in fault order. *)

val digest : builder -> int64
(** Chained FNV-1a over the canonical encoding of every span fed so
    far; [Trace.digest_hex] renders it. *)

val fault_count : builder -> int
val kills : builder -> int
(** [Task_kill] events seen — faults that never resolved leave no span
    but are counted here. *)

(** {1 Aggregation — "where the p99 went"} *)

module Agg : sig
  type row = {
    kind : segment_kind;
    total_ns : int;  (** across all faults *)
    faults_touched : int;  (** faults with a nonzero segment of [kind] *)
    p50_ns : int;
    p90_ns : int;
    p99_ns : int;  (** percentiles of per-fault totals of [kind],
                       over the faults it touched *)
  }

  type t' = {
    faults : int;
    total_latency_ns : int;
    lat_p50_ns : int;
    lat_p90_ns : int;
    lat_p99_ns : int;
    rows : row list;  (** descending [total_ns], zero-total kinds
                          omitted *)
    tail_rows : (segment_kind * int) list;
        (** per-kind total ns over the tail faults (latency >= p99),
            descending — the answer to "where the p99 went" *)
    tail_faults : int;
  }

  val compute : t array -> t'
  val pp : Format.formatter -> t' -> unit
end

(** {1 Exporters} *)

val to_perfetto : t array -> string
(** Chrome/Perfetto [trace_event] JSON: one complete ("ph":"X") event
    per fault span, per phase, and per leaf segment of multi-segment
    phases, nested by containment on the fault task's track. *)

val to_json : ?include_spans:bool -> ?only_task:int -> builder -> string
(** Compact summary object: digest, counts, aggregate rows and (with
    [include_spans], default true) the span list with segments.
    [only_task] restricts the aggregate and span list to one normalized
    task id; the digest and kill count stay stream-global. *)

val pp_span : Format.formatter -> t -> unit
