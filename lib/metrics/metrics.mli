(** Typed metrics registry, a stage of the trace sink.

    An installed registry is attached to {!Hipec_trace.Trace} as a stage
    taking the fault, pressure, throttle, demote, seize and io-retry
    categories: the metrics those events carry the value of are derived
    from the events (METRICS.md lists them).  The other metrics are
    emitted directly through the functions below, from a global registry
    slot plus a cached bool, so a direct emit site compiles to a single
    load-and-branch while no registry is installed.  Callers on hot
    paths guard with [if Metrics.on () then ...] and pass literal metric
    names, so the disabled path allocates nothing.

    Deterministic by construction in simulated-time terms: counters,
    gauges, histogram buckets, series points and the profiler's [sim_ns]
    depend only on the simulation, while host wall-clock measurements
    live in segregated [wall_ns] fields every exposition format can omit
    ([~wall:false]), keeping golden digests and replay byte-stable. *)

open Hipec_sim

(** Fixed-capacity ring of [(sim_ns, value)] points, downsampled on the
    registry's sim-tick. *)
module Series : sig
  type t

  val name : t -> string
  val tick_ns : t -> int

  val dropped : t -> int
  (** Oldest points evicted once the ring filled. *)

  val observe : t -> now_ns:int -> int -> unit
  (** Accepted only when at least [tick_ns] of simulated time passed
      since the last accepted sample. *)

  val points : t -> (int * int) array
  (** Points in sim-time order, oldest first. *)
end

(** Per-opcode executor profiler: simulated ns and host wall ns
    attributed to each opcode of an installed policy, per backend and
    container. *)
module Profile : sig
  val slots : int
  (** Size of the opcode code space; cells are indexed by
      [Opcode.code]. *)

  type cell = { mutable count : int; mutable sim_ns : int; mutable wall_ns : int }

  type t

  val backend : t -> string
  val container : t -> int
  val runs : t -> int

  val cells : t -> cell array
  (** Live cells, indexed by opcode code; do not mutate. *)

  val overhead : t -> cell
  (** Dispatch + entry work before the first fetch of each run. *)

  val sim_total : t -> int
  (** Sum of [sim_ns] over all cells plus overhead: the simulated time
      spent inside the executor. *)

  val count_total : t -> int

  type run
  (** Boundary-timer state of one top-level executor run. *)
end

module Registry : sig
  type t

  val default_tick_ns : int

  val create : ?tick_ns:int -> ?series_cap:int -> unit -> t
  val tick_ns : t -> int

  (** Find-or-create accessors; a name maps to exactly one metric kind
      (mismatches raise [Invalid_argument]). *)

  val counter_add : t -> string -> int -> unit
  val gauge_set : t -> string -> int -> unit

  val observe : t -> string -> int -> unit
  (** Record into a log-2-bucketed latency histogram
      ({!Stats.Histogram.create_log}). *)

  val sample : t -> string -> now_ns:int -> int -> unit

  val counter_value : t -> string -> int option
  val gauge_value : t -> string -> int option
  val histogram : t -> string -> Stats.Histogram.t option
  val series : t -> string -> Series.t option

  val histogram_list : t -> (string * Stats.Histogram.t) list
  (** All histograms, sorted by name. *)

  val series_list : t -> Series.t list
  (** All time series, sorted by name. *)

  val norm_container : t -> int -> int
  (** Map a process-global container id to a dense per-registry alias in
      first-seen order (mirroring the trace sink's id normalization), so
      snapshots do not depend on how many containers earlier runs in the
      same process created. *)

  val profile : t -> backend:string -> container:int -> Profile.t
  (** [container] is the raw id; it is normalized via
      {!norm_container} before keying. *)

  val profiles : t -> Profile.t list
  (** Sorted by (backend, container). *)

  val profile_totals : t -> backend:string -> (Profile.cell array * Profile.cell * int) option
  (** Aggregate one backend's profiles across containers:
      [(per-opcode cells, overhead cell, total runs)]; [None] when the
      backend never ran. *)

  val kstat_lines : t -> (string * string) list
  (** Two-column [(label, value)] lines for {!Hipec_vm.Kstat.pp};
      metric names sorted, profiles last. *)

  val to_json : ?wall:bool -> ?opcode_name:(int -> string) -> t -> string
  (** Deterministic snapshot: names sorted, series points in sim-time
      order.  [~wall:false] omits every wall-ns field, making the output
      a pure function of the simulation. *)

  val to_prom : ?opcode_name:(int -> string) -> t -> string
  (** Prometheus text exposition (counters, gauges, cumulative-bucket
      histograms, last series values, per-opcode totals). *)
end

(** {1 Global install point} *)

val install : ?tick_ns:int -> ?series_cap:int -> unit -> Registry.t
(** Install a fresh registry as the process-wide sink (replacing any
    prior one), attach its stage to the trace sink, and return it. *)

val uninstall : unit -> Registry.t option
(** Detach the registry's stage and return the registry. *)

val active : unit -> Registry.t option

val on : unit -> bool
(** Single-bool-test guard for emit sites. *)

val container_id : int -> int
(** Dense alias for a raw container id in the active registry (see
    {!Registry.norm_container}); identity when no registry is installed.
    For emit sites that bake the id into a metric name. *)

(** {1 Emit sites}

    No-ops (no allocation, no observable state change) while no registry
    is installed. *)

val incr : string -> unit
val add : string -> int -> unit
val gauge_set : string -> int -> unit

val observe : string -> int -> unit
(** Record a value (conventionally ns) into a log-bucketed histogram. *)

val sample : string -> int -> unit
(** Append to a sim-tick-downsampled time series, stamped with the
    trace sink's simulated clock ({!Hipec_trace.Trace.now}). *)

(** {1 Profiler entry points} (used by the executor backends) *)

val profile_begin : backend:string -> container:int -> sim_ns:int -> Profile.run option
(** [None] while no registry is installed.  Each profile reuses one run
    record, so a run allocates none and stores no young value into the
    executor's state; runs never nest on one container. *)

val profile_step : Profile.run -> opcode:int -> sim_ns:int -> unit
(** Close the interval since the previous boundary (attributing it to
    the previously fetched opcode, or to the overhead cell before the
    first fetch) and open one for [opcode]. *)

val profile_end : Profile.run -> sim_ns:int -> unit
