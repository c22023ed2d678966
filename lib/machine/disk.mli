(** Seek + rotation + transfer disk model with a FIFO request queue and a
    deterministic fault-injection layer.

    A deliberately simple Ruemmler/Wilkes-style model: the service time
    of a request is

    {v controller + seek(|cyl - head_cyl|) + rotational latency + transfer v}

    where seek is affine in cylinder distance, rotational latency is
    uniform in one revolution, and transfer is proportional to the
    request size.  Requests are served one at a time in arrival order;
    latency includes time spent queued behind earlier requests.  The
    queue is a FIFO: submitting, completing and {!queue_depth} cost
    O(1) per request however deep the backlog (the pageout path can
    queue thousands of asynchronous writes).

    The default parameters are calibrated so that a scattered 4 KB page
    read averages ~7.65 ms, matching the paper's Table 3 (see
    {!Costs}).

    The fault model ({!Faults}) injects transient read/write errors,
    latency spikes and permanently bad blocks from its {e own} seeded
    RNG, so enabling faults never perturbs the base model's
    rotational-latency draws: a run with [Faults.none] is bit-identical
    to one on the pre-fault model. *)

open Hipec_sim

type params = {
  cylinders : int;
  blocks_per_cylinder : int;  (** block = 512 bytes *)
  controller_overhead : Sim_time.t;
  seek_min : Sim_time.t;  (** track-to-track *)
  seek_per_cylinder : Sim_time.t;
  rotation_time : Sim_time.t;  (** one full revolution *)
  transfer_per_block : Sim_time.t;
}

val default_params : params
(** Calibrated early-90s SCSI disk (see module doc). *)

(** {1 I/O errors and fault injection} *)

type io_error =
  | Transient of { write : bool; block : int }
      (** One-shot device error; the same transfer may succeed when
          retried. *)
  | Bad_block of { block : int }
      (** The extent covers a permanently bad block; every retry fails
          the same way.  Writers should remap, readers must give up. *)
  | Out_of_range of { block : int; nblocks : int }
      (** The extent does not fit the device.  Reported through the
          result (not raised) so a bad block number computed inside the
          event loop surfaces as a typed completion, not a crash. *)

val io_error_to_string : io_error -> string
val pp_io_error : Format.formatter -> io_error -> unit

module Faults : sig
  type config = {
    seed : int;  (** the fault model's private RNG seed *)
    transient_read_rate : float;  (** per-request probability, [0, 1) *)
    transient_write_rate : float;
    latency_spike_rate : float;
    latency_spike : Sim_time.t;  (** added service time when a spike fires *)
    bad_blocks : int list;  (** permanently unreadable/unwritable blocks *)
  }

  val none : config
  (** No faults: the model behaves exactly like the fault-free disk. *)
end

type t

val create : ?params:params -> ?faults:Faults.config -> engine:Engine.t -> rng:Rng.t ->
  unit -> t

val set_faults : t -> Faults.config -> unit
(** Replace the fault configuration (reseeding the fault RNG).  Raises
    [Invalid_argument] on rates outside [0, 1). *)

val capacity_blocks : t -> int

(** {1 Asynchronous interface}

    Used by the pageout path so that the policy executor never waits on
    the device (the paper's global frame manager performs all flushes). *)

val submit_read :
  t -> block:int -> nblocks:int -> (Engine.t -> (unit, io_error) result -> unit) -> unit

val submit_write :
  t -> block:int -> nblocks:int -> (Engine.t -> (unit, io_error) result -> unit) -> unit
(** Enqueue a transfer; the callback fires when it completes, carrying
    the outcome.  An out-of-range extent is reported as
    [Error (Out_of_range _)] after the controller overhead — submission
    itself never raises. *)

(** {1 Synchronous interface} *)

val sync_transfer :
  t ->
  charge:(Sim_time.t -> unit) ->
  is_write:bool ->
  block:int ->
  nblocks:int ->
  (unit, io_error) result
(** One transfer charged synchronously on the fault path: moves the
    head, draws rotational latency (and any fault), passes the duration
    to [charge] (after the transfer's [Disk_io] trace event) and returns
    the outcome.  Allocates nothing when the transfer succeeds.  Counted
    in {!synchronous_transfers}. *)

val service_time : t -> block:int -> nblocks:int -> Sim_time.t
(** Service time the device {e would} take for this request from its
    current head position, excluding queueing and fault injection.
    Moves the head and draws the rotational latency, so repeated calls
    model a seek sequence; used by fully synchronous experiments.
    Raises [Invalid_argument] on an out-of-range extent. *)

val sequential_transfer_time : t -> nblocks:int -> Sim_time.t
(** Transfer-only cost for blocks that continue the preceding request
    (no seek, no rotational loss) — the marginal price of clustered
    readahead. *)

(** {1 Instrumentation} *)

val reads_completed : t -> int
val writes_completed : t -> int
(** Successful asynchronous completions only; failed transfers show up
    in {!faults_injected} / {!bad_block_hits} instead. *)

val synchronous_transfers : t -> int
(** [service_time]/[sync_transfer] calls — transfers charged
    synchronously (the fault path's pageins) rather than queued. *)

val busy_time : t -> Sim_time.t

val queue_depth : t -> int
(** Requests waiting plus the one in service. *)

val faults_injected : t -> int
(** Transient errors delivered. *)

val bad_block_hits : t -> int
val latency_spikes : t -> int
