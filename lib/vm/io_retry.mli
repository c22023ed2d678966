(** Paging-I/O retry with capped exponential backoff.

    One shared helper for every paging path that talks to the disk: the
    kernel's synchronous pageins, the pageout daemon's asynchronous
    laundry, and the HiPEC frame manager's flushes.  Transient errors
    retry in place after a backoff of [base * 2^(attempt-1)] capped at
    [max_backoff]; a bad block retries only when the caller can remap
    the data to a fresh block (anonymous pages moving to a new swap
    slot); exhausted retries are give-ups — the only I/O condition that
    may terminate a task. *)

open Hipec_sim
open Hipec_machine

type policy = {
  limit : int;  (** retries after the first attempt *)
  base_backoff : Sim_time.t;
  max_backoff : Sim_time.t;
}

val default_policy : policy
(** 4 retries, 1 ms base, 50 ms cap. *)

type stats = {
  mutable io_errors : int;  (** failed transfer attempts *)
  mutable io_retries : int;  (** attempts re-issued after an error *)
  mutable io_giveups : int;  (** transfers abandoned after exhausting retries *)
  mutable swap_remaps : int;  (** bad-block swap slots remapped *)
}

val create_stats : unit -> stats

val backoff : policy -> attempt:int -> Sim_time.t
(** Delay before retry [attempt] (1-based). *)

val submit_write :
  ?policy:policy ->
  stats ->
  Disk.t ->
  remap:(Disk.io_error -> int option) ->
  block:int ->
  nblocks:int ->
  (Engine.t -> (unit, Disk.io_error) result -> unit) ->
  unit
(** Asynchronous write with retries; [on_done] fires exactly once with
    the final outcome.  [remap] is consulted on [Bad_block] — returning
    [Some b] redirects every later attempt to block [b] (and counts a
    swap remap); returning [None] abandons the write. *)

val sync_read :
  policy:policy ->
  stats ->
  charge:(Sim_time.t -> unit) ->
  Disk.t ->
  block:int ->
  nblocks:int ->
  (unit, Disk.io_error) result
(** Synchronous read on the fault path: each attempt's service time (and
    each backoff) is passed to [charge].  Only transient errors retry —
    a permanently bad backing block cannot be read around. *)
