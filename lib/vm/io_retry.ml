open Hipec_sim
open Hipec_machine

type policy = {
  limit : int;
  base_backoff : Sim_time.t;
  max_backoff : Sim_time.t;
}

let default_policy =
  { limit = 4; base_backoff = Sim_time.ms 1; max_backoff = Sim_time.ms 50 }

type stats = {
  mutable io_errors : int;
  mutable io_retries : int;
  mutable io_giveups : int;
  mutable swap_remaps : int;
}

let create_stats () = { io_errors = 0; io_retries = 0; io_giveups = 0; swap_remaps = 0 }

(* Delay before retry [attempt] (1-based): base * 2^(attempt-1), capped. *)
let backoff policy ~attempt =
  let rec scale d k =
    if k <= 1 || Sim_time.(d >= policy.max_backoff) then d
    else scale (Sim_time.mul d 2) (k - 1)
  in
  Sim_time.min policy.max_backoff (scale policy.base_backoff attempt)

(* Where to direct the next attempt after [err], if anywhere: transients
   retry in place; bad blocks retry only if the caller can remap the
   data somewhere else; out-of-range is a caller bug and never retried. *)
let retry_target ~remap stats ~block = function
  | Disk.Transient _ -> Some block
  | Disk.Bad_block _ as err -> (
      match remap err with
      | Some b ->
          stats.swap_remaps <- stats.swap_remaps + 1;
          Some b
      | None -> None)
  | Disk.Out_of_range _ -> None

let submit_write ?(policy = default_policy) stats disk ~remap ~block ~nblocks on_done =
  let rec attempt ~block ~tries =
    Disk.submit_write disk ~block ~nblocks (fun engine result ->
        match result with
        | Ok () -> on_done engine (Ok ())
        | Error err -> (
            stats.io_errors <- stats.io_errors + 1;
            match retry_target ~remap stats ~block err with
            | Some b when tries < policy.limit ->
                stats.io_retries <- stats.io_retries + 1;
                Hipec_trace.Trace.io_retry ~block:b ~write:true ~attempt:(tries + 1)
                  ~gave_up:false;
                let delay = backoff policy ~attempt:(tries + 1) in
                (* direct: no event carries the backoff *)
                if Hipec_metrics.Metrics.on () then
                  Hipec_metrics.Metrics.observe "vm.io_retry.backoff_ns"
                    (Sim_time.to_ns delay);
                ignore
                  (Engine.schedule engine ~after:delay (fun _ ->
                       attempt ~block:b ~tries:(tries + 1)))
            | Some _ | None ->
                stats.io_giveups <- stats.io_giveups + 1;
                Hipec_trace.Trace.io_retry ~block ~write:true ~attempt:tries
                  ~gave_up:true;
                on_done engine (Error err)))
  in
  attempt ~block ~tries:0

(* Top-level with every argument explicit, and [policy] required, so a
   pagein builds neither a closure nor a [Some policy]. *)
let rec sync_attempt policy stats ~charge disk ~block ~nblocks tries =
  match Disk.sync_transfer disk ~charge ~is_write:false ~block ~nblocks with
  | Ok () -> Ok ()
  | Error err ->
      stats.io_errors <- stats.io_errors + 1;
      if (match err with Disk.Transient _ -> true | _ -> false) && tries < policy.limit
      then begin
        stats.io_retries <- stats.io_retries + 1;
        (* a not-given-up Io_retry precedes its backoff charge: Span
           attributes the interval starting here as [Backoff] *)
        Hipec_trace.Trace.io_retry ~block ~write:false ~attempt:(tries + 1)
          ~gave_up:false;
        let delay = backoff policy ~attempt:(tries + 1) in
        (* direct: no event carries the backoff *)
        if Hipec_metrics.Metrics.on () then
          Hipec_metrics.Metrics.observe "vm.io_retry.backoff_ns" (Sim_time.to_ns delay);
        charge delay;
        sync_attempt policy stats ~charge disk ~block ~nblocks (tries + 1)
      end
      else begin
        stats.io_giveups <- stats.io_giveups + 1;
        Hipec_trace.Trace.io_retry ~block ~write:false ~attempt:tries ~gave_up:true;
        Error err
      end

let sync_read ~policy stats ~charge disk ~block ~nblocks =
  sync_attempt policy stats ~charge disk ~block ~nblocks 0
