open Hipec_sim

type params = {
  cylinders : int;
  blocks_per_cylinder : int;
  controller_overhead : Sim_time.t;
  seek_min : Sim_time.t;
  seek_per_cylinder : Sim_time.t;
  rotation_time : Sim_time.t;
  transfer_per_block : Sim_time.t;
}

(* 256 MB, 7200 rpm-class: random 4 KB read averages ~7.65 ms
   (0.4 controller + ~2.8 seek + ~4.17 rotation + ~0.26 transfer). *)
let default_params =
  {
    cylinders = 2_000;
    blocks_per_cylinder = 256;
    controller_overhead = Sim_time.of_us_f 400.;
    seek_min = Sim_time.of_us_f 800.;
    seek_per_cylinder = Sim_time.of_us_f 3.0;
    rotation_time = Sim_time.of_us_f 8_333.;
    transfer_per_block = Sim_time.of_us_f 32.6;
  }

type io_error =
  | Transient of { write : bool; block : int }
  | Bad_block of { block : int }
  | Out_of_range of { block : int; nblocks : int }

let io_error_to_string = function
  | Transient { write; block } ->
      Printf.sprintf "transient %s error at block %d"
        (if write then "write" else "read")
        block
  | Bad_block { block } -> Printf.sprintf "permanently bad block %d" block
  | Out_of_range { block; nblocks } ->
      Printf.sprintf "extent [%d..%d) outside the device" block (block + nblocks)

let pp_io_error fmt e = Format.pp_print_string fmt (io_error_to_string e)

module Faults = struct
  type config = {
    seed : int;
    transient_read_rate : float;
    transient_write_rate : float;
    latency_spike_rate : float;
    latency_spike : Sim_time.t;
    bad_blocks : int list;
  }

  let none =
    {
      seed = 0;
      transient_read_rate = 0.;
      transient_write_rate = 0.;
      latency_spike_rate = 0.;
      latency_spike = Sim_time.zero;
      bad_blocks = [];
    }

  let validate c =
    let rate_ok r = r >= 0. && r < 1. in
    if
      not
        (rate_ok c.transient_read_rate && rate_ok c.transient_write_rate
        && rate_ok c.latency_spike_rate)
    then invalid_arg "Disk.Faults: rates must lie in [0, 1)"
end

type request = {
  block : int;
  nblocks : int;
  is_write : bool;
  on_complete : Engine.t -> (unit, io_error) result -> unit;
}

type t = {
  params : params;
  engine : Engine.t;
  rng : Rng.t;
  mutable head_cylinder : int;
  mutable busy : bool;
  queue : request Queue.t;  (* oldest first; excludes the request in service *)
  mutable reads : int;
  mutable writes : int;
  mutable sync_transfers : int;
  mutable busy_time : Sim_time.t;
  (* fault injection: a separate RNG so enabling faults never perturbs
     the rotational-latency draws of the base model *)
  mutable faults : Faults.config;
  mutable fault_rng : Rng.t;
  bad : unit Int_table.t;
  mutable faults_injected : int;
  mutable bad_block_hits : int;
  mutable latency_spikes : int;
}

let set_faults t config =
  Faults.validate config;
  t.faults <- config;
  t.fault_rng <- Rng.create ~seed:config.Faults.seed;
  Int_table.reset t.bad;
  List.iter (fun b -> Int_table.replace t.bad b ()) config.Faults.bad_blocks

let create ?(params = default_params) ?(faults = Faults.none) ~engine ~rng () =
  if params.cylinders <= 0 || params.blocks_per_cylinder <= 0 then
    invalid_arg "Disk.create: bad geometry";
  let t =
    {
      params;
      engine;
      rng;
      head_cylinder = 0;
      busy = false;
      queue = Queue.create ();
      reads = 0;
      writes = 0;
      sync_transfers = 0;
      busy_time = Sim_time.zero;
      faults = Faults.none;
      fault_rng = Rng.create ~seed:0;
      bad = Int_table.create 16;
      faults_injected = 0;
      bad_block_hits = 0;
      latency_spikes = 0;
    }
  in
  set_faults t faults;
  t

let capacity_blocks t = t.params.cylinders * t.params.blocks_per_cylinder

let extent_error t ~block ~nblocks =
  if nblocks <= 0 || block < 0 || block + nblocks > capacity_blocks t then
    Some (Out_of_range { block; nblocks })
  else None

let check_extent t ~block ~nblocks =
  if nblocks <= 0 then invalid_arg "Disk: nblocks <= 0";
  if block < 0 || block + nblocks > capacity_blocks t then
    invalid_arg "Disk: extent out of range"

(* Seek + rotate + transfer for one request; moves the head.  The extent
   must already be known in range. *)
let service_time_unchecked t ~block ~nblocks =
  t.sync_transfers <- t.sync_transfers + 1;
  let p = t.params in
  let cyl = block / p.blocks_per_cylinder in
  let dist = abs (cyl - t.head_cylinder) in
  t.head_cylinder <- cyl;
  let seek =
    if dist = 0 then Sim_time.zero
    else Sim_time.add p.seek_min (Sim_time.mul p.seek_per_cylinder dist)
  in
  let rotation = Sim_time.ns (Rng.int t.rng (max 1 (Sim_time.to_ns p.rotation_time))) in
  let transfer = Sim_time.mul p.transfer_per_block nblocks in
  Sim_time.add p.controller_overhead (Sim_time.add seek (Sim_time.add rotation transfer))

let service_time t ~block ~nblocks =
  check_extent t ~block ~nblocks;
  service_time_unchecked t ~block ~nblocks

(* One fault-model roll for a transfer over [block, block+nblocks).
   Permanently bad blocks always fail; otherwise a transient error fires
   with the configured per-request probability. *)
let rec first_bad t b ~stop =
  if b >= stop then -1 else if Int_table.mem t.bad b then b else first_bad t (b + 1) ~stop

let fault_outcome t ~is_write ~block ~nblocks =
  let bad = if Int_table.length t.bad > 0 then first_bad t block ~stop:(block + nblocks) else -1 in
  if bad >= 0 then begin
    t.bad_block_hits <- t.bad_block_hits + 1;
    Error (Bad_block { block = bad })
  end
  else begin
    let rate =
      if is_write then t.faults.Faults.transient_write_rate
      else t.faults.Faults.transient_read_rate
    in
    if rate > 0. && Rng.chance t.fault_rng rate then begin
      t.faults_injected <- t.faults_injected + 1;
      Error (Transient { write = is_write; block })
    end
    else Ok ()
  end

let spike_delay t =
  let f = t.faults in
  if f.Faults.latency_spike_rate > 0. && Rng.chance t.fault_rng f.Faults.latency_spike_rate
  then begin
    t.latency_spikes <- t.latency_spikes + 1;
    f.Faults.latency_spike
  end
  else Sim_time.zero

let queue_depth t = Queue.length t.queue + if t.busy then 1 else 0

(* Controller introspection: current queue depth (including the request
   in service) as a gauge plus a sim-tick series.  Direct: no event
   carries the queue depth. *)
let note_queue_depth t =
  if Hipec_metrics.Metrics.on () then begin
    let qd = queue_depth t in
    Hipec_metrics.Metrics.gauge_set "machine.disk.queue_depth" qd;
    Hipec_metrics.Metrics.sample "machine.disk.queue_depth.ts" qd
  end

let rec start t req =
  t.busy <- true;
  let finish d result =
    t.busy_time <- Sim_time.add t.busy_time d;
    (* direct: Disk_io carries no transfer time *)
    if Hipec_metrics.Metrics.on () then
      Hipec_metrics.Metrics.observe "machine.disk.transfer_ns" (Sim_time.to_ns d);
    ignore
      (Engine.schedule t.engine ~after:d (fun engine ->
           (match result with
           | Ok () ->
               if req.is_write then t.writes <- t.writes + 1
               else t.reads <- t.reads + 1
           | Error _ -> ());
           (* an async write's Disk_io lands at completion: Span reads
              an interval ending at one as [Laundry_wait] *)
           Hipec_trace.Trace.disk_io ~block:req.block ~nblocks:req.nblocks
             ~write:req.is_write ~ok:(Result.is_ok result);
           req.on_complete engine result;
           if Queue.is_empty t.queue then t.busy <- false
           else start t (Queue.take t.queue);
           note_queue_depth t))
  in
  match extent_error t ~block:req.block ~nblocks:req.nblocks with
  | Some err ->
      (* the controller rejects the request without moving the head;
         the error is delivered like any other completion *)
      finish t.params.controller_overhead (Error err)
  | None ->
      let d = service_time_unchecked t ~block:req.block ~nblocks:req.nblocks in
      let d = Sim_time.add d (spike_delay t) in
      finish d (fault_outcome t ~is_write:req.is_write ~block:req.block ~nblocks:req.nblocks)

let submit t req =
  if t.busy then Queue.add req t.queue else start t req;
  note_queue_depth t

let submit_read t ~block ~nblocks on_complete =
  submit t { block; nblocks; is_write = false; on_complete }

let submit_write t ~block ~nblocks on_complete =
  submit t { block; nblocks; is_write = true; on_complete }

(* The fault path's synchronous transfers: the duration goes to the
   caller's [charge] and the outcome is returned, with no tuple. *)
let sync_done ~charge ~is_write ~block ~nblocks d result =
  (* a sync transfer's Disk_io precedes the charge of [d]: Span
     attributes the interval starting at a read as [Disk_read] *)
  Hipec_trace.Trace.disk_io ~block ~nblocks ~write:is_write ~ok:(Result.is_ok result);
  (* direct: Disk_io carries no transfer time *)
  if Hipec_metrics.Metrics.on () then
    Hipec_metrics.Metrics.observe "machine.disk.transfer_ns" (Sim_time.to_ns d);
  charge d;
  result

let sync_transfer t ~charge ~is_write ~block ~nblocks =
  match extent_error t ~block ~nblocks with
  | Some err -> sync_done ~charge ~is_write ~block ~nblocks t.params.controller_overhead (Error err)
  | None ->
      let d = service_time_unchecked t ~block ~nblocks in
      let d = Sim_time.add d (spike_delay t) in
      sync_done ~charge ~is_write ~block ~nblocks d (fault_outcome t ~is_write ~block ~nblocks)

let sequential_transfer_time t ~nblocks =
  if nblocks <= 0 then invalid_arg "Disk: nblocks <= 0";
  Sim_time.mul t.params.transfer_per_block nblocks

let reads_completed t = t.reads
let synchronous_transfers t = t.sync_transfers
let writes_completed t = t.writes
let busy_time t = t.busy_time
let faults_injected t = t.faults_injected
let bad_block_hits t = t.bad_block_hits
let latency_spikes t = t.latency_spikes
