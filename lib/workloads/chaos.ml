open Hipec_sim
open Hipec_machine
open Hipec_vm
open Hipec_core

type config = {
  pages : int;
  runaway_pages : int;
  writer_pages : int;
  total_frames : int;
  seed : int;
  transient_rate : float;
  latency_spike_rate : float;
  bad_swap_blocks : int;
  audit_period : Sim_time.t;
}

let t3 =
  {
    pages = 10_240;
    runaway_pages = 64;
    writer_pages = 4_096;
    total_frames = 4_096;
    seed = 1;
    transient_rate = 0.01;
    latency_spike_rate = 0.005;
    bad_swap_blocks = 4;
    audit_period = Sim_time.ms 500;
  }

let smoke =
  {
    pages = 512;
    runaway_pages = 32;
    writer_pages = 1_024;
    total_frames = 768;
    seed = 1;
    transient_rate = 0.01;
    latency_spike_rate = 0.005;
    bad_swap_blocks = 2;
    audit_period = Sim_time.ms 100;
  }

type result = {
  elapsed : Sim_time.t;
  task_kills : int;
  demotions : int;
  demotion_reason : string option;
  io_errors : int;
  io_retries : int;
  io_giveups : int;
  swap_remaps : int;
  faults_injected : int;
  bad_block_hits : int;
  latency_spikes : int;
  audit_sweeps : int;
  audit_violations : int;
  first_violation : string option;
  kstat : string;
}

(* The chaos scenario: a T3-style specific application streaming a
   mapped file under its own FIFO-second-chance policy, a hostile
   application whose policy spins forever (the checker must demote it,
   not kill it), and a default-pool writer big enough to force the
   pageout daemon to launder to swap — all while the disk injects
   transient errors, latency spikes, and permanently bad swap blocks.
   The kernel auditor sweeps the whole time. *)
let run ?(faults = true) config =
  let kconfig =
    {
      Kernel.default_config with
      total_frames = config.total_frames;
      seed = config.seed;
      hipec_kernel = true;
    }
  in
  let kernel = Kernel.create ~config:kconfig () in
  let sys = Api.init kernel in
  let auditor = Audit.create ~period:config.audit_period kernel in
  let db_task = Kernel.create_task kernel ~name:"db" () in
  let runaway_task = Kernel.create_task kernel ~name:"runaway" () in
  let writer_task = Kernel.create_task kernel ~name:"writer" () in
  let db_region, _ =
    match
      Api.vm_map_hipec sys db_task ~name:"db-table" ~npages:config.pages
        (Api.default_spec
           ~policy:(Policies.fifo_second_chance ())
           ~min_frames:(max 64 (config.pages / 8)))
    with
    | Ok v -> v
    | Error e -> failwith ("Chaos.run: db region: " ^ e)
  in
  let runaway_region, runaway_container =
    match
      Api.vm_allocate_hipec sys runaway_task ~npages:config.runaway_pages
        (Api.default_spec ~policy:(Policies.looping ())
           ~min_frames:(config.runaway_pages + 8))
    with
    | Ok v -> v
    | Error e -> failwith ("Chaos.run: runaway region: " ^ e)
  in
  let writer_region = Kernel.vm_allocate kernel writer_task ~npages:config.writer_pages in
  (* Bad blocks live in the swap area: every file extent is already
     allocated, so the next extents the flat allocator hands out are the
     first swap slots laundering will write.  Marking those bad
     exercises the writer-side remap path while keeping every read
     extent clean — no task ever pages in from a bad block. *)
  (if faults then
     let probe = Kernel.alloc_disk_extent kernel ~npages:1 in
     let bad_blocks =
       List.init config.bad_swap_blocks (fun i ->
           probe + (Vm_object.blocks_per_page * (i + 1)))
     in
     Disk.set_faults (Kernel.disk kernel)
       {
         Disk.Faults.seed = config.seed + 1;
         transient_read_rate = config.transient_rate;
         transient_write_rate = config.transient_rate;
         latency_spike_rate = config.latency_spike_rate;
         latency_spike = Sim_time.ms 20;
         bad_blocks;
       });
  Frame_manager.watch (Api.manager sys) auditor;
  Audit.start auditor;
  let task_kills = ref 0 in
  (* a phase whose task already died (an exhausted-pagein kill at an
     extreme error rate) is skipped, not an error: the kill is already
     counted and the remaining tasks keep running *)
  let guard task f =
    if Task.alive task then
      try f () with Kernel.Task_terminated _ -> incr task_kills
  in
  let t0 = Kernel.now kernel in
  (* 1: the specific application streams its file in *)
  guard db_task (fun () -> Kernel.touch_region kernel db_task db_region ~write:false);
  (* 2: the hostile policy spins on its first fault; the security
     checker demotes the region and the touch completes under the
     default policy *)
  guard runaway_task (fun () ->
      Kernel.touch_region kernel runaway_task runaway_region ~write:true);
  (* 3: the default-pool writer forces laundering to (bad) swap *)
  guard writer_task (fun () ->
      Kernel.touch_region kernel writer_task writer_region ~write:true);
  (* 4: the specific application dirties its file; its policy flushes
     evicted pages through the retrying I/O path *)
  guard db_task (fun () -> Kernel.touch_region kernel db_task db_region ~write:true);
  (* 5: a second read pass over the (partly evicted) file *)
  guard db_task (fun () -> Kernel.touch_region kernel db_task db_region ~write:false);
  Kernel.drain_io kernel;
  let elapsed = Sim_time.sub (Kernel.now kernel) t0 in
  Audit.stop auditor;
  ignore (Audit.sweep auditor);
  let io = Kernel.io_stats kernel in
  let disk = Kernel.disk kernel in
  {
    elapsed;
    task_kills = !task_kills;
    demotions = (Frame_manager.stats (Api.manager sys)).Frame_manager.demotions;
    demotion_reason = Api.demotion_reason sys runaway_container;
    io_errors = io.Io_retry.io_errors;
    io_retries = io.Io_retry.io_retries;
    io_giveups = io.Io_retry.io_giveups;
    swap_remaps = io.Io_retry.swap_remaps;
    faults_injected = Disk.faults_injected disk;
    bad_block_hits = Disk.bad_block_hits disk;
    latency_spikes = Disk.latency_spikes disk;
    audit_sweeps = Audit.sweeps auditor;
    audit_violations = Audit.violations_found auditor;
    first_violation =
      Option.map (Format.asprintf "%a" Audit.pp_violation) (Audit.first_violation auditor);
    kstat = Kstat.to_string kernel;
  }

let degradation_percent ~clean ~faulty =
  let c = float_of_int (Sim_time.to_ns clean.elapsed) in
  let f = float_of_int (Sim_time.to_ns faulty.elapsed) in
  (f -. c) /. c *. 100.

let pp_result fmt r =
  Format.fprintf fmt
    "@[<v>elapsed          %a@,\
     task kills       %d@,\
     demotions        %d%s@,\
     paging I/O       %d errors, %d retries, %d giveups, %d swap remaps@,\
     fault injection  %d transients, %d bad-block hits, %d latency spikes@,\
     auditor          %d sweeps, %d violations%a@]"
    Sim_time.pp r.elapsed r.task_kills r.demotions
    (match r.demotion_reason with None -> "" | Some m -> " (" ^ m ^ ")")
    r.io_errors r.io_retries r.io_giveups r.swap_remaps r.faults_injected
    r.bad_block_hits r.latency_spikes r.audit_sweeps r.audit_violations
    (fun fmt -> Option.iter (Format.fprintf fmt "@,first violation  %s"))
    r.first_violation
