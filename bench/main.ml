(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (section 5), plus the ablations DESIGN.md calls
   out and Bechamel micro-benchmarks of the real (wall-clock) cost of
   the interpreter substrate.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe table3     -- one artifact
     dune exec bench/main.exe -- --quick -- reduced scale
     dune exec bench/main.exe -- --trace -- collect + summarize the event stream

   Simulated-time results reproduce the paper's numbers; Bechamel
   results measure this implementation itself. *)

open Hipec_workloads
open Hipec_core
open Hipec_vm
module T = Hipec_sim.Sim_time

let line () = print_endline (String.make 72 '-')

let header title =
  line ();
  Printf.printf "%s\n" title;
  line ()

(* ------------------------------------------------------------------ *)
(* Table 3: 40 MB page-fault sweep, Mach vs HiPEC                      *)
(* ------------------------------------------------------------------ *)

let table3 ~quick () =
  header "Table 3: page-fault handling time for 40 Mbytes (paper section 5.1)";
  let pages = if quick then 2_048 else 10_240 in
  Printf.printf "(%d pages = %d Mbytes%s)\n\n" pages (pages * 4096 / 1024 / 1024)
    (if quick then ", quick mode" else "");
  let run with_disk_io =
    let mach = Driver.table3_run ~pages Driver.Mach ~with_disk_io in
    let hipec = Driver.table3_run ~pages Driver.Hipec ~with_disk_io in
    let overhead = Driver.overhead_percent ~baseline:mach ~subject:hipec in
    Printf.printf "%s page fault, %s disk I/O operations\n"
      (if pages = 10_240 then "40 Mbytes" else Printf.sprintf "%d-page" pages)
      (if with_disk_io then "with" else "without");
    Printf.printf "  Running on Mach 3.0 Kernel   %10.1f msec\n" (T.to_ms_f mach.Driver.elapsed);
    Printf.printf "  Running on HiPEC mechanism   %10.1f msec\n" (T.to_ms_f hipec.Driver.elapsed);
    Printf.printf "  HiPEC Overhead               %10.3f %%\n" overhead;
    Printf.printf "  (paper: %s)\n\n"
      (if with_disk_io then "82485.5 vs 82505.6 msec, 0.024 %" else "4016.5 vs 4088.6 msec, 1.8 %")
  in
  run false;
  run true;
  (* the microscopic view: per-fault latency distribution *)
  Printf.printf "per-fault latency (with disk I/O), microseconds:\n";
  List.iter
    (fun kind ->
      let summary, histogram =
        Driver.fault_latency_profile ~pages:(min pages 2_048) kind ~with_disk_io:true
      in
      Printf.printf "  %-18s mean %7.0f  min %6.0f  max %7.0f  sd %6.0f\n"
        (Hipec_sim.Stats.Summary.name summary)
        (Hipec_sim.Stats.Summary.mean summary)
        (Hipec_sim.Stats.Summary.min summary)
        (Hipec_sim.Stats.Summary.max summary)
        (Hipec_sim.Stats.Summary.stddev summary);
      let counts = Hipec_sim.Stats.Histogram.bucket_counts histogram in
      Printf.printf "  %-18s [0..16ms in 1ms buckets] " "";
      Array.iter (fun c -> Printf.printf "%d " c) counts;
      Printf.printf "(+%d over)\n" (Hipec_sim.Stats.Histogram.overflow histogram))
    [ Driver.Mach; Driver.Hipec ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table 4: mechanism costs                                            *)
(* ------------------------------------------------------------------ *)

let table4 ~quick:_ () =
  header "Table 4: mechanism comparison (paper section 5.1)";
  let t4 = Driver.table4_run () in
  Printf.printf "  Null System Call                  %8.0f usec   (paper: 19 usec)\n"
    (T.to_us_f t4.Driver.null_syscall);
  Printf.printf "  Null IPC Call                     %8.0f usec   (paper: 292 usec)\n"
    (T.to_us_f t4.Driver.null_ipc);
  Printf.printf "  Simple HiPEC page fault overhead  %8.0f nsec   (paper: ~150 nsec)\n"
    (float_of_int (T.to_ns t4.Driver.hipec_fast_path));
  Printf.printf "  (fast path interpreted %d commands: Comp, DeQueue, Return)\n\n"
    t4.Driver.fast_path_commands

(* ------------------------------------------------------------------ *)
(* Figure 5: AIM throughput, Mach vs HiPEC kernel                      *)
(* ------------------------------------------------------------------ *)

let fig5 ~quick () =
  header "Figure 5: AIM-style system throughput on Mach vs HiPEC kernel";
  let users = if quick then [ 1; 2; 4; 6; 8; 10 ] else [ 1; 2; 3; 4; 5; 6; 7; 8; 10; 12; 15 ] in
  let duration = T.sec (if quick then 20 else 40) in
  List.iter
    (fun mix ->
      Printf.printf "workload mix: %s\n" (Aim.mix_name mix);
      Printf.printf "  %6s  %15s  %15s  %8s\n" "users" "Mach (jobs/min)" "HiPEC (jobs/min)"
        "delta";
      List.iter
        (fun n ->
          let cfg = { Aim.default_config with Aim.users = n; mix; duration } in
          let mach = Aim.run cfg in
          let hipec = Aim.run { cfg with Aim.hipec_kernel = true } in
          let delta =
            if mach.Aim.jobs_per_minute = 0. then 0.
            else
              (hipec.Aim.jobs_per_minute -. mach.Aim.jobs_per_minute)
              /. mach.Aim.jobs_per_minute *. 100.
          in
          Printf.printf "  %6d  %15.1f  %15.1f  %+7.2f%%\n" n mach.Aim.jobs_per_minute
            hipec.Aim.jobs_per_minute delta)
        users;
      print_newline ())
    [ Aim.Standard; Aim.Disk_heavy; Aim.Memory_heavy ];
  Printf.printf
    "(paper: the two kernels provide almost the same throughput under all\n\
    \ three mixes, with contention past ~5-6 simulated users)\n\n"

(* ------------------------------------------------------------------ *)
(* Figure 6: nested-loop join elapsed time, LRU vs HiPEC MRU           *)
(* ------------------------------------------------------------------ *)

let fig6 ~quick () =
  header "Figure 6: elapsed time (min) for the join operation (paper section 5.3)";
  let sizes = if quick then [ 20; 30; 40; 50; 60 ] else [ 20; 25; 30; 35; 40; 45; 50; 55; 60 ] in
  let scale_cfg outer_mb =
    let c = { Join.default_config with Join.outer_mb } in
    if quick then { c with Join.inner_bytes = 1024 } else c
  in
  Printf.printf "  inner table 4 KB (pinned), %d outer scans, MSize = 40 MB%s\n\n"
    (Join.loops (scale_cfg 20))
    (if quick then " [quick: 16 scans]" else "");
  Printf.printf "  %6s  %12s %10s  %12s %10s  %9s\n" "outer" "LRU-like" "(pred PF)" "HiPEC MRU"
    "(pred PF)" "speedup";
  (* measured faults must equal the analytic counts at every size; the
     gate prints nothing on success, so the table is unchanged *)
  let mismatches = ref [] in
  let check outer_mb name (r : Join.result) predicted =
    if r.Join.faults <> predicted then
      mismatches :=
        Printf.sprintf "%dMB %s: %d faults, predicted %d" outer_mb name r.Join.faults
          predicted
        :: !mismatches
  in
  List.iter
    (fun outer_mb ->
      let c = scale_cfg outer_mb in
      let lru = Join.run Join.Kernel_default c in
      let mru = Join.run Join.Hipec_mru c in
      check outer_mb "LRU-like" lru (Join.predicted_faults `Lru c);
      check outer_mb "HiPEC MRU" mru (Join.predicted_faults `Mru c);
      Printf.printf "  %4dMB  %9.1fmin %10d  %9.1fmin %10d  %8.2fx\n" outer_mb
        (T.to_min_f lru.Join.elapsed)
        (Join.predicted_faults `Lru c)
        (T.to_min_f mru.Join.elapsed)
        (Join.predicted_faults `Mru c)
        (T.to_sec_f lru.Join.elapsed /. T.to_sec_f mru.Join.elapsed))
    sizes;
  Printf.printf
    "\n(paper: a great response-time gap opens once the outer table exceeds\n\
    \ the 40 MB of managed memory; measured times match the analytic counts)\n\n";
  if !mismatches <> [] then
    failwith
      ("fig6: measured faults differ from the analytic counts: "
      ^ String.concat "; " (List.rev !mismatches))

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_burst ~quick () =
  header "Ablation: partition_burst watermark (DESIGN.md)";
  let frames = 2_048 in
  Printf.printf
    "  two greedy HiPEC applications (Request-driven growth) on a %d-frame machine\n\n"
    frames;
  Printf.printf "  %8s  %10s  %10s  %10s  %10s\n" "burst" "app1 held" "app2 held" "granted"
    "rejected";
  List.iter
    (fun fraction ->
      let config =
        { Kernel.default_config with Kernel.total_frames = frames; hipec_kernel = true }
      in
      let k = Kernel.create ~config () in
      let sys = Api.init ~burst_fraction:fraction k in
      let mk name =
        let task = Kernel.create_task k ~name () in
        match
          Api.vm_allocate_hipec sys task ~npages:1500
            (Api.default_spec
               ~policy:(Policies.greedy_request ~flavour:`Fifo ~chunk:32)
               ~min_frames:64)
        with
        | Ok (region, container) -> (task, region, container)
        | Error e -> failwith e
      in
      let task1, region1, c1 = mk "app1" in
      let task2, region2, c2 = mk "app2" in
      let npages = if quick then 400 else 1_200 in
      for i = 0 to npages - 1 do
        Kernel.access_vpn k task1 ~vpn:(region1.Vm_map.start_vpn + i) ~write:false;
        Kernel.access_vpn k task2 ~vpn:(region2.Vm_map.start_vpn + i) ~write:false
      done;
      let stats = Frame_manager.stats (Api.manager sys) in
      Printf.printf "  %7.0f%%  %10d  %10d  %10d  %10d\n" (fraction *. 100.)
        (Container.frames_held c1) (Container.frames_held c2)
        stats.Frame_manager.requests_granted stats.Frame_manager.requests_rejected)
    [ 0.25; 0.5; 0.75 ];
  Printf.printf
    "\n(higher watermarks let specific applications hold more of memory\n\
    \ before the manager pushes back)\n\n"

let ablation_checker ~quick () =
  header "Ablation: security-checker wakeup policy (adaptive vs slow fixed start)";
  let runs = if quick then 3 else 6 in
  Printf.printf
    "  %d runaway policies submitted back to back; demotion latency per strategy\n\n" runs;
  let strategies = [ ("adaptive from 1 s", T.sec 1); ("adaptive from 8 s", T.sec 8) ] in
  List.iter
    (fun (name, initial) ->
      let config = { Kernel.default_config with Kernel.hipec_kernel = true } in
      let k = Kernel.create ~config () in
      let sys =
        Api.init ~checker_timeout:(T.ms 10) ~checker_wakeup:initial ~max_steps:2_000 k
      in
      let checker = Api.checker sys in
      let total_latency = ref 0. in
      let scans0 = Checker.scans checker in
      for i = 1 to runs do
        let task = Kernel.create_task k ~name:(Printf.sprintf "bad-%d" i) () in
        match
          Api.vm_allocate_hipec sys task ~npages:8
            (Api.default_spec ~policy:(Policies.looping ()) ~min_frames:8)
        with
        | Error e -> failwith e
        | Ok (region, container) ->
            let t0 = Kernel.now k in
            (* the fault blocks until the checker demotes the region,
               then resolves under the default policy *)
            Kernel.access_vpn k task ~vpn:region.Vm_map.start_vpn ~write:false;
            assert (Container.degraded container);
            total_latency := !total_latency +. T.to_ms_f (T.sub (Kernel.now k) t0)
      done;
      Printf.printf "  %-20s  mean demotion latency %8.1f ms   wakeup now %s\n" name
        (!total_latency /. float_of_int runs)
        (Format.asprintf "%a" T.pp (Checker.wakeup_interval checker));
      ignore scans0)
    strategies;
  Printf.printf
    "\n(each detection halves the sleep interval, so even a slow-starting\n\
    \ checker converges to the 250 ms floor while abuse continues)\n\n"

(* ------------------------------------------------------------------ *)
(* Chaos: fault injection + graceful fallback acceptance                *)
(* ------------------------------------------------------------------ *)

let chaos ~quick () =
  header "Chaos: T3-scale run under disk fault injection (robustness acceptance)";
  let config = if quick then Chaos.smoke else Chaos.t3 in
  Printf.printf
    "  %d-page mapped file on a %d-frame machine, %.1f%% transient error rate,\n\
    \  %d bad swap blocks, one runaway policy%s\n\n"
    config.Chaos.pages config.Chaos.total_frames
    (config.Chaos.transient_rate *. 100.)
    config.Chaos.bad_swap_blocks
    (if quick then " [smoke scale]" else "");
  let clean = Chaos.run ~faults:false config in
  let timed config =
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let r = Chaos.run config in
    (r, Unix.gettimeofday () -. t0)
  in
  let faulty, on_s = timed config in
  (* the same run with the audit period past its end: one sweep, at the
     end *)
  let _, end_only_s = timed { config with Chaos.audit_period = T.sec 1_000_000 } in
  let again = Chaos.run config in
  Format.printf "%a@." Chaos.pp_result faulty;
  Printf.printf "\n%s\n" faulty.Chaos.kstat;
  Printf.printf "  clean-disk elapsed %.1f ms; degradation under faults %+.2f%%\n"
    (T.to_ms_f clean.Chaos.elapsed)
    (Chaos.degradation_percent ~clean ~faulty);
  let check cond msg = if not cond then failwith ("chaos acceptance: " ^ msg) in
  check (faulty.Chaos.task_kills = 0) "a task was killed";
  check (faulty.Chaos.demotions >= 1) "no demotion recorded";
  check (faulty.Chaos.audit_violations = 0) "auditor found invariant violations";
  check
    (faulty.Chaos.io_errors > 0 && faulty.Chaos.io_retries > 0)
    "fault/retry counters are zero";
  check
    (again.Chaos.kstat = faulty.Chaos.kstat && again.Chaos.elapsed = faulty.Chaos.elapsed)
    "same seed did not reproduce the same run";
  Printf.printf
    "  acceptance: zero task kills, %d demotion(s), auditor clean over %d sweeps,\n\
    \  counters deterministic per seed\n"
    faulty.Chaos.demotions faulty.Chaos.audit_sweeps;
  Printf.printf
    "  auditor cost (informational, not gated): %.3f s with the %.0f ms daemon, %.3f s\n\
    \  sweeping only at the end, ratio %.2f\n\n"
    on_s
    (T.to_ms_f config.Chaos.audit_period)
    end_only_s (on_s /. end_only_s)

let ablation_interp ~quick () =
  header "Ablation: complex vs simple commands (paper section 4.2)";
  let pages = if quick then 1_024 else 4_096 in
  Printf.printf
    "  same FIFO-family replacement, one complex command vs the Table 2 program\n\n";
  let run name policy =
    let config =
      { Kernel.default_config with Kernel.total_frames = 16_384; hipec_kernel = true }
    in
    let k = Kernel.create ~config () in
    let sys = Api.init k in
    let task = Kernel.create_task k () in
    match
      Api.vm_allocate_hipec sys task ~npages:pages
        (Api.default_spec ~policy ~min_frames:(pages / 4))
    with
    | Error e -> failwith e
    | Ok (region, container) ->
        let t0 = Kernel.now k in
        for _ = 1 to 2 do
          Kernel.touch_region k task region ~write:false
        done;
        let elapsed = T.to_ms_f (T.sub (Kernel.now k) t0) in
        Printf.printf "  %-28s  %10.2f ms   %8d commands interpreted\n" name elapsed
          (Container.commands_interpreted container)
  in
  run "complex (FIFO command)" (Policies.fifo ());
  run "simple (Table 2 program)" (Policies.fifo_second_chance ());
  Printf.printf
    "\n(the paper: \"the more complex a command is, the less overhead it\n\
    \ creates\" -- fewer fetch+decode cycles for the same policy)\n\n"

let fig5_mixed ~quick () =
  header "Beyond Figure 5: specific vs non-specific users sharing one machine";
  Printf.printf
    "  memory-heavy mix; K of N users manage their own frames through HiPEC\n\
    \  (minFrame = working set); the paper only measured K = 0\n\n";
  let users = 10 in
  let duration = T.sec (if quick then 15 else 40) in
  Printf.printf "  %9s  %14s  %14s  %12s\n" "specific" "their jobs/min"
    "others jobs/min" "total";
  List.iter
    (fun specific_users ->
      let cfg =
        {
          Aim.default_config with
          Aim.users;
          mix = Aim.Memory_heavy;
          duration;
          hipec_kernel = true;
          specific_users;
        }
      in
      let r = Aim.run cfg in
      let minutes = T.to_min_f duration in
      let specific_rate =
        if specific_users = 0 then 0.
        else float_of_int r.Aim.specific_jobs_completed /. float_of_int specific_users
             /. minutes
      in
      let others = users - specific_users in
      let other_rate =
        if others = 0 then 0.
        else
          float_of_int (r.Aim.jobs_completed - r.Aim.specific_jobs_completed)
          /. float_of_int others /. minutes
      in
      Printf.printf "  %6d/%-2d  %14.1f  %14.1f  %12.1f\n" specific_users users
        specific_rate other_rate r.Aim.jobs_per_minute)
    [ 0; 1; 2; 3; 4 ];
  Printf.printf
    "\n(a guaranteed private frame list shields a specific application from\n\
    \ its neighbours' paging -- the isolation argument of the paper's\n\
    \ section 3, measured)\n\n"

let ablation_readahead ~quick () =
  header "Ablation: clustered pagein (readahead) on the default pool";
  let pages = if quick then 512 else 2_048 in
  Printf.printf "  one sequential pass over a %d-page mapped file per cluster size\n\n" pages;
  Printf.printf "  %10s  %12s  %10s  %12s\n" "cluster" "elapsed" "hard" "prefetched";
  List.iter
    (fun readahead ->
      let config = { Kernel.default_config with Kernel.total_frames = 16_384; readahead } in
      let k = Kernel.create ~config () in
      let task = Kernel.create_task k () in
      let region = Kernel.vm_map_file k task ~npages:pages () in
      let t0 = Kernel.now k in
      Kernel.touch_region k task region ~write:false;
      Printf.printf "  %10d  %10.1fms  %10d  %12d\n" (readahead + 1)
        (T.to_ms_f (T.sub (Kernel.now k) t0))
        (Task.pageins task)
        (Kernel.stats k).Kernel.prefetched_pages)
    [ 0; 1; 3; 7; 15 ];
  Printf.printf
    "\n(each hard fault still pays seek+rotation; clustered neighbours ride\n\
    \ along for transfer cost only -- the gain the Mach default pager left\n\
    \ on the table in Table 3's with-I/O rows)\n\n"

let mechanism ~quick () =
  header "Mechanism sweep: in-kernel interpretation vs upcall vs IPC pager";
  Printf.printf
    "  identical FIFO replacement and fault workload; only the control-transfer\n\
    \  mechanism differs (sections 2-3 of the paper, Table 4 end-to-end)\n\n";
  let c =
    if quick then { Mechanism.default_config with Mechanism.passes = 2 }
    else Mechanism.default_config
  in
  Printf.printf "  %d pages, %d private frames, %d passes\n\n" c.Mechanism.pages
    c.Mechanism.frames c.Mechanism.passes;
  Printf.printf "  %-34s %12s %10s %14s\n" "mechanism" "elapsed" "faults" "crossing time";
  let base = ref None in
  List.iter
    (fun m ->
      let r = Mechanism.run m c in
      let slowdown =
        match !base with
        | None ->
            base := Some (T.to_ns r.Mechanism.elapsed);
            ""
        | Some b ->
            Printf.sprintf " (%.2fx)" (float_of_int (T.to_ns r.Mechanism.elapsed) /. float_of_int b)
      in
      Printf.printf "  %-34s %10.2fms %10d %12.2fms%s\n"
        (Mechanism.mechanism_name m)
        (T.to_ms_f r.Mechanism.elapsed)
        r.Mechanism.faults
        (T.to_ms_f r.Mechanism.crossing_time)
        slowdown)
    [ Mechanism.Hipec_interpreted; Mechanism.Upcall; Mechanism.Ipc_pager ];
  Printf.printf
    "\n(the interpreted policy pays nanoseconds per decision where upcalls pay\n\
    \ two system-call crossings and an external pager two IPC round trips)\n\n"

(* ------------------------------------------------------------------ *)
(* Backend regression: interpreter vs compiled executor                *)
(* ------------------------------------------------------------------ *)

module Tr = Hipec_trace.Trace
module Ev = Hipec_trace.Event

(* A policy-heavy PageFault handler: a counted arithmetic loop in front
   of the standard take, so per-command fetch/decode overhead dominates
   the run — the cost the compiled backend exists to remove.  The loop
   body is three arith commands, the last dividing by a never-written
   operand. *)
let spin_x = Operand.Std.first_user
let spin_limit = Operand.Std.first_user + 1
let spin_zero = Operand.Std.first_user + 2
let spin_acc = Operand.Std.first_user + 3
let spin_div = Operand.Std.first_user + 4 (* never written: stays 7 *)

let spin_program () =
  let open Program.Asm in
  let code =
    match
      assemble
        [
          Op (Instr.Arith (spin_x, spin_zero, Opcode.Arith_op.Mul)); (* x := 0 *)
          Label "spin";
          Op (Instr.Arith (spin_x, spin_x, Opcode.Arith_op.Inc));
          Op (Instr.Arith (spin_acc, spin_x, Opcode.Arith_op.Add));
          Op (Instr.Arith (spin_acc, spin_div, Opcode.Arith_op.Div));
          Op (Instr.Comp (spin_x, spin_limit, Opcode.Comp_op.Lt));
          Jump_to "take";
          Jump_to "spin";
          Label "take";
          Op (Instr.Emptyq Operand.Std.free_queue);
          Jump_to "grab";
          Op (Instr.Fifo Operand.Std.active_queue);
          Jump_to "grab";
          Label "grab";
          Op (Instr.Dequeue (Operand.Std.page_reg, Operand.Std.free_queue, Opcode.Queue_end.Head));
          Op (Instr.Return Operand.Std.page_reg);
        ]
    with
    | Ok code -> code
    | Error e -> failwith e
  in
  Program.make
    [
      (Events.page_fault, code);
      (Events.reclaim_frame, [| Instr.Return Operand.Std.null |]);
    ]

type backend_measure = {
  wall_ns : float;
  commands : int;
  faults : int;
  digest : string;
  events : int;
}

let commands_per_sec m =
  if m.wall_ns <= 0. then 0. else float_of_int m.commands /. (m.wall_ns /. 1e9)

(* one spin-heavy run: cyclic scan over npages > frames, so every
   access faults and runs the arithmetic loop *)
let drive_spin ~spin ~frames ~npages ~loops () =
  let config =
    { Kernel.default_config with Kernel.total_frames = 4 * frames; hipec_kernel = true }
  in
  let k = Kernel.create ~config () in
  let sys = Api.init ~start_checker:false k in
  let task = Kernel.create_task k () in
  let spec =
    {
      (Api.default_spec ~policy:(spin_program ()) ~min_frames:frames) with
      Api.extra_operands =
        [
          (spin_x, Operand.Int (ref 0));
          (spin_limit, Operand.Int (ref spin));
          (spin_zero, Operand.Int (ref 0));
          (spin_acc, Operand.Int (ref 0));
          (spin_div, Operand.Int (ref 7));
        ];
    }
  in
  match Api.vm_allocate_hipec sys task ~npages spec with
  | Error e -> failwith ("spin-heavy: " ^ e)
  | Ok (region, container) ->
      for _ = 1 to loops do
        for i = 0 to npages - 1 do
          Kernel.access_vpn k task ~vpn:(region.Vm_map.start_vpn + i) ~write:false
        done
      done;
      Kernel.drain_io k;
      Container.commands_interpreted container

let measure_spin backend ~quick =
  let spin = 100 in
  let frames = 128 and npages = 256 in
  let loops = if quick then 8 else 24 in
  Executor.with_backend backend (fun () ->
      (* timed, untraced: pure executor speed *)
      let t0 = Unix.gettimeofday () in
      let commands = drive_spin ~spin ~frames ~npages ~loops () in
      let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
      (* traced (streaming digest): the observable-equivalence check *)
      let c = Tr.start ~store:false () in
      ignore (drive_spin ~spin ~frames ~npages ~loops ());
      ignore (Tr.stop ());
      let counts = Tr.counts c in
      {
        wall_ns;
        commands;
        faults =
          counts.(Ev.tag (Ev.Fault { task = 0; vpn = 0; kind = Ev.Hipec; latency_ns = 0 }));
        digest = Tr.digest_hex (Tr.digest c);
        events = Tr.events_seen c;
      })

let measure_scenario backend name =
  let scenario =
    match Trace_run.scenario_of_name name with
    | Some s -> s
    | None -> failwith ("unknown scenario " ^ name)
  in
  Executor.with_backend backend (fun () ->
      let t0 = Unix.gettimeofday () in
      match Trace_run.record scenario with
      | Error e -> failwith (name ^ ": " ^ e)
      | Ok r ->
          let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
          let commands = ref 0 and faults = ref 0 in
          Array.iter
            (fun ev ->
              match ev.Ev.payload with
              | Ev.Policy_run { commands = c; _ } -> commands := !commands + c
              | Ev.Fault _ -> incr faults
              | _ -> ())
            r.Tr.Recorded.events;
          {
            wall_ns;
            commands = !commands;
            faults = !faults;
            digest = Tr.digest_hex r.Tr.Recorded.digest;
            events = Array.length r.Tr.Recorded.events;
          })

let json_of_measure m =
  Printf.sprintf
    "{ \"wall_ns\": %.0f, \"commands\": %d, \"commands_per_sec\": %.0f, \"faults\": %d, \
     \"events\": %d, \"digest\": \"%s\" }"
    m.wall_ns m.commands (commands_per_sec m) m.faults m.events m.digest

(* Paired timing, the estimator every timed gate uses.  The two sides
   run [pairs] times in one process in the order A B, B A, A B, ... so
   drift in the host lands on both alike, each run after a [Gc.compact]
   so neither pays for the other's garbage.  A gate reads the median of
   the per-pair ratios and prints their interquartile range. *)
let interleave ~pairs run_a run_b =
  let once f =
    Gc.compact ();
    f ()
  in
  List.init pairs (fun i ->
      if i mod 2 = 0 then
        let a = once run_a in
        let b = once run_b in
        (a, b)
      else
        let b = once run_b in
        let a = once run_a in
        (a, b))

(* Median and interquartile range, by linear interpolation between
   order statistics. *)
let median_iqr xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let q p =
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  in
  (q 0.5, q 0.75 -. q 0.25)

let gate_pairs ~quick = if quick then 7 else 11

(* Executor-attributed measurement.  Whole-scenario wall conflates the
   executor with minidb and the disk simulation — on join-small the
   executor is a sliver of the run, so the whole-wall ratio is mostly
   noise.  The per-opcode profiler (PR 4) attributes wall time to the
   executor itself; both backends pay the same boundary-timer overhead,
   so the ratio is apples-to-apples at the layer the backends differ. *)
module Mp = Hipec_metrics.Metrics

type exec_measure = {
  exec_wall_ns : int;
  exec_sim_ns : int;
  exec_runs : int;
  per_opcode : (string * int * int * int) list;
      (* (opcode, count, sim_ns, wall_ns); "(overhead)" row first *)
}

let exec_once backend drive =
  Executor.with_backend backend (fun () ->
      let reg = Mp.install () in
      drive ();
      ignore (Mp.uninstall ());
      match
        Mp.Registry.profile_totals reg ~backend:(Executor.backend_name backend)
      with
      | None ->
          failwith
            (Printf.sprintf "no executor profile for backend %s"
               (Executor.backend_name backend))
      | Some (cells, overhead, runs) ->
          let wall = ref overhead.Mp.Profile.wall_ns
          and sim = ref overhead.Mp.Profile.sim_ns in
          Array.iter
            (fun c ->
              wall := !wall + c.Mp.Profile.wall_ns;
              sim := !sim + c.Mp.Profile.sim_ns)
            cells;
          (!wall, !sim, runs, cells, overhead))

let finish_exec (wall, sim, runs, cells, overhead) =
  let rows = ref [] in
  for i = Array.length cells - 1 downto 0 do
    let c = cells.(i) in
    if c.Mp.Profile.count > 0 then begin
      let name =
        match Opcode.of_code i with
        | Some op -> Opcode.name op
        | None -> Printf.sprintf "op%d" i
      in
      rows :=
        (name, c.Mp.Profile.count, c.Mp.Profile.sim_ns, c.Mp.Profile.wall_ns)
        :: !rows
    end
  done;
  let per_opcode =
    ("(overhead)", runs, overhead.Mp.Profile.sim_ns, overhead.Mp.Profile.wall_ns)
    :: !rows
  in
  { exec_wall_ns = wall; exec_sim_ns = sim; exec_runs = runs; per_opcode }

(* The executor-attributed wall of each backend, in interleaved pairs;
   per backend, the run with the median wall is the one reported. *)
let measure_exec_pairs ~pairs drive =
  let runs =
    interleave ~pairs
      (fun () -> exec_once Executor.Interp drive)
      (fun () -> exec_once Executor.Compiled drive)
  in
  let wall_of (w, _, _, _, _) = w in
  let median_run side =
    let sorted = List.sort (fun a b -> compare (wall_of a) (wall_of b)) (List.map side runs) in
    finish_exec (List.nth sorted (List.length sorted / 2))
  in
  let ratios =
    List.map
      (fun (i, c) -> float_of_int (wall_of i) /. float_of_int (max 1 (wall_of c)))
      runs
  in
  (median_run fst, median_run snd, median_iqr ratios)

let json_of_exec e =
  let rows =
    String.concat ",\n"
      (List.map
         (fun (name, count, sim, wall) ->
           Printf.sprintf
             "          { \"opcode\": \"%s\", \"count\": %d, \"sim_ns\": %d, \
              \"wall_ns\": %d }"
             name count sim wall)
         e.per_opcode)
  in
  Printf.sprintf
    "{ \"exec_wall_ns\": %d, \"exec_sim_ns\": %d, \"runs\": %d,\n\
     \        \"per_opcode\": [\n%s\n        ] }"
    e.exec_wall_ns e.exec_sim_ns e.exec_runs rows

let backend_bench ~quick () =
  header "Backend: interpreter vs compile-once executor (BENCH_7.json)";
  let pairs = gate_pairs ~quick in
  let spin_drive () =
    ignore (drive_spin ~spin:100 ~frames:128 ~npages:256 ~loops:(if quick then 8 else 24) ())
  in
  let scenario_drive name () =
    let scenario =
      match Trace_run.scenario_of_name name with
      | Some s -> s
      | None -> failwith ("unknown scenario " ^ name)
    in
    match Trace_run.run_scenario scenario with
    | Ok () -> ()
    | Error e -> failwith (name ^ ": " ^ e)
  in
  let scenarios =
    [
      ("spin-heavy", (fun b -> measure_spin b ~quick), spin_drive);
      ("join-small", (fun b -> measure_scenario b "join-small"), scenario_drive "join-small");
      ("aim-small", (fun b -> measure_scenario b "aim-small"), scenario_drive "aim-small");
    ]
  in
  Printf.printf
    "  (speedups: median of %d interleaved interp/compiled pairs, IQR below)\n" pairs;
  Printf.printf "  %-12s %-9s %12s %14s %13s %8s  %s\n" "scenario" "backend" "wall (ms)"
    "commands/sec" "exec (ms)" "faults" "digest";
  let rows =
    List.map
      (fun (name, measure, drive) ->
        let mi = measure Executor.Interp in
        let mc = measure Executor.Compiled in
        let ei, ec, (exec_speedup, exec_iqr) = measure_exec_pairs ~pairs drive in
        (* whole-run wall in interleaved pairs: the backends run the same
           commands, so the wall ratio is the commands/sec speedup *)
        let wall_on backend () =
          Executor.with_backend backend (fun () ->
              let t0 = Unix.gettimeofday () in
              drive ();
              Unix.gettimeofday () -. t0)
        in
        let speedup, speedup_iqr =
          median_iqr
            (List.map
               (fun (wi, wc) -> wi /. Float.max wc 1e-9)
               (interleave ~pairs (wall_on Executor.Interp) (wall_on Executor.Compiled)))
        in
        List.iter
          (fun (bname, m, e) ->
            Printf.printf "  %-12s %-9s %12.2f %14.0f %13.2f %8d  %s\n" name bname
              (m.wall_ns /. 1e6) (commands_per_sec m)
              (float_of_int e.exec_wall_ns /. 1e6)
              m.faults m.digest)
          [ ("interp", mi, ei); ("compiled", mc, ec) ];
        let digest_match = mi.digest = mc.digest && mi.events = mc.events in
        Printf.printf "  %-12s %-9s %12s %13.2fx %12.2fx %8s  digest %s\n" "" "speedup"
          "" speedup exec_speedup ""
          (if digest_match then "MATCH" else "MISMATCH");
        Printf.printf "  %-12s %-9s %12s %13.2f  %12.2f  %8s\n" "" "IQR" "" speedup_iqr
          exec_iqr "";
        if not digest_match then
          failwith (Printf.sprintf "backend digests diverged on %s" name);
        (name, mi, mc, speedup, digest_match, ei, ec, exec_speedup))
      scenarios
  in
  (* Per-opcode attribution: where the executor wall went, per backend. *)
  List.iter
    (fun (name, _, _, _, _, ei, ec, _) ->
      Printf.printf "\n  %s per-opcode executor wall (median of %d runs):\n" name pairs;
      Printf.printf "    %-12s %10s %12s %12s %12s\n" "opcode" "count" "interp(us)"
        "compiled(us)" "sim(us)";
      let wall_of e n =
        match List.find_opt (fun (o, _, _, _) -> o = n) e.per_opcode with
        | Some (_, _, _, w) -> Some w
        | None -> None
      in
      List.iter
        (fun (opcode, count, sim, wi) ->
          let wc = Option.value (wall_of ec opcode) ~default:0 in
          Printf.printf "    %-12s %10d %12.1f %12.1f %12.1f\n" opcode count
            (float_of_int wi /. 1e3) (float_of_int wc /. 1e3)
            (float_of_int sim /. 1e3))
        ei.per_opcode)
    rows;
  let path = "BENCH_7.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc
        "{\n  \"bench\": \"backend\",\n  \"quick\": %b,\n  \"scenarios\": [\n"
        quick;
      List.iteri
        (fun i (name, mi, mc, speedup, digest_match, ei, ec, exec_speedup) ->
          Printf.fprintf oc
            "    { \"name\": \"%s\",\n      \"interp\": %s,\n      \"compiled\": %s,\n\
            \      \"interp_exec\": %s,\n      \"compiled_exec\": %s,\n\
            \      \"speedup_commands_per_sec\": %.3f,\n\
            \      \"speedup_executor_wall\": %.3f,\n      \"digest_match\": %b }%s\n"
            name (json_of_measure mi) (json_of_measure mc) (json_of_exec ei)
            (json_of_exec ec) speedup exec_speedup digest_match
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ]\n}\n");
  Printf.printf "\n  wrote %s\n" path;
  (* Regression gate (CI fails with us): compiled must win at the
     executor-attributed layer on every golden scenario, and spin-heavy
     — a pure-executor scenario — must hold the headline whole-wall
     speedup. *)
  let failures = ref [] in
  List.iter
    (fun (name, _, _, speedup, _, _, _, exec_speedup) ->
      if exec_speedup < 1.0 then
        failures :=
          Printf.sprintf "%s: executor-attributed speedup %.3fx < 1.0x" name
            exec_speedup
          :: !failures;
      if name = "spin-heavy" && speedup < 1.5 then
        failures :=
          Printf.sprintf "spin-heavy: whole-scenario speedup %.2fx < 1.5x" speedup
          :: !failures)
    rows;
  (match !failures with
  | [] -> Printf.printf "  regression gate: PASS\n\n"
  | fs ->
      List.iter (fun f -> Printf.printf "  regression gate: FAIL %s\n" f) fs;
      failwith "backend bench regression gate failed");
  ()

(* ------------------------------------------------------------------ *)
(* Metrics: per-scenario latency percentile tables (BENCH_4.json)      *)
(* ------------------------------------------------------------------ *)

module Mx = Hipec_metrics.Metrics
module St = Hipec_sim.Stats

(* Every scenario runs once under a fresh metrics registry; the
   percentile tables come straight out of the log-bucketed latency
   histograms the kernel's emit sites populate. *)
let metrics_bench ~quick:_ () =
  header "Metrics: fault-service latency percentiles per scenario (BENCH_4.json)";
  let scenarios = [ "policy"; "join-small"; "aim-small"; "chaos-smoke" ] in
  let rows =
    List.map
      (fun name ->
        let scenario =
          match Trace_run.scenario_of_name name with
          | Some s -> s
          | None -> failwith ("unknown scenario " ^ name)
        in
        let reg = Mx.install () in
        let result =
          Fun.protect
            ~finally:(fun () -> ignore (Mx.uninstall ()))
            (fun () -> Trace_run.run_scenario scenario)
        in
        (match result with Ok () -> () | Error e -> failwith (name ^ ": " ^ e));
        (name, reg))
      scenarios
  in
  let pct h p = int_of_float (St.Histogram.percentile h p) in
  List.iter
    (fun (name, reg) ->
      Printf.printf "\n  %s (%d faults)\n" name
        (Option.value (Mx.Registry.counter_value reg "vm.fault.count") ~default:0);
      Printf.printf "    %-26s %8s %12s %12s %12s %12s\n" "latency histogram (ns)" "n" "p50"
        "p90" "p99" "max";
      List.iter
        (fun (hname, h) ->
          if St.Histogram.count h > 0 then
            Printf.printf "    %-26s %8d %12d %12d %12d %12d\n" hname (St.Histogram.count h)
              (pct h 50.) (pct h 90.) (pct h 99.)
              (int_of_float (St.Histogram.max h)))
        (Mx.Registry.histogram_list reg))
    rows;
  let path = "BENCH_4.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "{\n  \"bench\": \"metrics\",\n  \"scenarios\": [\n";
      List.iteri
        (fun i (name, reg) ->
          Printf.fprintf oc "    { \"name\": \"%s\",\n      \"faults\": %d,\n      \"latency_ns\": {" name
            (Option.value (Mx.Registry.counter_value reg "vm.fault.count") ~default:0);
          let first = ref true in
          List.iter
            (fun (hname, h) ->
              if St.Histogram.count h > 0 then begin
                if not !first then Printf.fprintf oc ",";
                first := false;
                Printf.fprintf oc
                  "\n        \"%s\": { \"count\": %d, \"p50\": %d, \"p90\": %d, \"p99\": %d, \
                   \"max\": %d }"
                  hname (St.Histogram.count h) (pct h 50.) (pct h 90.) (pct h 99.)
                  (int_of_float (St.Histogram.max h))
              end)
            (Mx.Registry.histogram_list reg);
          Printf.fprintf oc "\n      } }%s\n" (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ]\n}\n");
  Printf.printf "\n  wrote %s\n\n" path

(* ------------------------------------------------------------------ *)
(* Storm: multi-tenant overload protection (BENCH_5.json)              *)
(* ------------------------------------------------------------------ *)

let storm_bench ~quick () =
  header "Storm: multi-tenant overload protection and isolation (BENCH_5.json)";
  (* digest checks only make sense when each run owns its collector; an
     outer --trace collector makes the digests cumulative *)
  let own_digests = not (Hipec_trace.Trace.on ()) in
  let scales =
    if quick then [ Storm.smoke ] else [ Storm.smoke; Storm.full ]
  in
  Printf.printf "  %-8s %-10s %12s %14s %14s %10s %10s  %s\n" "tenants" "variant"
    "faults/sec" "honest p99 ns" "isolation" "throttles" "seizures" "digest";
  let rows =
    List.map
      (fun config ->
        let timed f =
          let t0 = Unix.gettimeofday () in
          let r = f () in
          (r, (Unix.gettimeofday () -. t0) *. 1e9)
        in
        let run_on b config = Executor.with_backend b (fun () -> Storm.run config) in
        let r1, wall_ns = timed (fun () -> run_on Executor.Interp config) in
        let r2 = run_on Executor.Interp config in
        let rc = run_on Executor.Compiled config in
        let baseline =
          run_on Executor.Interp { config with Storm.greedy_every = 0; erring_every = 0 }
        in
        let digest_stable = (not own_digests) || r1.Storm.digest = r2.Storm.digest in
        let backend_match = (not own_digests) || r1.Storm.digest = rc.Storm.digest in
        (* honest tail latency relative to the greedy-free control run:
           the isolation ratio the storm suite bounds at 3x *)
        let isolation_ratio =
          if baseline.Storm.honest_p99_ns > 0 then
            float_of_int r1.Storm.honest_p99_ns
            /. float_of_int baseline.Storm.honest_p99_ns
          else 0.
        in
        List.iter
          (fun (variant, (r : Storm.result)) ->
            Printf.printf "  %-8d %-10s %12.0f %14d %13.2fx %10d %10d  %s\n"
              r.Storm.tenants variant r.Storm.faults_per_sec r.Storm.honest_p99_ns
              (if variant = "storm" then isolation_ratio else 1.0)
              r.Storm.throttles_entered r.Storm.emergency_seizures r.Storm.digest)
          [ ("storm", r1); ("baseline", baseline) ];
        if own_digests then
          Printf.printf "  %-8s %-10s digest %s across runs, %s across backends\n" ""
            ""
            (if digest_stable then "STABLE" else "UNSTABLE")
            (if backend_match then "MATCH" else "MISMATCH");
        Printf.printf "  %-8s %-10s slo: %d tracked, %d over budget, %d violations%s\n" ""
          "" r1.Storm.slo_tracked r1.Storm.slo_over_budget r1.Storm.slo_violations
          (match r1.Storm.slo_worst with
          | [] -> ""
          | o :: _ ->
              Printf.sprintf "; worst t%04d (%s) burn %.2fx" o.Storm.o_index
                (Storm.kind_name o.Storm.o_kind) o.Storm.o_burn);
        if not digest_stable then
          failwith
            (Printf.sprintf "storm digest unstable across runs at %d tenants"
               config.Storm.tenants);
        if not backend_match then
          failwith
            (Printf.sprintf "storm digest diverged across backends at %d tenants"
               config.Storm.tenants);
        (config, r1, baseline, isolation_ratio, digest_stable, backend_match, wall_ns))
      scales
  in
  let json_of_offender (o : Storm.offender) =
    Printf.sprintf
      "{ \"tenant\": %d, \"kind\": \"%s\", \"samples\": %d, \"violations\": %d, \
       \"burn\": %.3f, \"worst_ns\": %d }"
      o.Storm.o_index
      (Storm.kind_name o.Storm.o_kind)
      o.Storm.o_samples o.Storm.o_violations o.Storm.o_burn o.Storm.o_worst_ns
  in
  let path = "BENCH_5.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "{\n  \"bench\": \"storm\",\n  \"quick\": %b,\n  \"scales\": [\n"
        quick;
      List.iteri
        (fun i
             ( (config : Storm.config),
               (r : Storm.result),
               (b : Storm.result),
               ratio,
               stable,
               bmatch,
               wall_ns ) ->
          Printf.fprintf oc
            "    { \"tenants\": %d,\n\
            \      \"admitted\": %d, \"shed\": %d, \"honest_alive\": %d,\n\
            \      \"faults\": %d, \"faults_per_sec\": %.0f, \"wall_ns\": %.0f,\n\
            \      \"honest_p50_ns\": %d, \"honest_p99_ns\": %d, \"greedy_p99_ns\": %d,\n\
            \      \"baseline_honest_p99_ns\": %d, \"isolation_ratio\": %.3f,\n\
            \      \"slo_ns\": %d, \"slo_budget\": %.3f, \"slo_tracked\": %d,\n\
            \      \"slo_over_budget\": %d, \"slo_violations\": %d,\n\
            \      \"slo_worst\": [%s],\n\
            \      \"throttles_entered\": %d, \"throttles_exited\": %d,\n\
            \      \"emergency_seizures\": %d, \"emergency_frames\": %d,\n\
            \      \"admissions_rejected\": %d, \"demotions\": %d,\n\
            \      \"pressure_changes\": %d, \"peak_level\": \"%s\",\n\
            \      \"audit_violations\": %d, \"conservation_ok\": %b,\n\
            \      \"digest\": \"%s\", \"digest_stable\": %b, \"backend_match\": %b }%s\n"
            config.Storm.tenants r.Storm.admitted r.Storm.shed r.Storm.honest_alive
            r.Storm.total_faults r.Storm.faults_per_sec wall_ns r.Storm.honest_p50_ns
            r.Storm.honest_p99_ns r.Storm.greedy_p99_ns b.Storm.honest_p99_ns ratio
            r.Storm.slo_ns r.Storm.slo_budget r.Storm.slo_tracked r.Storm.slo_over_budget
            r.Storm.slo_violations
            (String.concat ", " (List.map json_of_offender r.Storm.slo_worst))
            r.Storm.throttles_entered r.Storm.throttles_exited r.Storm.emergency_seizures
            r.Storm.emergency_frames r.Storm.admissions_rejected r.Storm.demotions
            r.Storm.pressure_changes r.Storm.peak_level r.Storm.audit_violations
            r.Storm.conservation_ok r.Storm.digest stable bmatch
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ]\n}\n");
  Printf.printf "\n  wrote %s\n\n" path

(* ------------------------------------------------------------------ *)
(* Adversary: anomaly-witness search throughput and gate (BENCH_6.json)*)
(* ------------------------------------------------------------------ *)

let adversary_bench ~quick () =
  header "Adversary: Belady-anomaly witness search and the adaptive gate (BENCH_6.json)";
  let cfg = if quick then Adversary.smoke else Adversary.default in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let rate o wall =
    if wall > 0. then float_of_int o.Adversary.o_traces_scored /. wall else 0.
  in
  (* the attacked policy must fall, and the witness must confirm *)
  let o_fifo, wall_fifo = timed (fun () -> Adversary.search cfg) in
  let w =
    match o_fifo.Adversary.o_witness with
    | Some w -> w
    | None -> failwith "adversary bench: the search no longer finds a FIFO witness"
  in
  let c =
    match Adversary.confirm w with
    | Ok c -> c
    | Error e -> failwith ("adversary bench: confirmation failed: " ^ e)
  in
  if not (Adversary.confirmed c) then
    failwith "adversary bench: FIFO witness failed end-to-end confirmation";
  (* ...and the adaptive policy must stand at the same budget *)
  let o_ad, wall_ad =
    timed (fun () -> Adversary.search { cfg with Adversary.policy = "adaptive" })
  in
  if o_ad.Adversary.o_witness <> None then
    failwith "adversary bench: the adaptive policy fell to the search";
  Printf.printf "  %-10s %8s %10s %12s %8s %8s  %s\n" "policy" "traces" "traces/s"
    "best gap" "f(lo)" "f(hi)" "verdict";
  Printf.printf "  %-10s %8d %10.0f %12d %8d %8d  witness confirmed (ratio %.3f)\n"
    "fifo" o_fifo.Adversary.o_traces_scored (rate o_fifo wall_fifo)
    o_fifo.Adversary.o_best_gap w.Adversary.w_faults_lo w.Adversary.w_faults_hi
    (Adversary.anomaly_ratio w);
  Printf.printf "  %-10s %8d %10.0f %12d %8s %8s  resists the same budget\n" "adaptive"
    o_ad.Adversary.o_traces_scored (rate o_ad wall_ad) o_ad.Adversary.o_best_gap "-" "-";
  let digest_hex r = Hipec_trace.Trace.digest_hex r.Adversary.x_digest in
  let path = "BENCH_6.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc
        "{\n  \"bench\": \"adversary\",\n  \"quick\": %b,\n\
        \  \"config\": { \"seed\": %d, \"frames_lo\": %d, \"frames_hi\": %d,\n\
        \    \"pages\": %d, \"length\": %d, \"random_rounds\": %d, \"mutation_rounds\": %d },\n"
        quick cfg.Adversary.seed cfg.Adversary.frames_lo cfg.Adversary.frames_hi
        cfg.Adversary.npages cfg.Adversary.length cfg.Adversary.random_rounds
        cfg.Adversary.mutation_rounds;
      Printf.fprintf oc
        "  \"fifo\": {\n\
        \    \"traces_scored\": %d, \"wall_ns\": %.0f, \"traces_per_sec\": %.0f,\n\
        \    \"best_gap\": %d,\n\
        \    \"witness\": {\n\
        \      \"accesses\": \"%s\",\n\
        \      \"faults_lo\": %d, \"faults_hi\": %d, \"anomaly_ratio\": %.4f,\n\
        \      \"digest_lo\": \"%s\", \"digest_hi\": \"%s\",\n\
        \      \"backend_match\": %b, \"oracle_match\": %b, \"confirmed\": %b\n\
        \    }\n  },\n"
        o_fifo.Adversary.o_traces_scored (wall_fifo *. 1e9) (rate o_fifo wall_fifo)
        o_fifo.Adversary.o_best_gap
        (Format.asprintf "%a" Adversary.pp_accesses w.Adversary.w_accesses)
        w.Adversary.w_faults_lo w.Adversary.w_faults_hi (Adversary.anomaly_ratio w)
        (digest_hex c.Adversary.c_lo.Adversary.cl_interp)
        (digest_hex c.Adversary.c_hi.Adversary.cl_interp)
        (Adversary.backends_agree c) (Adversary.matches_oracle c) (Adversary.confirmed c);
      Printf.fprintf oc
        "  \"adaptive\": {\n\
        \    \"traces_scored\": %d, \"wall_ns\": %.0f, \"traces_per_sec\": %.0f,\n\
        \    \"best_gap\": %d, \"witness_found\": %b\n  }\n}\n"
        o_ad.Adversary.o_traces_scored (wall_ad *. 1e9) (rate o_ad wall_ad)
        o_ad.Adversary.o_best_gap
        (o_ad.Adversary.o_witness <> None));
  Printf.printf "\n  wrote %s\n\n" path

(* ------------------------------------------------------------------ *)
(* Spans: fault-lifecycle reconstruction overhead (BENCH_8.json)       *)
(* ------------------------------------------------------------------ *)

module Sp = Hipec_trace.Span

(* Two gates on the span layer.  First, attaching the online span
   builder must not perturb the simulation at all: the traced event
   stream (digest and count) with the consumer attached must be
   bit-identical to the stream without it.  Second, the wall-clock cost
   of building spans online must stay under 10% of the trace-only run.
   Repeats are interleaved so allocator/GC drift lands on both variants
   alike, and each variant keeps its fastest repeat. *)
let spans_bench ~quick () =
  header "Spans: fault-lifecycle reconstruction overhead (BENCH_8.json)";
  let pairs = gate_pairs ~quick in
  let scenarios = [ "policy"; "chaos-smoke"; "storm-smoke" ] in
  Printf.printf "  (medians of %d interleaved trace-only / +spans pairs)\n" pairs;
  Printf.printf "  %-12s %12s %12s %10s %8s  %s\n" "scenario" "trace (ms)" "+spans (ms)"
    "overhead" "faults" "span digest";
  let rows =
    List.map
      (fun name ->
        let scenario =
          match Trace_run.scenario_of_name name with
          | Some s -> s
          | None -> failwith ("unknown scenario " ^ name)
        in
        let once ~with_spans () =
          let b = if with_spans then Some (Sp.create ()) else None in
          let t0 = Unix.gettimeofday () in
          let c = Tr.start ~store:false () in
          (match b with Some b -> Tr.set_consumer (Some (Sp.feed b)) | None -> ());
          let result = Trace_run.run_scenario scenario in
          ignore (Tr.stop ());
          let wall = (Unix.gettimeofday () -. t0) *. 1e9 in
          (match result with Ok () -> () | Error e -> failwith (name ^ ": " ^ e));
          (wall, Tr.digest_hex (Tr.digest c), Tr.events_seen c, b)
        in
        let runs = interleave ~pairs (once ~with_spans:false) (once ~with_spans:true) in
        let wall (w, _, _, _) = w in
        let w_off, _ = median_iqr (List.map (fun (off, _) -> wall off) runs) in
        let w_on, _ = median_iqr (List.map (fun (_, on) -> wall on) runs) in
        let overhead, _ =
          median_iqr
            (List.map (fun (off, on) -> (wall on -. wall off) /. wall off *. 100.) runs)
        in
        (* the span consumer must not perturb the traced stream, in any
           pair *)
        let stream_identical =
          List.for_all
            (fun ((_, d_off, ev_off, _), (_, d_on, ev_on, _)) -> d_off = d_on && ev_off = ev_on)
            runs
        in
        let b =
          match runs with
          | (_, (_, _, _, Some b)) :: _ -> b
          | _ -> failwith "spans bench: no span builder"
        in
        let span_digest = Sp.digest b in
        (* the cross-backend witness: same spans, bit for bit *)
        let _, _, _, bc =
          Executor.with_backend Executor.Compiled (fun () -> once ~with_spans:true ())
        in
        let backend_match = Int64.equal span_digest (Sp.digest (Option.get bc)) in
        let agg = Sp.Agg.compute (Sp.spans b) in
        Printf.printf "  %-12s %12.2f %12.2f %9.2f%% %8d  %016Lx %s\n" name
          (w_off /. 1e6) (w_on /. 1e6) overhead (Sp.fault_count b) span_digest
          (if backend_match then "MATCH" else "MISMATCH");
        ( (name, w_off, w_on, overhead, stream_identical, backend_match, span_digest, agg,
           Sp.fault_count b),
          List.map (fun (off, on) -> (wall off, wall on)) runs ))
      scenarios
  in
  (* whole-run overhead per pair: pair k's trace-only walls summed over
     the scenarios against its with-spans walls *)
  let per_pair = List.map snd rows in
  let rows = List.map fst rows in
  let whole =
    List.init pairs (fun k ->
        let off = List.fold_left (fun acc walls -> acc +. fst (List.nth walls k)) 0. per_pair in
        let on = List.fold_left (fun acc walls -> acc +. snd (List.nth walls k)) 0. per_pair in
        (off, on))
  in
  let total_overhead, total_iqr =
    median_iqr (List.map (fun (off, on) -> (on -. off) /. off *. 100.) whole)
  in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. rows in
  let total_off = sum (fun (_, w, _, _, _, _, _, _, _) -> w) in
  let total_on = sum (fun (_, _, w, _, _, _, _, _, _) -> w) in
  let path = "BENCH_8.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "{\n  \"bench\": \"spans\",\n  \"quick\": %b,\n  \"scenarios\": [\n"
        quick;
      List.iteri
        (fun i (name, w_off, w_on, overhead, stream_identical, backend_match, sd, agg, faults) ->
          let seg_rows =
            String.concat ",\n"
              (List.map
                 (fun (r : Sp.Agg.row) ->
                   Printf.sprintf
                     "        { \"kind\": \"%s\", \"total_ns\": %d, \"faults\": %d, \
                      \"p50_ns\": %d, \"p90_ns\": %d, \"p99_ns\": %d }"
                     (Sp.segment_kind_name r.Sp.Agg.kind)
                     r.Sp.Agg.total_ns r.Sp.Agg.faults_touched r.Sp.Agg.p50_ns
                     r.Sp.Agg.p90_ns r.Sp.Agg.p99_ns)
                 agg.Sp.Agg.rows)
          in
          Printf.fprintf oc
            "    { \"name\": \"%s\", \"faults\": %d,\n\
            \      \"wall_trace_only_ns\": %.0f, \"wall_with_spans_ns\": %.0f,\n\
            \      \"overhead_percent\": %.3f,\n\
            \      \"stream_identical\": %b, \"span_digest\": \"%016Lx\", \
             \"backend_match\": %b,\n\
            \      \"total_latency_ns\": %d, \"lat_p99_ns\": %d,\n\
            \      \"segments\": [\n%s\n      ] }%s\n"
            name faults w_off w_on overhead stream_identical sd backend_match
            agg.Sp.Agg.total_latency_ns agg.Sp.Agg.lat_p99_ns seg_rows
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc
        "  ],\n\
        \  \"whole_run_trace_only_ns\": %.0f, \"whole_run_with_spans_ns\": %.0f,\n\
        \  \"whole_run_overhead_percent\": %.3f, \"whole_run_overhead_iqr\": %.3f,\n\
        \  \"pairs\": %d\n}\n"
        total_off total_on total_overhead total_iqr pairs);
  Printf.printf "\n  wrote %s\n" path;
  (* The regression gate CI fails with.  Stream identity and backend
     agreement are per scenario; the 10% wall bound is over the whole
     run (all scenarios) — the policy micro-scenario is nearly pure
     event emission with almost no simulated work behind it, so any
     proportional per-event cost is a large share of its tiny wall. *)
  let failures = ref [] in
  List.iter
    (fun (name, _, _, _, stream_identical, backend_match, _, _, _) ->
      if not stream_identical then
        failures :=
          Printf.sprintf "%s: span consumer perturbed the traced event stream" name
          :: !failures;
      if not backend_match then
        failures :=
          Printf.sprintf "%s: span digests diverged across backends" name :: !failures)
    rows;
  Printf.printf
    "  whole-run overhead: %.2f%% median of %d pairs, IQR %.2f (medians %.2f ms -> %.2f ms)\n"
    total_overhead pairs total_iqr (total_off /. 1e6) (total_on /. 1e6);
  if total_overhead >= 10.0 then
    failures :=
      Printf.sprintf "online span building costs %.2f%% >= 10%% of the whole run"
        total_overhead
      :: !failures;
  (match !failures with
  | [] -> Printf.printf "  regression gate: PASS\n\n"
  | fs ->
      List.iter (fun f -> Printf.printf "  regression gate: FAIL %s\n" f) fs;
      failwith "spans bench regression gate failed")

(* ------------------------------------------------------------------ *)
(* Bechamel: wall-clock micro-benchmarks of this implementation        *)
(* ------------------------------------------------------------------ *)

let bechamel ~quick () =
  header "Bechamel: wall-clock micro-benchmarks of the substrate itself";
  let open Bechamel in
  let open Toolkit in
  let word =
    Instr.encode
      (Instr.Comp (Operand.Std.free_count, Operand.Std.reserved_target, Opcode.Comp_op.Gt))
  in
  let t_decode =
    Test.make ~name:"instr-decode" (Staged.stage (fun () -> ignore (Instr.decode word)))
  in
  let t_encode =
    Test.make ~name:"instr-encode"
      (Staged.stage (fun () ->
           ignore
             (Instr.encode
                (Instr.Comp
                   (Operand.Std.free_count, Operand.Std.reserved_target, Opcode.Comp_op.Gt)))))
  in
  (* the full executor fast path on a live container *)
  let config = { Kernel.default_config with Kernel.hipec_kernel = true } in
  let k = Kernel.create ~config () in
  let sys = Api.init ~start_checker:false k in
  let task = Kernel.create_task k () in
  let container =
    match
      Api.vm_allocate_hipec sys task ~npages:16
        (Api.default_spec ~policy:(Policies.fifo_second_chance ()) ~min_frames:4_096)
    with
    | Ok (_, c) -> c
    | Error e -> failwith e
  in
  let manager = Api.manager sys in
  let t_fast_path =
    Test.make ~name:"executor-fast-path"
      (Staged.stage (fun () ->
           match Frame_manager.page_fault manager container ~fault_va:0 with
           | Ok page ->
               (* hand the slot straight back so the bench is steady state *)
               Page_queue.enqueue_head (Container.free_queue container) page
           | Error e -> failwith e))
  in
  let tbl = Hipec_machine.Frame.Table.create ~total:4 in
  let q = Page_queue.create "bench" in
  let page = Vm_page.create ~frame:(Option.get (Hipec_machine.Frame.Table.alloc tbl)) in
  let t_queue =
    Test.make ~name:"page-queue-cycle"
      (Staged.stage (fun () ->
           Page_queue.enqueue_tail q page;
           ignore (Page_queue.dequeue_head q)))
  in
  let tests = [ t_decode; t_encode; t_fast_path; t_queue ] in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.25 else 1.0))
      ~kde:(Some 1000) ()
  in
  let instances = Instance.[ monotonic_clock ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysis =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-24s %12.1f ns/op\n" name est
          | Some _ | None -> Printf.printf "  %-24s (no estimate)\n" name)
        analysis)
    tests;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let all_benches =
  [
    ("table3", table3);
    ("table4", table4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig5-mixed", fig5_mixed);
    ("ablation-burst", ablation_burst);
    ("ablation-checker", ablation_checker);
    ("ablation-interp", ablation_interp);
    ("ablation-readahead", ablation_readahead);
    ("mechanism", mechanism);
    ("chaos", chaos);
    ("storm", storm_bench);
    ("adversary", adversary_bench);
    ("spans", spans_bench);
    ("backend", backend_bench);
    ("metrics", metrics_bench);
    ("bechamel", bechamel);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args || List.mem "--smoke" args in
  let trace = List.mem "--trace" args in
  (* --metrics: run the percentile-table bench (BENCH_4.json) after the
     selected benches, whatever they are *)
  let metrics = List.mem "--metrics" args in
  let selected =
    List.filter
      (fun a ->
        a <> "--quick" && a <> "--smoke" && a <> "--trace" && a <> "--metrics" && a <> "--")
      args
  in
  let to_run =
    match selected with
    | [] -> all_benches
    | names ->
        List.map
          (fun name ->
            match List.assoc_opt name all_benches with
            | Some f -> (name, f)
            | None ->
                Printf.eprintf "unknown bench %S; available: %s\n" name
                  (String.concat ", " (List.map fst all_benches));
                exit 2)
          names
  in
  (* --trace: collect the structured event stream across every selected
     bench and report the per-category totals and stream digest at the
     end — the cheap way to see what a figure actually exercised. *)
  let to_run =
    if metrics && not (List.exists (fun (n, _) -> n = "metrics") to_run) then
      to_run @ [ ("metrics", metrics_bench) ]
    else to_run
  in
  let collector = if trace then Some (Hipec_trace.Trace.start ()) else None in
  List.iter (fun (_, f) -> f ~quick ()) to_run;
  match collector with
  | None -> ()
  | Some c ->
      ignore (Hipec_trace.Trace.stop ());
      header "Trace collector summary (--trace)";
      Format.printf "%a@." Hipec_trace.Trace.pp_summary c
