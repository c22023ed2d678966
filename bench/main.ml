(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (section 5), plus the ablations DESIGN.md calls
   out and the gated benches that time this implementation.

     dune exec bench/main.exe                   -- everything
     dune exec bench/main.exe table3            -- one artifact
     dune exec bench/main.exe -- --quick        -- reduced scale
     dune exec bench/main.exe -- --trace        -- collect + summarize the event stream
     dune exec bench/main.exe -- compare OLD NEW -- diff two bench result files

   Simulated-time results reproduce the paper's numbers.  The gated
   benches (chaos, storm, adversary, spans, backend, metrics) write
   their results to BENCH_<bench>.json in one schema (see [write]) and
   exit nonzero when a check fails. *)

open Hipec_workloads
open Hipec_core
open Hipec_vm
module T = Hipec_sim.Sim_time
module Tr = Hipec_trace.Trace
module Ev = Hipec_trace.Event

let line () = print_endline (String.make 72 '-')

let header title =
  line ();
  Printf.printf "%s\n" title;
  line ()

(* ------------------------------------------------------------------ *)
(* One clock, one schema, one writer, one gate                         *)
(* ------------------------------------------------------------------ *)

(* The wall-clock ns of one call, on the clock the executor profiler
   and hostbench read. *)
let timed f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0))

(* [n] timed runs of [f], each after a [Gc.compact] so none pays for
   another's garbage: their results and their walls. *)
let sampled n f =
  List.split
    (List.init n (fun _ ->
         Gc.compact ();
         timed f))

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

(* Repeats of the chaos and storm timed rows: five give a spread that is
   an interquartile range, where two gave half the gap of two
   readings. *)
let timed_repeats = 5

(* run one of [Trace_run]'s named scenarios, failing on any error *)
let run_named name =
  match Option.map Trace_run.run_scenario (Trace_run.scenario_of_name name) with
  | Some (Ok ()) -> ()
  | Some (Error e) -> failwith (name ^ ": " ^ e)
  | None -> failwith ("unknown scenario " ^ name)

(* Every gated bench reports rows and checks, written to
   BENCH_<bench>.json:

     {bench, quick,
      rows:   [{scenario, measure, value, unit, repeats, spread, better?}],
      checks: [{name, ok, detail}]}

   A simulated row is deterministic: one repeat, spread 0, no [better].
   A timed row is the median of its repeats, [spread] is their
   interquartile range, and [better] ("lower" or "higher") says which
   way is good.  Digests, witnesses and pass/fail facts are checks,
   their text in [detail]; a check that records a text only is always
   ok. *)
type row = {
  scenario : string;
  measure : string;
  value : float;
  unit : string;
  repeats : int;
  spread : float;
  better : string option;
}

type check = { name : string; ok : bool; detail : string }

let sim ?(unit = "count") scenario measure value =
  { scenario; measure; value; unit; repeats = 1; spread = 0.; better = None }

let timed_row ?(unit = "ns") ?(better = "lower") scenario measure samples =
  let value, spread = median_iqr samples in
  { scenario; measure; value; unit; repeats = List.length samples; spread; better = Some better }

let check name ok detail = { name; ok; detail }

(* the row a printed table reads back *)
let find rows measure = List.find (fun r -> r.measure = measure) rows

let json_number v = Printf.sprintf "%.15g" v

(* One row or check per line, so two files diff line by line.  Strings
   are OCaml literals, which are JSON strings for the printable ASCII
   every name and detail here is made of. *)
let write ~bench ~quick rows checks =
  let path = Printf.sprintf "BENCH_%s.json" bench in
  let row r =
    Printf.sprintf
      "{\"scenario\": %S, \"measure\": %S, \"value\": %s, \"unit\": %S, \"repeats\": %d, \
       \"spread\": %s%s}"
      r.scenario r.measure (json_number r.value) r.unit r.repeats (json_number r.spread)
      (Option.fold ~none:"" ~some:(Printf.sprintf ", \"better\": %S") r.better)
  and check c = Printf.sprintf "{\"name\": %S, \"ok\": %b, \"detail\": %S}" c.name c.ok c.detail in
  let list f xs = String.concat ",\n    " (List.map f xs) in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "{\"bench\": %S, \"quick\": %b,\n \"rows\": [\n    %s\n ],\n" bench quick
        (list row rows);
      Printf.fprintf oc " \"checks\": [\n    %s\n ]}\n" (list check checks));
  path

(* The regression gate every bench shares: name each failing check,
   then exit nonzero if there was one. *)
let gate ~bench checks =
  let failed = List.filter (fun c -> not c.ok) checks in
  List.iter (fun c -> Printf.printf "  FAIL %s (%s)\n" c.name c.detail) failed;
  Printf.printf "  %s regression gate: %s\n\n" bench (if failed = [] then "PASS" else "FAIL");
  if failed <> [] then exit 1

let report ~bench ~quick rows checks =
  Printf.printf "\n  wrote %s\n" (write ~bench ~quick rows checks);
  gate ~bench checks

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
  (* repeated, so the second run can show the seed reproduces the first *)
  let runs, on_walls = sampled timed_repeats (fun () -> Chaos.run config) in
  let faulty = List.hd runs and again = List.nth runs 1 in
  (* the same run with the audit period past its end: one sweep, at the
     end *)
  let _, end_walls =
    sampled timed_repeats (fun () ->
        Chaos.run { config with Chaos.audit_period = T.sec 1_000_000 })
  in
  Format.printf "%a@." Chaos.pp_result faulty;
  Printf.printf "\n%s\n" faulty.Chaos.kstat;
  let degradation = Chaos.degradation_percent ~clean ~faulty in
  Printf.printf "  clean-disk elapsed %.1f ms; degradation under faults %+.2f%%\n"
    (T.to_ms_f clean.Chaos.elapsed) degradation;
  let sc = if quick then "chaos-smoke" else "chaos-t3" in
  let count m v = sim sc m (float v) in
  let on = timed_row sc "audit_daemon.wall_ns" on_walls
  and end_only = timed_row sc "audit_end_only.wall_ns" end_walls in
  let rows =
    [
      sim ~unit:"ns" sc "elapsed_ns" (float (T.to_ns faulty.Chaos.elapsed));
      sim ~unit:"ns" sc "clean.elapsed_ns" (float (T.to_ns clean.Chaos.elapsed));
      sim ~unit:"%" sc "degradation_percent" degradation;
      count "task_kills" faulty.Chaos.task_kills;
      count "demotions" faulty.Chaos.demotions;
      count "io_errors" faulty.Chaos.io_errors;
      count "io_retries" faulty.Chaos.io_retries;
      count "audit_sweeps" faulty.Chaos.audit_sweeps;
      count "audit_violations" faulty.Chaos.audit_violations;
      on;
      end_only;
    ]
  in
  let checks =
    [
      check (sc ^ ": no task killed") (faulty.Chaos.task_kills = 0)
        (Printf.sprintf "%d killed" faulty.Chaos.task_kills);
      check (sc ^ ": a demotion recorded") (faulty.Chaos.demotions >= 1)
        (Printf.sprintf "%d demotions" faulty.Chaos.demotions);
      check (sc ^ ": auditor clean") (faulty.Chaos.audit_violations = 0)
        (Printf.sprintf "%d violations over %d sweeps" faulty.Chaos.audit_violations
           faulty.Chaos.audit_sweeps);
      check (sc ^ ": fault and retry counters nonzero")
        (faulty.Chaos.io_errors > 0 && faulty.Chaos.io_retries > 0)
        (Printf.sprintf "%d errors, %d retries" faulty.Chaos.io_errors faulty.Chaos.io_retries);
      check (sc ^ ": the same seed reproduces the run")
        (again.Chaos.kstat = faulty.Chaos.kstat && again.Chaos.elapsed = faulty.Chaos.elapsed)
        "";
    ]
  in
  Printf.printf
    "  auditor cost (informational, not gated): %.3f s with the %.0f ms daemon, %.3f s\n\
    \  sweeping only at the end, ratio %.2f\n"
    (on.value /. 1e9)
    (T.to_ms_f config.Chaos.audit_period)
    (end_only.value /. 1e9) (on.value /. end_only.value);
  report ~bench:"chaos" ~quick rows checks

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

(* One spin-heavy run: a cyclic scan over 256 pages through 128 frames,
   so every access faults and runs the 100-round arithmetic loop. *)
let drive_spin ~quick () =
  let frames = 128 and npages = 256 in
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
          (spin_limit, Operand.Int (ref 100));
          (spin_zero, Operand.Int (ref 0));
          (spin_acc, Operand.Int (ref 0));
          (spin_div, Operand.Int (ref 7));
        ];
    }
  in
  match Api.vm_allocate_hipec sys task ~npages spec with
  | Error e -> failwith ("spin-heavy: " ^ e)
  | Ok (region, _) ->
      for _ = 1 to if quick then 8 else 24 do
        for i = 0 to npages - 1 do
          Kernel.access_vpn k task ~vpn:(region.Vm_map.start_vpn + i) ~write:false
        done
      done;
      Kernel.drain_io k

(* What one traced, untimed run shows; the backends must agree on all
   of it. *)
type observed = { faults : int; digest : string; events : int }

let observe drive backend =
  Executor.with_backend backend (fun () ->
      let c = Tr.start ~store:false () in
      drive ();
      ignore (Tr.stop ());
      {
        faults =
          (Tr.counts c).(Ev.tag (Ev.Fault { task = 0; vpn = 0; kind = Ev.Hipec; latency_ns = 0 }));
        digest = Tr.digest_hex (Tr.digest c);
        events = Tr.events_seen c;
      })

(* Executor-attributed measurement.  Whole-scenario wall conflates the
   executor with minidb and the disk simulation — on join-small the
   executor is a sliver of the run, so the whole-wall ratio is mostly
   noise.  The per-opcode profiler attributes wall time to the executor
   itself; both backends pay the same boundary-timer overhead, so the
   ratio is apples-to-apples at the layer the backends differ.  One
   profiled run gives (opcode, count, sim_ns, wall_ns) cells, the
   "(overhead)" cell first; they sum to the executor's totals. *)
module Mp = Hipec_metrics.Metrics

let exec_cells backend drive =
  Executor.with_backend backend (fun () ->
      let reg = Mp.install () in
      drive ();
      ignore (Mp.uninstall ());
      match Mp.Registry.profile_totals reg ~backend:(Executor.backend_name backend) with
      | None ->
          failwith
            (Printf.sprintf "no executor profile for backend %s" (Executor.backend_name backend))
      | Some (cells, overhead, runs) ->
          let cell i c =
            let name =
              Option.fold ~none:(Printf.sprintf "op%d" i) ~some:Opcode.name (Opcode.of_code i)
            in
            if c.Mp.Profile.count = 0 then None
            else Some (name, c.Mp.Profile.count, c.Mp.Profile.sim_ns, c.Mp.Profile.wall_ns)
          in
          ("(overhead)", runs, overhead.Mp.Profile.sim_ns, overhead.Mp.Profile.wall_ns)
          :: List.filter_map Fun.id (List.mapi cell (Array.to_list cells)))

let total f cells = List.fold_left (fun acc cell -> acc + f cell) 0 cells
let exec_wall cells = float (total (fun (_, _, _, w) -> w) cells)

(* One backend's rows for one scenario: what it observed, its whole-run
   and executor walls over the pairs, and its per-opcode table.  The
   opcode counts sum to the commands the run interpreted. *)
let backend_rows scenario side (o : observed) walls cell_runs =
  let cells = List.hd cell_runs in
  let commands = float (total (fun (_, n, _, _) -> n) (List.tl cells)) in
  let wall_of op cells =
    let _, _, _, w = List.find (fun (name, _, _, _) -> name = op) cells in
    float w
  in
  [
    sim scenario (side ^ ".commands") commands;
    sim scenario (side ^ ".faults") (float o.faults);
    sim scenario (side ^ ".events") (float o.events);
    timed_row scenario (side ^ ".wall_ns") walls;
    timed_row ~unit:"1/s" ~better:"higher" scenario (side ^ ".commands_per_sec")
      (List.map (fun w -> commands /. (w /. 1e9)) walls);
    timed_row scenario (side ^ ".exec.wall_ns") (List.map exec_wall cell_runs);
    sim ~unit:"ns" scenario (side ^ ".exec.sim_ns") (float (total (fun (_, _, s, _) -> s) cells));
  ]
  @ List.concat_map
      (fun (op, count, sim_ns, _) ->
        let m = side ^ ".exec." ^ op in
        [
          sim scenario (m ^ ".count") (float count);
          sim ~unit:"ns" scenario (m ^ ".sim_ns") (float sim_ns);
          timed_row scenario (m ^ ".wall_ns") (List.map (wall_of op) cell_runs);
        ])
      cells

let backend_bench ~quick () =
  header "Backend: interpreter vs compile-once executor (BENCH_backend.json)";
  let pairs = gate_pairs ~quick in
  let scenarios =
    [
      ("spin-heavy", drive_spin ~quick, Some 1.5);
      ("join-small", (fun () -> run_named "join-small"), None);
      ("aim-small", (fun () -> run_named "aim-small"), None);
    ]
  in
  Printf.printf
    "  (walls and speedups: medians of %d interleaved interp/compiled pairs, IQR below)\n"
    pairs;
  Printf.printf "  %-12s %-9s %12s %14s %13s %8s  %s\n" "scenario" "backend" "wall (ms)"
    "commands/sec" "exec (ms)" "faults" "digest";
  let results =
    List.map
      (fun (name, drive, whole_run_floor) ->
        let oi = observe drive Executor.Interp in
        let oc = observe drive Executor.Compiled in
        let exec_runs =
          interleave ~pairs
            (fun () -> exec_cells Executor.Interp drive)
            (fun () -> exec_cells Executor.Compiled drive)
        in
        (* whole-run wall in interleaved pairs: the backends run the same
           commands, so the wall ratio is the commands/sec speedup *)
        let wall_on backend () = snd (timed (fun () -> Executor.with_backend backend drive)) in
        let walls = interleave ~pairs (wall_on Executor.Interp) (wall_on Executor.Compiled) in
        let ratios runs f = List.map (fun (i, c) -> f i /. Float.max (f c) 1.) runs in
        let rows =
          backend_rows name "interp" oi (List.map fst walls) (List.map fst exec_runs)
          @ backend_rows name "compiled" oc (List.map snd walls) (List.map snd exec_runs)
          @ [
              timed_row ~unit:"x" ~better:"higher" name "speedup.commands_per_sec"
                (ratios walls Fun.id);
              timed_row ~unit:"x" ~better:"higher" name "speedup.executor_wall"
                (ratios exec_runs exec_wall);
            ]
        in
        let row = find rows in
        List.iter
          (fun (side, o) ->
            Printf.printf "  %-12s %-9s %12.2f %14.0f %13.2f %8d  %s\n" name side
              ((row (side ^ ".wall_ns")).value /. 1e6)
              (row (side ^ ".commands_per_sec")).value
              ((row (side ^ ".exec.wall_ns")).value /. 1e6)
              o.faults o.digest)
          [ ("interp", oi); ("compiled", oc) ];
        let speedup = row "speedup.commands_per_sec" and exec = row "speedup.executor_wall" in
        let digest_match = oi.digest = oc.digest && oi.events = oc.events in
        Printf.printf "  %-12s %-9s %12s %13.2fx %12.2fx %8s  digest %s\n" "" "speedup" ""
          speedup.value exec.value ""
          (if digest_match then "MATCH" else "MISMATCH");
        Printf.printf "  %-12s %-9s %12s %13.2f  %12.2f  %8s\n" "" "IQR" "" speedup.spread
          exec.spread "";
        (* The regression gate: compiled must win at the executor-
           attributed layer on every scenario, and spin-heavy — a
           pure-executor scenario — must hold the headline whole-run
           speedup. *)
        let checks =
          [
            check (name ^ ": digests match across backends") digest_match
              (Printf.sprintf "interp %s (%d events), compiled %s (%d events)" oi.digest
                 oi.events oc.digest oc.events);
            check
              (name ^ ": executor-attributed speedup >= 1.0x")
              (exec.value >= 1.0)
              (Printf.sprintf "%.3fx" exec.value);
          ]
          @ Option.fold whole_run_floor ~none:[] ~some:(fun floor ->
                [ check (Printf.sprintf "%s: whole-run speedup >= %.1fx" name floor)
                    (speedup.value >= floor) (Printf.sprintf "%.2fx" speedup.value) ])
        in
        (name, List.hd exec_runs |> fst, rows, checks))
      scenarios
  in
  (* Per-opcode attribution: where the executor wall went, per backend. *)
  List.iter
    (fun (name, cells, rows, _) ->
      Printf.printf "\n  %s per-opcode executor wall (median of %d runs):\n" name pairs;
      Printf.printf "    %-12s %10s %12s %12s %12s\n" "opcode" "count" "interp(us)"
        "compiled(us)" "sim(us)";
      let wall side op = (find rows (side ^ ".exec." ^ op ^ ".wall_ns")).value in
      List.iter
        (fun (op, count, sim_ns, _) ->
          Printf.printf "    %-12s %10d %12.1f %12.1f %12.1f\n" op count
            (wall "interp" op /. 1e3) (wall "compiled" op /. 1e3) (float sim_ns /. 1e3))
        cells)
    results;
  report ~bench:"backend" ~quick
    (List.concat_map (fun (_, _, rows, _) -> rows) results)
    (List.concat_map (fun (_, _, _, checks) -> checks) results)

(* ------------------------------------------------------------------ *)
(* Metrics: per-scenario latency percentile tables                     *)
(* ------------------------------------------------------------------ *)

module St = Hipec_sim.Stats

(* Every scenario runs once under a fresh metrics registry; the
   percentile tables come straight out of the log-bucketed latency
   histograms the kernel's emit sites populate. *)
let metrics_bench ~quick () =
  header "Metrics: fault-service latency percentiles per scenario (BENCH_metrics.json)";
  let scenario name =
    let reg = Mp.install () in
    Fun.protect ~finally:(fun () -> ignore (Mp.uninstall ())) (fun () -> run_named name);
    let faults = Option.value (Mp.Registry.counter_value reg "vm.fault.count") ~default:0 in
    Printf.printf "\n  %s (%d faults)\n" name faults;
    Printf.printf "    %-26s %8s %12s %12s %12s %12s\n" "latency histogram (ns)" "n" "p50" "p90"
      "p99" "max";
    sim name "faults" (float faults)
    :: List.concat_map
         (fun (hname, h) ->
           let n = St.Histogram.count h in
           if n = 0 then []
           else
             let pct p = int_of_float (St.Histogram.percentile h p) in
             let max = int_of_float (St.Histogram.max h) in
             Printf.printf "    %-26s %8d %12d %12d %12d %12d\n" hname n (pct 50.) (pct 90.)
               (pct 99.) max;
             sim name (hname ^ ".count") (float n)
             :: List.map
                  (fun (m, v) -> sim ~unit:"ns" name (hname ^ "." ^ m) (float v))
                  [ ("p50", pct 50.); ("p90", pct 90.); ("p99", pct 99.); ("max", max) ])
         (Mp.Registry.histogram_list reg)
  in
  let rows = List.concat_map scenario [ "policy"; "join-small"; "aim-small"; "chaos-smoke" ] in
  report ~bench:"metrics" ~quick rows []

(* ------------------------------------------------------------------ *)
(* Storm: multi-tenant overload protection                             *)
(* ------------------------------------------------------------------ *)

let storm_bench ~quick () =
  header "Storm: multi-tenant overload protection and isolation (BENCH_storm.json)";
  (* digest checks only make sense when each run owns its collector; an
     outer --trace collector makes the digests cumulative *)
  let own_digests = Option.is_none (Tr.active ()) in
  let scales = if quick then [ Storm.smoke ] else [ Storm.smoke; Storm.full ] in
  Printf.printf "  %-8s %-10s %12s %14s %14s %10s %10s  %s\n" "tenants" "variant"
    "faults/sec" "honest p99 ns" "isolation" "throttles" "seizures" "digest";
  let scale config =
    let run_on b config = Executor.with_backend b (fun () -> Storm.run config) in
    (* each timed run's allocation per simulated fault, read on the
       same runs as the wall *)
    let words = ref [] in
    let runs, walls =
      sampled timed_repeats (fun () ->
          let w0 = Gc.minor_words () in
          let r = run_on Executor.Interp config in
          words := ((Gc.minor_words () -. w0) /. float r.Storm.total_faults) :: !words;
          r)
    in
    let r1 = List.hd runs in
    let rc = run_on Executor.Compiled config in
    let baseline =
      run_on Executor.Interp { config with Storm.greedy_every = 0; erring_every = 0 }
    in
    let digest_stable =
      (not own_digests) || List.for_all (fun r -> r.Storm.digest = r1.Storm.digest) runs
    in
    let backend_match = (not own_digests) || r1.Storm.digest = rc.Storm.digest in
    (* honest tail latency relative to the greedy-free control run: the
       isolation ratio the storm suite bounds at 3x *)
    let isolation_ratio =
      if baseline.Storm.honest_p99_ns > 0 then
        float_of_int r1.Storm.honest_p99_ns /. float_of_int baseline.Storm.honest_p99_ns
      else 0.
    in
    List.iter
      (fun (variant, (r : Storm.result)) ->
        Printf.printf "  %-8d %-10s %12.0f %14d %13.2fx %10d %10d  %s\n" r.Storm.tenants
          variant r.Storm.faults_per_sec r.Storm.honest_p99_ns
          (if variant = "storm" then isolation_ratio else 1.0)
          r.Storm.throttles_entered r.Storm.emergency_seizures r.Storm.digest)
      [ ("storm", r1); ("baseline", baseline) ];
    if own_digests then
      Printf.printf "  %-8s %-10s digest %s across runs, %s across backends\n" "" ""
        (if digest_stable then "STABLE" else "UNSTABLE")
        (if backend_match then "MATCH" else "MISMATCH");
    Printf.printf "  %-8s %-10s slo: %d tracked, %d over budget, %d violations%s\n" "" ""
      r1.Storm.slo_tracked r1.Storm.slo_over_budget r1.Storm.slo_violations
      (match r1.Storm.slo_worst with
      | [] -> ""
      | o :: _ ->
          Printf.sprintf "; worst t%04d (%s) burn %.2fx" o.Storm.o_index
            (Storm.kind_name o.Storm.o_kind) o.Storm.o_burn);
    let sc = Printf.sprintf "storm-%d" config.Storm.tenants in
    let count m v = sim sc m (float v) and ns m v = sim ~unit:"ns" sc m (float v) in
    let rows =
      [
        count "admitted" r1.Storm.admitted;
        count "shed" r1.Storm.shed;
        count "honest_alive" r1.Storm.honest_alive;
        count "faults" r1.Storm.total_faults;
        sim ~unit:"1/s" sc "faults_per_sec" r1.Storm.faults_per_sec;
        timed_row sc "wall_ns" walls;
        timed_row ~unit:"words" sc "minor_words_per_fault" !words;
        ns "honest_p50_ns" r1.Storm.honest_p50_ns;
        ns "honest_p99_ns" r1.Storm.honest_p99_ns;
        ns "greedy_p99_ns" r1.Storm.greedy_p99_ns;
        ns "baseline.honest_p99_ns" baseline.Storm.honest_p99_ns;
        sim ~unit:"x" sc "isolation_ratio" isolation_ratio;
        ns "slo_ns" r1.Storm.slo_ns;
        sim ~unit:"ratio" sc "slo_budget" r1.Storm.slo_budget;
        count "slo_tracked" r1.Storm.slo_tracked;
        count "slo_over_budget" r1.Storm.slo_over_budget;
        count "slo_violations" r1.Storm.slo_violations;
      ]
      @ List.concat_map
          (fun (o : Storm.offender) ->
            let m =
              Printf.sprintf "slo_worst.t%04d.%s." o.Storm.o_index (Storm.kind_name o.Storm.o_kind)
            in
            [
              count (m ^ "samples") o.Storm.o_samples;
              count (m ^ "violations") o.Storm.o_violations;
              sim ~unit:"ratio" sc (m ^ "burn") o.Storm.o_burn;
              ns (m ^ "worst_ns") o.Storm.o_worst_ns;
            ])
          r1.Storm.slo_worst
      @ [
          count "throttles_entered" r1.Storm.throttles_entered;
          count "throttles_exited" r1.Storm.throttles_exited;
          count "emergency_seizures" r1.Storm.emergency_seizures;
          count "emergency_frames" r1.Storm.emergency_frames;
          count "admissions_rejected" r1.Storm.admissions_rejected;
          count "demotions" r1.Storm.demotions;
          count "pressure_changes" r1.Storm.pressure_changes;
          count "audit_violations" r1.Storm.audit_violations;
        ]
    in
    let checks =
      [
        check (sc ^ ": digest stable across runs") digest_stable r1.Storm.digest;
        check (sc ^ ": digests match across backends") backend_match
          (Printf.sprintf "interp %s, compiled %s" r1.Storm.digest rc.Storm.digest);
        check (sc ^ ": frame conservation") r1.Storm.conservation_ok "";
        check (sc ^ ": peak pressure level") true r1.Storm.peak_level;
      ]
    in
    (rows, checks)
  in
  let results = List.map scale scales in
  report ~bench:"storm" ~quick (List.concat_map fst results) (List.concat_map snd results)

(* ------------------------------------------------------------------ *)
(* Adversary: anomaly-witness search throughput and gate               *)
(* ------------------------------------------------------------------ *)

let adversary_bench ~quick () =
  header "Adversary: Belady-anomaly witness search and the adaptive gate (BENCH_adversary.json)";
  let cfg = if quick then Adversary.smoke else Adversary.default in
  Printf.printf "  %-10s %8s %10s %12s %8s %8s  %s\n" "policy" "traces" "traces/s" "best gap"
    "f(lo)" "f(hi)" "verdict";
  (* each search runs twice, so its wall has a spread, but one that is
     half the gap of two readings: compare reads this row as noise *)
  let search policy =
    let outcomes, walls = sampled 2 (fun () -> Adversary.search { cfg with Adversary.policy }) in
    let o = List.hd outcomes in
    let rate =
      timed_row ~unit:"1/s" ~better:"higher" policy "traces_per_sec"
        (List.map (fun w -> float o.Adversary.o_traces_scored /. (w /. 1e9)) walls)
    in
    let lo, hi, verdict, witness_rows =
      match o.Adversary.o_witness with
      | None -> ("-", "-", "no witness at this budget", [])
      | Some w ->
          ( string_of_int w.Adversary.w_faults_lo,
            string_of_int w.Adversary.w_faults_hi,
            Printf.sprintf "witness (ratio %.3f)" (Adversary.anomaly_ratio w),
            [
              sim policy "witness.faults_lo" (float w.Adversary.w_faults_lo);
              sim policy "witness.faults_hi" (float w.Adversary.w_faults_hi);
              sim ~unit:"ratio" policy "witness.anomaly_ratio" (Adversary.anomaly_ratio w);
            ] )
    in
    Printf.printf "  %-10s %8d %10.0f %12d %8s %8s  %s\n" policy o.Adversary.o_traces_scored
      rate.value o.Adversary.o_best_gap lo hi verdict;
    ( o,
      [
        sim policy "traces_scored" (float o.Adversary.o_traces_scored);
        timed_row policy "wall_ns" walls;
        rate;
        sim policy "best_gap" (float o.Adversary.o_best_gap);
      ]
      @ witness_rows )
  in
  (* the attacked policy must fall, and its witness must confirm end to
     end; the adaptive policy must stand at the same budget *)
  let o_fifo, fifo_rows = search "fifo" in
  let o_ad, ad_rows = search "adaptive" in
  let found = check "fifo: the search finds a witness" (o_fifo.Adversary.o_witness <> None) in
  let confirmed = check "fifo: the witness is confirmed end to end" in
  let witness_checks =
    match o_fifo.Adversary.o_witness with
    | None -> [ found "none at this budget" ]
    | Some w -> (
        let found = found (Format.asprintf "%a" Adversary.pp_accesses w.Adversary.w_accesses) in
        match Adversary.confirm w with
        | Error e -> [ found; confirmed false e ]
        | Ok c ->
            let digest_hex l = Tr.digest_hex l.Adversary.cl_interp.Adversary.x_digest in
            [
              found;
              confirmed (Adversary.confirmed c)
                (Printf.sprintf "digest lo %s, hi %s" (digest_hex c.Adversary.c_lo)
                   (digest_hex c.Adversary.c_hi));
              check "fifo: the witness replays alike on both backends"
                (Adversary.backends_agree c) "";
              check "fifo: the witness matches the oracle" (Adversary.matches_oracle c) "";
            ])
  in
  let config_rows =
    List.map
      (fun (m, v) -> sim "config" m (float v))
      [
        ("seed", cfg.Adversary.seed);
        ("frames_lo", cfg.Adversary.frames_lo);
        ("frames_hi", cfg.Adversary.frames_hi);
        ("pages", cfg.Adversary.npages);
        ("length", cfg.Adversary.length);
        ("random_rounds", cfg.Adversary.random_rounds);
        ("mutation_rounds", cfg.Adversary.mutation_rounds);
      ]
  in
  report ~bench:"adversary" ~quick
    (config_rows @ fifo_rows @ ad_rows)
    (witness_checks
    @ [
        check "adaptive: no witness at the same budget" (o_ad.Adversary.o_witness = None)
          (Printf.sprintf "best gap %d" o_ad.Adversary.o_best_gap);
      ])

(* ------------------------------------------------------------------ *)
(* Spans: fault-lifecycle reconstruction overhead                      *)
(* ------------------------------------------------------------------ *)

module Sp = Hipec_trace.Span

(* trace-only and with-spans walls over the pairs, and each pair's
   overhead *)
let span_wall_rows sc offs ons =
  let overhead off on = (on -. off) /. off *. 100. in
  [
    timed_row sc "trace_only.wall_ns" offs;
    timed_row sc "with_spans.wall_ns" ons;
    timed_row ~unit:"%" sc "overhead_percent" (List.map2 overhead offs ons);
  ]

(* Two gates on the span layer.  First, attaching the online span
   builder must not perturb the simulation at all: the traced event
   stream (digest and count) with the consumer attached must be
   bit-identical to the stream without it.  Second, the wall-clock cost
   of building spans online must stay under 10% of the trace-only run,
   over the whole run (all scenarios) — the policy micro-scenario is
   nearly pure event emission with almost no simulated work behind it,
   so any proportional per-event cost is a large share of its tiny
   wall. *)
let spans_bench ~quick () =
  header "Spans: fault-lifecycle reconstruction overhead (BENCH_spans.json)";
  let pairs = gate_pairs ~quick in
  Printf.printf "  (medians of %d interleaved trace-only / +spans pairs)\n" pairs;
  Printf.printf "  %-12s %12s %12s %10s %8s  %s\n" "scenario" "trace (ms)" "+spans (ms)"
    "overhead" "faults" "span digest";
  let scenario name =
    (* each run's wall and minor words, read on the same run *)
    let once ~with_spans () =
      let b = if with_spans then Some (Sp.create ()) else None in
      let w0 = Gc.minor_words () in
      let c, wall =
        timed (fun () ->
            let c = Tr.start ~store:false () in
            Option.iter (fun b -> Tr.set_consumer (Some (Sp.feed b))) b;
            run_named name;
            ignore (Tr.stop ());
            c)
      in
      (wall, Gc.minor_words () -. w0, Tr.digest_hex (Tr.digest c), Tr.events_seen c, b)
    in
    let runs = interleave ~pairs (once ~with_spans:false) (once ~with_spans:true) in
    let wall (w, _, _, _, _) = w in
    let offs = List.map (fun (off, _) -> wall off) runs in
    let ons = List.map (fun (_, on) -> wall on) runs in
    (* the span stage's own allocation: the +spans run's minor words
       over the trace-only run's, per event *)
    let words_per_event =
      List.map
        (fun ((_, w_off, _, _, _), (_, w_on, _, events, _)) -> (w_on -. w_off) /. float events)
        runs
    in
    (* the span consumer must not perturb the traced stream, in any pair *)
    let stream_identical =
      List.for_all
        (fun ((_, _, d_off, ev_off, _), (_, _, d_on, ev_on, _)) -> d_off = d_on && ev_off = ev_on)
        runs
    in
    let (_, _, stream_digest, _, _), (_, _, _, _, b) = List.hd runs in
    let b = Option.get b in
    let span_digest = Sp.digest b in
    (* the cross-backend witness: same spans, bit for bit *)
    let _, _, _, _, bc = Executor.with_backend Executor.Compiled (once ~with_spans:true) in
    let backend_match = Int64.equal span_digest (Sp.digest (Option.get bc)) in
    let agg = Sp.Agg.compute (Sp.spans b) in
    let ns m v = sim ~unit:"ns" name m (float v) in
    let rows =
      sim name "faults" (float (Sp.fault_count b))
      :: span_wall_rows name offs ons
      @ [ timed_row ~unit:"words" name "span.minor_words_per_event" words_per_event ]
      @ [ ns "total_latency_ns" agg.Sp.Agg.total_latency_ns; ns "lat_p99_ns" agg.Sp.Agg.lat_p99_ns ]
      @ List.concat_map
          (fun (r : Sp.Agg.row) ->
            let m = "segment." ^ Sp.segment_kind_name r.Sp.Agg.kind ^ "." in
            [
              ns (m ^ "total_ns") r.Sp.Agg.total_ns;
              sim name (m ^ "faults") (float r.Sp.Agg.faults_touched);
              ns (m ^ "p50_ns") r.Sp.Agg.p50_ns;
              ns (m ^ "p90_ns") r.Sp.Agg.p90_ns;
              ns (m ^ "p99_ns") r.Sp.Agg.p99_ns;
            ])
          agg.Sp.Agg.rows
    in
    let value m = (find rows m).value in
    Printf.printf "  %-12s %12.2f %12.2f %9.2f%% %8d  %016Lx %s\n" name
      (value "trace_only.wall_ns" /. 1e6)
      (value "with_spans.wall_ns" /. 1e6)
      (value "overhead_percent") (Sp.fault_count b) span_digest
      (if backend_match then "MATCH" else "MISMATCH");
    let checks =
      [
        check (name ^ ": the span consumer leaves the traced stream identical") stream_identical
          stream_digest;
        check (name ^ ": span digests match across backends") backend_match
          (Printf.sprintf "%016Lx" span_digest);
      ]
    in
    (rows, checks, offs, ons)
  in
  let results = List.map scenario [ "policy"; "chaos-smoke"; "storm-smoke" ] in
  (* whole-run overhead per pair: pair k's trace-only walls summed over
     the scenarios against its with-spans walls *)
  let whole walls =
    List.fold_left (List.map2 ( +. )) (List.init pairs (fun _ -> 0.)) (List.map walls results)
  in
  let offs = whole (fun (_, _, offs, _) -> offs) and ons = whole (fun (_, _, _, ons) -> ons) in
  let rows = span_wall_rows "whole-run" offs ons in
  let total = find rows "overhead_percent" in
  Printf.printf
    "  whole-run overhead: %.2f%% median of %d pairs, IQR %.2f (medians %.2f ms -> %.2f ms)\n"
    total.value pairs total.spread
    ((find rows "trace_only.wall_ns").value /. 1e6)
    ((find rows "with_spans.wall_ns").value /. 1e6);
  report ~bench:"spans" ~quick
    (List.concat_map (fun (rows, _, _, _) -> rows) results @ rows)
    (List.concat_map (fun (_, checks, _, _) -> checks) results
    @ [
        check "whole-run: online span building < 10% of the run" (total.value < 10.0)
          (Printf.sprintf "%.2f%%" total.value);
      ])

(* ------------------------------------------------------------------ *)
(* compare OLD NEW: the regression check between two bench files       *)
(* ------------------------------------------------------------------ *)

(* The fields of one flat JSON object on one line, the way [write] puts
   each row and check. *)
let fields line =
  let ib = Scanf.Scanning.from_string line in
  let rec go acc =
    let key = Scanf.bscanf ib " %S :" Fun.id in
    let value =
      Scanf.bscanf ib " %0c" (function
        | '"' -> Scanf.bscanf ib "%S" Fun.id
        | _ -> Scanf.bscanf ib "%[^,} ]" Fun.id)
    in
    if Scanf.bscanf ib " %c" Fun.id = ',' then go ((key, value) :: acc) else (key, value) :: acc
  in
  Scanf.bscanf ib " {" ();
  go []

let load path =
  let lines = In_channel.with_open_bin path In_channel.input_all |> String.split_on_char '\n' in
  let objects key =
    List.filter_map
      (fun l ->
        let l = String.trim l in
        if String.starts_with ~prefix:("{\"" ^ key ^ "\"") l then Some (fields l) else None)
      lines
  in
  let get f k = List.assoc k f in
  let row f =
    let num k = float_of_string (get f k) in
    let repeats = int_of_string (get f "repeats") and better = List.assoc_opt "better" f in
    let scenario = get f "scenario" and measure = get f "measure" and unit = get f "unit" in
    { scenario; measure; value = num "value"; unit; repeats; spread = num "spread"; better }
  and check f = { name = get f "name"; ok = get f "ok" = "true"; detail = get f "detail" } in
  (List.map row (objects "scenario"), List.map check (objects "name"))

(* One line per row and per check found in both files.  Fails when a
   simulated row moved at all, when a timed row got worse in its
   [better] direction by more than the larger of its two spreads, or
   when a check that passed in OLD fails in NEW. *)
let compare_files old_path new_path =
  let (old_rows, old_checks), (new_rows, new_checks) =
    try (load old_path, load new_path)
    with e ->
      Printf.eprintf "compare: %s\n" (Printexc.to_string e);
      exit 2
  in
  let regressions = ref 0 in
  List.iter
    (fun n ->
      match List.find_opt (fun o -> o.scenario = n.scenario && o.measure = n.measure) old_rows with
      | None -> ()
      | Some o ->
          let verdict =
            match n.better with
            | None -> if n.value = o.value then "" else "  CHANGED"
            | Some better ->
                let worse = if better = "higher" then o.value -. n.value else n.value -. o.value in
                if worse > Float.max o.spread n.spread then "  WORSE" else ""
          in
          if verdict <> "" then incr regressions;
          Printf.printf "  %-14s %-44s %16s %16s %s%s\n" n.scenario n.measure
            (json_number o.value) (json_number n.value) n.unit verdict)
    new_rows;
  let status ok = if ok then "pass" else "FAIL" in
  List.iter
    (fun n ->
      match List.find_opt (fun o -> o.name = n.name) old_checks with
      | None -> ()
      | Some o ->
          let regressed = o.ok && not n.ok in
          if regressed then incr regressions;
          Printf.printf "  check %-62s %s -> %s%s\n" n.name (status o.ok) (status n.ok)
            (if regressed then "  REGRESSED" else ""))
    new_checks;
  Printf.printf "compare: %d regression(s)\n" !regressions;
  exit (if !regressions = 0 then 0 else 1)

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
  ]

let () =
  match List.filter (fun a -> a <> "--") (List.tl (Array.to_list Sys.argv)) with
  | [ "compare"; old_path; new_path ] -> compare_files old_path new_path
  | "compare" :: _ ->
      prerr_endline "usage: hipec-bench compare OLD NEW";
      exit 2
  | args ->
      let quick = List.mem "--quick" args in
      let trace = List.mem "--trace" args in
      let to_run =
        match List.filter (fun a -> a <> "--quick" && a <> "--trace") args with
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
      (* --trace: collect the structured event stream across every
         selected bench and report the per-category totals and stream
         digest at the end — the cheap way to see what a figure actually
         exercised. *)
      let collector = if trace then Some (Tr.start ()) else None in
      List.iter (fun (_, f) -> f ~quick ()) to_run;
      Option.iter
        (fun c ->
          ignore (Tr.stop ());
          header "Trace collector summary (--trace)";
          Format.printf "%a@." Tr.pp_summary c)
        collector
