(* Tests for the robustness layer: the paging-I/O retry helper, the
   kernel auditor, and the chaos scenario that ties fault injection,
   retry, policy demotion and auditing together. *)

open Hipec_vm
open Hipec_core
open Hipec_workloads
module Disk = Hipec_machine.Disk
module Frame = Hipec_machine.Frame
module Pmap = Hipec_machine.Pmap
module T = Hipec_sim.Sim_time
module Engine = Hipec_sim.Engine
module Rng = Hipec_sim.Rng

(* ------------------------------------------------------------------ *)
(* Io_retry                                                            *)
(* ------------------------------------------------------------------ *)

let make_disk ?(faults = Disk.Faults.none) () =
  let engine = Engine.create () in
  let disk = Disk.create ~faults ~engine ~rng:(Rng.create ~seed:7) () in
  (engine, disk)

let faults_cfg ?(seed = 11) ?(read_rate = 0.) ?(write_rate = 0.) ?(bad = []) () =
  {
    Disk.Faults.seed;
    transient_read_rate = read_rate;
    transient_write_rate = write_rate;
    latency_spike_rate = 0.;
    latency_spike = T.zero;
    bad_blocks = bad;
  }

let test_backoff_schedule () =
  let p = Io_retry.default_policy in
  let at n = T.to_ns (Io_retry.backoff p ~attempt:n) in
  Alcotest.(check int) "attempt 1 = base" (T.to_ns (T.ms 1)) (at 1);
  Alcotest.(check int) "attempt 2 doubles" (T.to_ns (T.ms 2)) (at 2);
  Alcotest.(check int) "attempt 3 doubles again" (T.to_ns (T.ms 4)) (at 3);
  Alcotest.(check int) "attempt 6 still exponential" (T.to_ns (T.ms 32)) (at 6);
  Alcotest.(check int) "attempt 7 capped" (T.to_ns (T.ms 50)) (at 7);
  Alcotest.(check int) "far attempts stay capped" (T.to_ns (T.ms 50)) (at 12)

(* A storm of transient write errors: every submission completes exactly
   once, every error is accounted as either a retry or a give-up, and
   the disk's success counter agrees with the retry layer's view. *)
let test_transient_write_storm () =
  let engine, disk = make_disk ~faults:(faults_cfg ~write_rate:0.3 ()) () in
  let stats = Io_retry.create_stats () in
  let n = 60 in
  let ok = ref 0 and failed = ref 0 in
  for i = 0 to n - 1 do
    Io_retry.submit_write stats disk
      ~remap:(fun _ -> None)
      ~block:(i * 64) ~nblocks:8
      (fun _ -> function Ok () -> incr ok | Error _ -> incr failed)
  done;
  Engine.run engine;
  Alcotest.(check int) "every write completed once" n (!ok + !failed);
  Alcotest.(check bool) "some transient errors injected" true (stats.Io_retry.io_errors > 0);
  Alcotest.(check bool) "some retries issued" true (stats.Io_retry.io_retries > 0);
  Alcotest.(check int) "errors = retries + giveups" stats.Io_retry.io_errors
    (stats.Io_retry.io_retries + stats.Io_retry.io_giveups);
  Alcotest.(check int) "give-ups are the failures" stats.Io_retry.io_giveups !failed;
  Alcotest.(check int) "disk counts only successes" !ok (Disk.writes_completed disk);
  Alcotest.(check int) "no remaps without bad blocks" 0 stats.Io_retry.swap_remaps

let test_bad_block_write_remaps () =
  let engine, disk = make_disk ~faults:(faults_cfg ~bad:[ 42 ] ()) () in
  let stats = Io_retry.create_stats () in
  let outcome = ref None in
  Io_retry.submit_write stats disk
    ~remap:(function Disk.Bad_block _ -> Some 4_096 | _ -> None)
    ~block:40 ~nblocks:8
    (fun _ r -> outcome := Some r);
  Engine.run engine;
  Alcotest.(check bool) "write succeeded on the remapped block" true
    (!outcome = Some (Ok ()));
  Alcotest.(check int) "one swap remap" 1 stats.Io_retry.swap_remaps;
  Alcotest.(check int) "one error, one retry" 2
    (stats.Io_retry.io_errors + stats.Io_retry.io_retries);
  Alcotest.(check int) "no give-up" 0 stats.Io_retry.io_giveups;
  Alcotest.(check int) "bad block hit once" 1 (Disk.bad_block_hits disk);
  Alcotest.(check int) "one successful write" 1 (Disk.writes_completed disk)

let test_bad_block_write_without_remap_gives_up () =
  let engine, disk = make_disk ~faults:(faults_cfg ~bad:[ 42 ] ()) () in
  let stats = Io_retry.create_stats () in
  let outcome = ref None in
  Io_retry.submit_write stats disk
    ~remap:(fun _ -> None)
    ~block:40 ~nblocks:8
    (fun _ r -> outcome := Some r);
  Engine.run engine;
  (match !outcome with
  | Some (Error (Disk.Bad_block { block = 42 })) -> ()
  | _ -> Alcotest.fail "expected Bad_block 42");
  Alcotest.(check int) "one give-up" 1 stats.Io_retry.io_giveups;
  Alcotest.(check int) "no retries" 0 stats.Io_retry.io_retries;
  Alcotest.(check int) "nothing written" 0 (Disk.writes_completed disk)

let test_sync_read_transient_retries () =
  let _, disk = make_disk ~faults:(faults_cfg ~seed:5 ~read_rate:0.3 ()) () in
  let stats = Io_retry.create_stats () in
  let charged = ref T.zero in
  let charge d = charged := T.add !charged d in
  let ok = ref 0 and failed = ref 0 in
  for i = 0 to 39 do
    match
      Io_retry.sync_read ~policy:Io_retry.default_policy stats ~charge disk ~block:(i * 64)
        ~nblocks:8
    with
    | Ok () -> incr ok
    | Error _ -> incr failed
  done;
  Alcotest.(check int) "every read resolved" 40 (!ok + !failed);
  Alcotest.(check bool) "transients retried" true (stats.Io_retry.io_retries > 0);
  Alcotest.(check int) "errors = retries + giveups" stats.Io_retry.io_errors
    (stats.Io_retry.io_retries + stats.Io_retry.io_giveups);
  Alcotest.(check int) "give-ups are the failures" stats.Io_retry.io_giveups !failed;
  Alcotest.(check bool) "service time and backoff charged" true (T.to_ns !charged > 0)

let test_sync_read_bad_block_gives_up_immediately () =
  let _, disk = make_disk ~faults:(faults_cfg ~bad:[ 42 ] ()) () in
  let stats = Io_retry.create_stats () in
  let charged = ref T.zero in
  (match
     Io_retry.sync_read ~policy:Io_retry.default_policy stats
       ~charge:(fun d -> charged := T.add !charged d)
       disk ~block:40 ~nblocks:8
   with
  | Error (Disk.Bad_block { block = 42 }) -> ()
  | _ -> Alcotest.fail "expected Bad_block 42");
  Alcotest.(check int) "no retries on a bad backing block" 0 stats.Io_retry.io_retries;
  Alcotest.(check int) "one give-up" 1 stats.Io_retry.io_giveups;
  Alcotest.(check bool) "one attempt still charged" true (T.to_ns !charged > 0)

(* ------------------------------------------------------------------ *)
(* Audit                                                               *)
(* ------------------------------------------------------------------ *)

let test_audit_clean_kernel () =
  let k = Kernel.create ~config:{ Kernel.default_config with total_frames = 64 } () in
  let task = Kernel.create_task k () in
  let region = Kernel.vm_allocate k task ~npages:32 in
  Kernel.touch_region k task region ~write:true;
  Kernel.drain_io k;
  let auditor = Audit.create ~raise_on_violation:false k in
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun v -> v.Audit.check) (Audit.sweep auditor));
  Alcotest.(check int) "one sweep recorded" 1 (Audit.sweeps auditor);
  Alcotest.(check int) "no violations recorded" 0 (Audit.violations_found auditor)

(* Plant deliberately corrupt structures: a registered queue holding a
   page whose frame has been returned to the free pool, then the same
   frame handed to a second page while the first stays queued. *)
let test_audit_detects_free_frame_on_queue () =
  let k = Kernel.create ~config:{ Kernel.default_config with total_frames = 64 } () in
  let auditor = Audit.create ~raise_on_violation:false k in
  let tbl = Kernel.frame_table k in
  let frame = List.hd (Frame.Table.alloc_many tbl 1) in
  let page = Vm_page.create ~frame in
  let rogue = Page_queue.create "rogue" in
  Page_queue.enqueue_tail rogue page;
  Frame.Table.free tbl frame;
  Audit.register_queue auditor rogue;
  let violations = Audit.sweep auditor in
  Alcotest.(check bool) "free-frame-on-queue flagged" true
    (List.exists (fun v -> v.Audit.check = "free-frame-on-queue") violations);
  Alcotest.(check bool) "violations recorded" true (Audit.violations_found auditor > 0);
  (* with [raise_on_violation] the same sweep raises *)
  let strict = Audit.create k in
  Audit.register_queue strict rogue;
  (match Audit.sweep strict with
  | exception Audit.Violation (_ :: _) -> ()
  | _ -> Alcotest.fail "strict auditor should raise");
  Alcotest.(check (option string)) "first violation kept" (Some "free-frame-on-queue")
    (Option.map (fun v -> v.Audit.check) (Audit.first_violation auditor));
  (* two pages on one frame: the stale one no longer holds it *)
  let heir = Vm_page.create ~frame:(Option.get (Frame.Table.alloc tbl)) in
  Alcotest.(check bool) "the same frame re-granted" true (Vm_page.frame heir == frame);
  Page_queue.enqueue_tail rogue heir;
  let violations = List.map (fun v -> v.Audit.check) (Audit.sweep auditor) in
  Alcotest.(check (list string)) "frame-aliasing flagged" [ "frame-aliasing" ] violations;
  Alcotest.(check (option string)) "first violation unchanged" (Some "free-frame-on-queue")
    (Option.map (fun v -> v.Audit.check) (Audit.first_violation auditor));
  (* clean up so the queue cannot leak into later checks *)
  Audit.unregister_queue auditor rogue

(* A clean sweep formats nothing and allocates nothing per page: its
   minor-heap allocation is the same at 64 and at 1024 resident pages. *)
let test_audit_sweep_allocation_flat () =
  let sweep_words npages =
    let k = Kernel.create ~config:{ Kernel.default_config with total_frames = 2048 } () in
    let task = Kernel.create_task k () in
    let region = Kernel.vm_allocate k task ~npages in
    Kernel.touch_region k task region ~write:true;
    Kernel.drain_io k;
    let auditor = Audit.create k in
    ignore (Audit.sweep auditor);
    let before = Gc.minor_words () in
    let violations = Audit.sweep auditor in
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) "clean" 0 (List.length violations);
    words
  in
  let small = sweep_words 64 and large = sweep_words 1024 in
  if Float.abs (large -. small) > 16. then
    Alcotest.failf "sweep allocates %.0f words at 64 pages but %.0f at 1024" small large

(* Registering a queue costs the same allocation however many are
   already registered, and the sweep still visits registered queues in
   registration order, also after one is unregistered and registered
   again. *)
let test_audit_register_queue_allocation_flat () =
  let k = Kernel.create ~config:{ Kernel.default_config with total_frames = 64 } () in
  let queues n = List.init n (fun i -> Page_queue.create (Printf.sprintf "q%d" i)) in
  (* registering as many again as are already there amortises the
     registry's growth the same way at both sizes *)
  let words_per_call registered =
    let auditor = Audit.create ~raise_on_violation:false k in
    List.iter (Audit.register_queue auditor) (queues registered);
    let more = queues registered in
    let before = Gc.minor_words () in
    List.iter (Audit.register_queue auditor) more;
    let words = Gc.minor_words () -. before in
    (words /. float_of_int registered, auditor)
  in
  let small, _ = words_per_call 64 in
  let large, auditor = words_per_call 2048 in
  if large -. small > 4. then
    Alcotest.failf "register_queue allocates %.1f words at 64 queues but %.1f at 2048" small
      large;
  let tbl = Kernel.frame_table k in
  let rogue name =
    let q = Page_queue.create name in
    let frame = List.hd (Frame.Table.alloc_many tbl 1) in
    Page_queue.enqueue_tail q (Vm_page.create ~frame);
    Frame.Table.free tbl frame;
    q
  in
  let a = rogue "a" and b = rogue "b" and c = rogue "c" in
  List.iter (Audit.register_queue auditor) [ a; b; c; a ];
  Audit.unregister_queue auditor b;
  Audit.register_queue auditor b;
  let queue_of v = List.nth (String.split_on_char ' ' v.Audit.detail) 1 in
  Alcotest.(check (list string)) "violations in registration order" [ "a"; "c"; "b" ]
    (List.map queue_of (Audit.sweep auditor))

(* A clean daemon period allocates nothing: over a whole pass (the
   frame-table walk included) the incremental checks cost 0 words. *)
let test_audit_tick_allocation_zero () =
  let k = Kernel.create ~config:{ Kernel.default_config with total_frames = 512 } () in
  let task = Kernel.create_task k () in
  let region = Kernel.vm_allocate k task ~npages:256 in
  Kernel.touch_region k task region ~write:true;
  Kernel.drain_io k;
  let auditor = Audit.create k in
  let spare = Page_queue.create "spare" in
  List.iter
    (fun frame -> Page_queue.enqueue_tail spare (Vm_page.create ~frame))
    (Frame.Table.alloc_many (Kernel.frame_table k) 16);
  Audit.register_queue auditor spare;
  let pass () =
    for _ = 1 to Audit.periods_per_pass do
      Audit.tick auditor
    done
  in
  pass ();
  let overhead =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  let a = Gc.minor_words () in
  pass ();
  let b = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words per clean pass" 0. (b -. a -. overhead);
  Alcotest.(check int) "one sweep counted per period" (2 * Audit.periods_per_pass)
    (Audit.sweeps auditor);
  Alcotest.(check int) "clean" 0 (Audit.violations_found auditor)

(* Incremental vs full: a seeded kernel with the daemon armed, one
   corruption of each class the sweep names planted mid-run.  The daemon
   must report within [periods_per_pass] periods, and what it records
   must be what a full sweep reports on the same state. *)
type fixture = {
  k : Kernel.t;
  daemon : Audit.t;
  reference : Audit.t;  (* sweeps only, same registrations *)
  task : Task.t;
  region : Vm_map.region;
  spare : Page_queue.t;  (* unbound slots on an audited queue *)
  broken : bool ref;  (* makes the registered check fail *)
}

let period = T.ms 10

let fixture () =
  let k =
    Kernel.create ~config:{ Kernel.default_config with total_frames = 256; seed = 5 } ()
  in
  let daemon = Audit.create ~period ~raise_on_violation:false k in
  let reference = Audit.create ~raise_on_violation:false k in
  let task = Kernel.create_task k ~name:"planted" () in
  let region = Kernel.vm_allocate k task ~npages:64 in
  for i = 0 to 47 do
    Kernel.access_vpn k task ~vpn:(region.Vm_map.start_vpn + i) ~write:(i mod 3 = 0)
  done;
  let spare = Page_queue.create "spare" in
  List.iter
    (fun frame -> Page_queue.enqueue_tail spare (Vm_page.create ~frame))
    (Frame.Table.alloc_many (Kernel.frame_table k) 8);
  let broken = ref false in
  let check () = if !broken then [ ("planted-check", "the planted check fails") ] else [] in
  List.iter
    (fun a ->
      Audit.register_queue a spare;
      Audit.register_check a ~name:"planted" check)
    [ daemon; reference ];
  Kernel.drain_io k;
  Audit.start daemon;
  (* mid-run: the cursor is part-way through a pass *)
  for _ = 1 to 3 do
    Kernel.charge k period
  done;
  { k; daemon; reference; task; region; spare; broken }

let resident_page fx i =
  Vm_object.resident fx.region.Vm_map.obj ~offset:(fx.region.Vm_map.obj_offset + i)

let vpn fx i = fx.region.Vm_map.start_vpn + i
let spare_page fx = Option.get (Page_queue.peek_head fx.spare)
let pooled_frame fx =
  let tbl = Kernel.frame_table fx.k in
  let f = Option.get (Frame.Table.alloc tbl) in
  Frame.Table.free tbl f;
  f

let plants : (string * (fixture -> unit)) list =
  [
    ( "frame-conservation",
      (* no call of the frame table's API breaks conservation: write the
         free count directly, as a stray store would *)
      fun fx ->
        let tbl = Obj.repr (Kernel.frame_table fx.k) in
        let free_count = Frame.Table.free_count (Kernel.frame_table fx.k) in
        assert (Obj.obj (Obj.field tbl 2) = free_count);
        Obj.set_field tbl 2 (Obj.repr (free_count + 1)) );
    ( "queue-invariants",
      (* relink a kernel-queue page onto another queue without unlinking *)
      fun fx -> Vm_page.link fx.spare (resident_page fx 5) ~at_head:false );
    ( "queue-membership",
      fun fx ->
        let active = List.hd (Pageout.queues (Kernel.pageout fx.k)) in
        Vm_page.link active (spare_page fx) ~at_head:true );
    ( "free-frame-on-queue",
      fun fx -> Frame.Table.free (Kernel.frame_table fx.k) (Vm_page.frame (spare_page fx)) );
    ( "frame-aliasing",
      fun fx ->
        let tbl = Kernel.frame_table fx.k in
        let stale = spare_page fx in
        Frame.Table.free tbl (Vm_page.frame stale);
        let frame = Option.get (Frame.Table.alloc tbl) in
        assert (frame == Vm_page.frame stale);
        ignore (Vm_page.create ~frame) );
    ( "binding",
      fun fx ->
        let page = resident_page fx 7 in
        let oid = Vm_object.id fx.region.Vm_map.obj in
        Vm_page.unbind page;
        Vm_page.bind page ~object_id:oid ~offset:(fx.region.Vm_map.obj_offset + 8) );
    ( "resident-free-frame",
      fun fx -> Frame.Table.free (Kernel.frame_table fx.k) (Vm_page.frame (resident_page fx 9))
    );
    ( "pmap-free-frame",
      fun fx ->
        Pmap.enter (Task.pmap fx.task) ~vpn:(vpn fx 11) ~frame:(pooled_frame fx)
          ~prot:Pmap.Read_write );
    ( "pmap-unmapped-vpn",
      fun fx ->
        Pmap.enter (Task.pmap fx.task) ~vpn:100_000
          ~frame:(Vm_page.frame (resident_page fx 12))
          ~prot:Pmap.Read_write );
    ( "pmap-stale",
      fun fx ->
        Pmap.enter (Task.pmap fx.task) ~vpn:(vpn fx 60)
          ~frame:(Vm_page.frame (resident_page fx 13))
          ~prot:Pmap.Read_write );
    ( "pmap-wrong-frame",
      fun fx ->
        Pmap.enter (Task.pmap fx.task) ~vpn:(vpn fx 14)
          ~frame:(Vm_page.frame (resident_page fx 15))
          ~prot:Pmap.Read_write );
    ("planted-check", fun fx -> fx.broken := true);
  ]

let test_audit_incremental_matches_sweep () =
  List.iter
    (fun (cls, plant) ->
      let fx = fixture () in
      Alcotest.(check int) (cls ^ ": clean before the plant") 0
        (Audit.violations_found fx.daemon);
      plant fx;
      let rec wait periods =
        if Audit.violations_found fx.daemon > 0 then periods
        else if periods >= Audit.periods_per_pass then
          Alcotest.failf "%s: not reported within %d periods" cls Audit.periods_per_pass
        else begin
          let sweeps = Audit.sweeps fx.daemon in
          Kernel.charge fx.k period;
          Alcotest.(check int) (cls ^ ": one period per step") (sweeps + 1)
            (Audit.sweeps fx.daemon);
          wait (periods + 1)
        end
      in
      ignore (wait 0);
      let swept = Audit.sweep fx.reference in
      Alcotest.(check bool)
        (cls ^ ": the sweep reports the planted class")
        true
        (List.exists (fun v -> v.Audit.check = cls) swept);
      Alcotest.(check (option string))
        (cls ^ ": first violation is the sweep's")
        (Option.map (Format.asprintf "%a" Audit.pp_violation) (Some (List.hd swept)))
        (Option.map (Format.asprintf "%a" Audit.pp_violation) (Audit.first_violation fx.daemon));
      Audit.stop fx.daemon)
    plants

(* ------------------------------------------------------------------ *)
(* Chaos scenario                                                      *)
(* ------------------------------------------------------------------ *)

(* A sub-second variant of the smoke config for unit tests. *)
let tiny =
  {
    Chaos.pages = 192;
    runaway_pages = 16;
    writer_pages = 320;
    total_frames = 256;
    seed = 1;
    transient_rate = 0.02;
    latency_spike_rate = 0.01;
    bad_swap_blocks = 2;
    audit_period = T.ms 50;
  }

let test_chaos_tiny_healthy () =
  let clean = Chaos.run ~faults:false tiny in
  let faulty = Chaos.run tiny in
  Alcotest.(check int) "clean: no injected faults" 0 clean.Chaos.faults_injected;
  Alcotest.(check int) "clean: no I/O errors" 0 clean.Chaos.io_errors;
  Alcotest.(check int) "no task killed" 0 faulty.Chaos.task_kills;
  Alcotest.(check bool) "runaway policy demoted" true (faulty.Chaos.demotions >= 1);
  Alcotest.(check bool) "demotion reason recorded" true
    (faulty.Chaos.demotion_reason <> None);
  Alcotest.(check int) "auditor saw nothing" 0 faulty.Chaos.audit_violations;
  Alcotest.(check bool) "auditor actually swept" true (faulty.Chaos.audit_sweeps > 0);
  Alcotest.(check bool) "faults injected" true (faulty.Chaos.faults_injected > 0);
  Alcotest.(check bool) "errors retried" true
    (faulty.Chaos.io_errors > 0 && faulty.Chaos.io_retries > 0);
  Alcotest.(check int) "every error recovered" 0 faulty.Chaos.io_giveups;
  Alcotest.(check bool) "bad swap blocks remapped" true (faulty.Chaos.swap_remaps > 0);
  Alcotest.(check bool) "faults cost time" true
    (Chaos.degradation_percent ~clean ~faulty >= 0.)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* ISSUE satellite: the same seed must produce a bit-identical Kstat
   report (and elapsed time) under fault injection. *)
let prop_chaos_deterministic =
  QCheck.Test.make ~name:"same seed, bit-identical Kstat under faults" ~count:3
    QCheck.(int_range 1 4)
    (fun seed ->
      let config = { tiny with Chaos.seed } in
      let a = Chaos.run config and b = Chaos.run config in
      a.Chaos.kstat = b.Chaos.kstat
      && a.Chaos.elapsed = b.Chaos.elapsed
      && a.Chaos.io_errors = b.Chaos.io_errors
      && a.Chaos.faults_injected = b.Chaos.faults_injected)

(* ISSUE satellite: frame conservation (and the auditor's full invariant
   sweep) must survive any interleaving of touches, migrations and
   demotions while the disk throws transient faults. *)
let prop_conservation_under_demote_migrate_faults =
  QCheck.Test.make ~name:"frames conserved under random demote/migrate/faults"
    ~count:25
    QCheck.(list_of_size Gen.(1 -- 30) (pair (int_bound 5) (int_bound 31)))
    (fun ops ->
      let config =
        {
          Kernel.default_config with
          total_frames = 128;
          hipec_kernel = true;
          seed = 3;
          disk_faults =
            Some (faults_cfg ~seed:9 ~read_rate:0.05 ~write_rate:0.05 ());
        }
      in
      let k = Kernel.create ~config () in
      let sys = Api.init k in
      let alloc name policy =
        let task = Kernel.create_task k ~name () in
        match
          Api.vm_allocate_hipec sys task ~npages:32
            (Api.default_spec ~policy ~min_frames:24)
        with
        | Ok (region, container) -> (task, region, container)
        | Error e -> QCheck.Test.fail_report ("vm_allocate_hipec: " ^ e)
      in
      let ta, ra, ca = alloc "a" (Policies.fifo ()) in
      let tb, rb, cb = alloc "b" (Policies.fifo_second_chance ()) in
      let manager = Api.manager sys in
      let touch task region page =
        try
          Kernel.access_vpn k task
            ~vpn:(region.Vm_map.start_vpn + page)
            ~write:(page mod 2 = 0)
        with Kernel.Task_terminated _ -> ()
      in
      List.iter
        (fun (op, page) ->
          match op with
          | 0 -> touch ta ra page
          | 1 -> touch tb rb page
          | 2 ->
              if not (Container.degraded ca || Container.degraded cb) then
                ignore (Api.migrate_frames sys ~src:ca ~dst:cb ~n:2)
          | 3 ->
              if not (Container.degraded ca || Container.degraded cb) then
                ignore (Api.migrate_frames sys ~src:cb ~dst:ca ~n:2)
          | 4 -> Frame_manager.demote manager ca ~reason:"chaos property"
          | _ -> Frame_manager.demote manager cb ~reason:"chaos property")
        ops;
      Kernel.drain_io k;
      let auditor = Audit.create ~raise_on_violation:false k in
      List.iter
        (fun c ->
          Audit.register_queue auditor (Container.free_queue c);
          Audit.register_queue auditor (Container.active_queue c);
          Audit.register_queue auditor (Container.inactive_queue c))
        [ ca; cb ];
      Frame.Table.check_conservation (Kernel.frame_table k)
      && Audit.sweep auditor = [])

(* The incremental daemon never fires on a healthy run: over random
   chaos runs the daemon and the closing full sweep both stay clean. *)
let prop_daemon_clean_on_chaos_runs =
  QCheck.Test.make ~name:"daemon and full sweep clean on random chaos runs" ~count:6
    QCheck.(pair (int_range 1 1000) (int_bound 3))
    (fun (seed, rate) ->
      let config =
        { tiny with Chaos.seed; transient_rate = 0.01 *. float_of_int rate; audit_period = T.ms 20 }
      in
      let r = Chaos.run config in
      r.Chaos.audit_sweeps > 1 && r.Chaos.audit_violations = 0 && r.Chaos.first_violation = None)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "chaos"
    [
      ( "io_retry",
        [
          Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "transient write storm" `Quick test_transient_write_storm;
          Alcotest.test_case "bad block write remaps" `Quick test_bad_block_write_remaps;
          Alcotest.test_case "bad block without remap gives up" `Quick
            test_bad_block_write_without_remap_gives_up;
          Alcotest.test_case "sync read retries transients" `Quick
            test_sync_read_transient_retries;
          Alcotest.test_case "sync read gives up on bad block" `Quick
            test_sync_read_bad_block_gives_up_immediately;
        ] );
      ( "audit",
        [
          Alcotest.test_case "clean kernel" `Quick test_audit_clean_kernel;
          Alcotest.test_case "detects planted corruption" `Quick
            test_audit_detects_free_frame_on_queue;
          Alcotest.test_case "clean sweep allocation is flat" `Quick
            test_audit_sweep_allocation_flat;
          Alcotest.test_case "register_queue allocation is flat" `Quick
            test_audit_register_queue_allocation_flat;
          Alcotest.test_case "clean daemon period allocates nothing" `Quick
            test_audit_tick_allocation_zero;
          Alcotest.test_case "incremental daemon reports what the sweep does" `Quick
            test_audit_incremental_matches_sweep;
        ] );
      ( "scenario",
        [ Alcotest.test_case "tiny chaos run healthy" `Quick test_chaos_tiny_healthy ] );
      ( "properties",
        qc
          [
            prop_chaos_deterministic;
            prop_conservation_under_demote_migrate_faults;
            prop_daemon_clean_on_chaos_runs;
          ] );
    ]
