(* Tests for the machine substrate: frames, pmap, disk, costs. *)

open Hipec_machine
module T = Hipec_sim.Sim_time
module Engine = Hipec_sim.Engine
module Rng = Hipec_sim.Rng

(* ------------------------------------------------------------------ *)
(* Frame / Frame.Table                                                 *)
(* ------------------------------------------------------------------ *)

let test_frame_table_alloc_free () =
  let tbl = Frame.Table.create ~total:8 in
  Alcotest.(check int) "all free" 8 (Frame.Table.free_count tbl);
  let f = match Frame.Table.alloc tbl with Some f -> f | None -> Alcotest.fail "alloc" in
  Alcotest.(check bool) "not free" false (Frame.is_free f);
  Alcotest.(check int) "seven left" 7 (Frame.Table.free_count tbl);
  Frame.Table.free tbl f;
  Alcotest.(check bool) "free again" true (Frame.is_free f);
  Alcotest.(check int) "back to eight" 8 (Frame.Table.free_count tbl);
  Alcotest.(check bool) "conserved" true (Frame.Table.check_conservation tbl)

let test_frame_table_exhaustion () =
  let tbl = Frame.Table.create ~total:3 in
  let fs = Frame.Table.alloc_many tbl 5 in
  Alcotest.(check int) "only three granted" 3 (List.length fs);
  Alcotest.(check int) "pool dry" 0 (Frame.Table.free_count tbl);
  Alcotest.(check bool) "alloc fails" true (Frame.Table.alloc tbl = None)

let test_frame_alloc_clears_bits () =
  let tbl = Frame.Table.create ~total:1 in
  let f = Option.get (Frame.Table.alloc tbl) in
  Frame.set_referenced f true;
  Frame.set_modified f true;
  Frame.Table.free tbl f;
  let f = Option.get (Frame.Table.alloc tbl) in
  Alcotest.(check bool) "ref cleared" false (Frame.referenced f);
  Alcotest.(check bool) "mod cleared" false (Frame.modified f)

let test_frame_double_free_rejected () =
  let tbl = Frame.Table.create ~total:1 in
  let f = Option.get (Frame.Table.alloc tbl) in
  Frame.Table.free tbl f;
  Alcotest.check_raises "double free" (Invalid_argument "Frame.Table.free: already free")
    (fun () -> Frame.Table.free tbl f)

let test_frame_wired_free_rejected () =
  let tbl = Frame.Table.create ~total:1 in
  let f = Option.get (Frame.Table.alloc tbl) in
  Frame.set_wired f true;
  Alcotest.check_raises "wired free" (Invalid_argument "Frame.Table.free: frame is wired")
    (fun () -> Frame.Table.free tbl f)

(* ------------------------------------------------------------------ *)
(* Pmap                                                                *)
(* ------------------------------------------------------------------ *)

let with_frame k =
  let tbl = Frame.Table.create ~total:4 in
  k tbl (Option.get (Frame.Table.alloc tbl))

let test_pmap_miss_then_hit () =
  with_frame (fun _tbl f ->
      let pm = Pmap.create () in
      (match Pmap.access pm ~vpn:5 ~write:false with
      | r when r = Pmap.miss -> ()
      | _ -> Alcotest.fail "expected miss");
      Pmap.enter pm ~vpn:5 ~frame:f ~prot:Pmap.Read_write;
      match Pmap.access pm ~vpn:5 ~write:false with
      | f' when f' >= 0 -> Alcotest.(check int) "same frame" (Frame.index f) f'
      | _ -> Alcotest.fail "expected hit")

let test_pmap_sets_hardware_bits () =
  with_frame (fun _tbl f ->
      let pm = Pmap.create () in
      Pmap.enter pm ~vpn:1 ~frame:f ~prot:Pmap.Read_write;
      ignore (Pmap.access pm ~vpn:1 ~write:false);
      Alcotest.(check bool) "ref set" true (Frame.referenced f);
      Alcotest.(check bool) "mod clear" false (Frame.modified f);
      ignore (Pmap.access pm ~vpn:1 ~write:true);
      Alcotest.(check bool) "mod set" true (Frame.modified f))

let test_pmap_protection () =
  with_frame (fun _tbl f ->
      let pm = Pmap.create () in
      Pmap.enter pm ~vpn:2 ~frame:f ~prot:Pmap.Read_only;
      (match Pmap.access pm ~vpn:2 ~write:true with
      | r when r = Pmap.protection_violation -> ()
      | _ -> Alcotest.fail "expected protection violation");
      (* reads are fine *)
      (match Pmap.access pm ~vpn:2 ~write:false with
      | f when f >= 0 -> ()
      | _ -> Alcotest.fail "expected read hit");
      Pmap.protect pm ~vpn:2 ~prot:Pmap.Read_write;
      match Pmap.access pm ~vpn:2 ~write:true with
      | f when f >= 0 -> ()
      | _ -> Alcotest.fail "expected hit after protect")

let test_pmap_remove () =
  with_frame (fun _tbl f ->
      let pm = Pmap.create () in
      Pmap.enter pm ~vpn:3 ~frame:f ~prot:Pmap.Read_write;
      Alcotest.(check int) "resident" 1 (Pmap.resident_count pm);
      Pmap.remove pm ~vpn:3;
      Alcotest.(check int) "gone" 0 (Pmap.resident_count pm);
      match Pmap.access pm ~vpn:3 ~write:false with
      | r when r = Pmap.miss -> ()
      | _ -> Alcotest.fail "expected miss after remove")

let test_pmap_va_conversion () =
  Alcotest.(check int) "vpn" 3 (Pmap.vpn_of_va (3 * 4096 + 123));
  Alcotest.(check int) "va" (3 * 4096) (Pmap.va_of_vpn 3)

(* ------------------------------------------------------------------ *)
(* Disk                                                                *)
(* ------------------------------------------------------------------ *)

let make_disk ?params () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:77 in
  let disk = Disk.create ?params ~engine ~rng () in
  (engine, disk)

let test_disk_read_completes () =
  let engine, disk = make_disk () in
  let done_at = ref T.zero in
  Disk.submit_read disk ~block:1000 ~nblocks:8 (fun e r ->
      Alcotest.(check bool) "clean read succeeds" true (Result.is_ok r);
      done_at := Engine.now e);
  Engine.run engine;
  Alcotest.(check bool) "took positive time" true T.(!done_at > T.zero);
  Alcotest.(check int) "one read" 1 (Disk.reads_completed disk);
  Alcotest.(check int) "no writes" 0 (Disk.writes_completed disk)

let test_disk_fifo_order () =
  let engine, disk = make_disk () in
  let order = ref [] in
  Disk.submit_read disk ~block:0 ~nblocks:1 (fun _ _ -> order := 1 :: !order);
  Disk.submit_read disk ~block:100_000 ~nblocks:1 (fun _ _ -> order := 2 :: !order);
  Disk.submit_write disk ~block:5_000 ~nblocks:1 (fun _ _ -> order := 3 :: !order);
  Engine.run engine;
  Alcotest.(check (list int)) "completion order" [ 1; 2; 3 ] (List.rev !order);
  Alcotest.(check int) "queue drained" 0 (Disk.queue_depth disk)

(* A deep mixed queue drains strictly in arrival order, a request
   submitted mid-drain joins the tail, and [queue_depth] counts the
   waiting requests plus the one in service. *)
let test_disk_fifo_deep_mixed () =
  let engine, disk = make_disk () in
  let n = 1_000 in
  let order = ref [] and depths = ref [] in
  let completed = ref 0 in
  let rec on_complete i _ _ =
    order := i :: !order;
    incr completed;
    depths := Disk.queue_depth disk :: !depths;
    if i = n / 2 then
      Disk.submit_read disk ~block:(n * 8) ~nblocks:8 (on_complete (n + 1))
  in
  for i = 1 to n do
    let block = i * 37 mod 100_000 * 8 in
    if i mod 3 = 0 then Disk.submit_write disk ~block ~nblocks:8 (on_complete i)
    else Disk.submit_read disk ~block ~nblocks:8 (on_complete i)
  done;
  Alcotest.(check int) "all queued" n (Disk.queue_depth disk);
  Engine.run engine;
  Alcotest.(check (list int)) "arrival order" (List.init (n + 1) (fun i -> i + 1))
    (List.rev !order);
  (* the late submission lifts every depth after the middle by one *)
  let expected =
    List.init (n + 1) (fun k ->
        let i = k + 1 in
        if i <= n / 2 then n - i + 1 else n - i + 2)
  in
  Alcotest.(check (list int)) "depth during the drain" expected (List.rev !depths);
  Alcotest.(check int) "queue drained" 0 (Disk.queue_depth disk);
  Alcotest.(check int) "reads" (n + 1 - (n / 3)) (Disk.reads_completed disk);
  Alcotest.(check int) "writes" (n / 3) (Disk.writes_completed disk)

(* Completing a request costs the same allocation whatever the backlog
   behind it: words per completion at 64 and at 1024 queued writes. *)
let test_disk_completion_allocation_flat () =
  let words_per_completion depth =
    let engine, disk = make_disk () in
    let on_complete _ _ = () in
    for i = 0 to depth - 1 do
      Disk.submit_write disk ~block:(i * 8) ~nblocks:8 on_complete
    done;
    let before = Gc.minor_words () in
    Engine.run engine;
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) "drained" depth (Disk.writes_completed disk);
    words /. float_of_int depth
  in
  let small = words_per_completion 64 and large = words_per_completion 1024 in
  if large -. small > 4. then
    Alcotest.failf "a completion allocates %.1f words at depth 64 but %.1f at 1024" small
      large

let test_disk_mean_page_read_latency () =
  (* Calibration guard: a scattered 4 KB read must average ~7.65 ms so
     that Table 3's with-I/O row reproduces (see DESIGN.md section 5). *)
  let _, disk = make_disk () in
  let rng = Rng.create ~seed:5 in
  let n = 5_000 in
  let total = ref 0. in
  for _ = 1 to n do
    let block = Rng.int rng (Disk.capacity_blocks disk - 8) in
    total := !total +. T.to_ms_f (Disk.service_time disk ~block ~nblocks:8)
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f ms within [7.0, 8.3]" mean)
    true
    (mean > 7.0 && mean < 8.3)

let test_disk_sequential_faster_than_random () =
  let _, disk = make_disk () in
  let rng = Rng.create ~seed:6 in
  let seq = ref 0. and rand = ref 0. in
  let n = 2_000 in
  for i = 0 to n - 1 do
    seq := !seq +. T.to_ms_f (Disk.service_time disk ~block:(i * 8) ~nblocks:8)
  done;
  for _ = 1 to n do
    let block = Rng.int rng (Disk.capacity_blocks disk - 8) in
    rand := !rand +. T.to_ms_f (Disk.service_time disk ~block ~nblocks:8)
  done;
  Alcotest.(check bool) "sequential beats random" true (!seq < !rand)

let test_disk_extent_checks () =
  let _, disk = make_disk () in
  Alcotest.check_raises "negative block" (Invalid_argument "Disk: extent out of range")
    (fun () -> ignore (Disk.service_time disk ~block:(-1) ~nblocks:1));
  Alcotest.check_raises "past end" (Invalid_argument "Disk: extent out of range") (fun () ->
      ignore (Disk.service_time disk ~block:(Disk.capacity_blocks disk) ~nblocks:1));
  Alcotest.check_raises "zero blocks" (Invalid_argument "Disk: nblocks <= 0") (fun () ->
      ignore (Disk.service_time disk ~block:0 ~nblocks:0))

let test_disk_busy_time_accumulates () =
  let engine, disk = make_disk () in
  Disk.submit_read disk ~block:0 ~nblocks:8 (fun _ _ -> ());
  Disk.submit_read disk ~block:999 ~nblocks:8 (fun _ _ -> ());
  Engine.run engine;
  Alcotest.(check bool) "busy time positive" true T.(Disk.busy_time disk > T.zero);
  (* the engine clock must have reached at least the total busy time *)
  Alcotest.(check bool) "clock >= busy" true
    T.(Engine.now engine >= Disk.busy_time disk)

(* ------------------------------------------------------------------ *)
(* Disk fault injection                                                *)
(* ------------------------------------------------------------------ *)

let faults_cfg ?(seed = 42) ?(read = 0.) ?(write = 0.) ?(spike = 0.) ?(bad = []) () =
  {
    Disk.Faults.seed;
    transient_read_rate = read;
    transient_write_rate = write;
    latency_spike_rate = spike;
    latency_spike = T.ms 20;
    bad_blocks = bad;
  }

let test_disk_out_of_range_is_error_not_raise () =
  let engine, disk = make_disk () in
  let got = ref None in
  Disk.submit_read disk ~block:(Disk.capacity_blocks disk) ~nblocks:8 (fun _ r ->
      got := Some r);
  Engine.run engine;
  (match !got with
  | Some (Error (Disk.Out_of_range _)) -> ()
  | Some (Ok ()) -> Alcotest.fail "out-of-range read reported success"
  | Some (Error e) -> Alcotest.fail ("wrong error: " ^ Disk.io_error_to_string e)
  | None -> Alcotest.fail "completion never delivered");
  Alcotest.(check int) "not counted as a completed read" 0 (Disk.reads_completed disk);
  match Disk.sync_transfer disk ~charge:ignore ~is_write:false ~block:(-1) ~nblocks:1 with
  | Error (Disk.Out_of_range _) -> ()
  | _ -> Alcotest.fail "sync out-of-range not reported"

let test_disk_transient_faults_counted () =
  let engine, disk = make_disk () in
  Disk.set_faults disk (faults_cfg ~read:0.2 ());
  let errors = ref 0 and oks = ref 0 in
  for i = 0 to 199 do
    Disk.submit_read disk ~block:(i * 8) ~nblocks:8 (fun _ r ->
        match r with Ok () -> incr oks | Error _ -> incr errors)
  done;
  Engine.run engine;
  Alcotest.(check int) "all delivered" 200 (!oks + !errors);
  Alcotest.(check int) "counter matches" !errors (Disk.faults_injected disk);
  Alcotest.(check bool) "some faults at 20%" true (!errors > 10);
  Alcotest.(check bool) "not all faults" true (!oks > 100)

let test_disk_bad_block_hits_every_time () =
  let engine, disk = make_disk () in
  Disk.set_faults disk (faults_cfg ~bad:[ 804 ] ());
  let results = ref [] in
  for _ = 1 to 3 do
    (* the extent 800..807 covers the bad block *)
    Disk.submit_write disk ~block:800 ~nblocks:8 (fun _ r -> results := r :: !results)
  done;
  Disk.submit_read disk ~block:808 ~nblocks:8 (fun _ r -> results := r :: !results);
  Engine.run engine;
  let bad, ok =
    List.partition (function Error (Disk.Bad_block _) -> true | _ -> false) !results
  in
  Alcotest.(check int) "every covering transfer fails" 3 (List.length bad);
  Alcotest.(check int) "neighbour extent is clean" 1 (List.length ok);
  Alcotest.(check int) "hits counted" 3 (Disk.bad_block_hits disk)

let test_disk_faults_deterministic_and_isolated () =
  (* same seed -> identical outcome sequence; and a zero-rate fault
     config must be bit-identical to the fault-free disk *)
  let outcomes cfg =
    let engine, disk = make_disk () in
    Option.iter (Disk.set_faults disk) cfg;
    let rng = Rng.create ~seed:9 in
    let log = ref [] in
    for _ = 1 to 100 do
      let block = Rng.int rng (Disk.capacity_blocks disk - 8) in
      Disk.submit_read disk ~block ~nblocks:8 (fun e r ->
          log := (T.to_ns (Engine.now e), Result.is_ok r) :: !log)
    done;
    Engine.run engine;
    List.rev !log
  in
  let cfg = Some (faults_cfg ~read:0.1 ~spike:0.1 ()) in
  Alcotest.(check bool) "same seed, same run" true (outcomes cfg = outcomes cfg);
  Alcotest.(check bool)
    "zero rates behave exactly like the fault-free model" true
    (outcomes None = outcomes (Some (faults_cfg ())))

(* ------------------------------------------------------------------ *)
(* Costs                                                               *)
(* ------------------------------------------------------------------ *)

let test_costs_calibration_table4 () =
  let c = Costs.default in
  Alcotest.(check int) "null syscall 19us" 19_000 (T.to_ns c.Costs.null_syscall);
  Alcotest.(check int) "null ipc 292us" 292_000 (T.to_ns c.Costs.null_ipc);
  (* the 3-command HiPEC fast path: Comp, DeQueue, Return ~ 150ns *)
  Alcotest.(check int) "fast path 150ns" 150
    (3 * T.to_ns c.Costs.hipec_fetch_decode)

let test_costs_calibration_table3 () =
  let c = Costs.default in
  let fault_us = T.to_us_f (T.add c.Costs.fault_trap c.Costs.fault_service) in
  Alcotest.(check bool)
    (Printf.sprintf "fault %.1f us near 392" fault_us)
    true
    (fault_us > 380. && fault_us < 400.);
  let hipec_extra =
    T.to_us_f
      (T.add c.Costs.hipec_dispatch
         (T.add c.Costs.hipec_frame_bookkeeping c.Costs.hipec_region_check))
  in
  (* target ~7 us -> 1.8 % of 392 us *)
  Alcotest.(check bool)
    (Printf.sprintf "hipec extra %.2f us near 7" hipec_extra)
    true
    (hipec_extra > 5.5 && hipec_extra < 8.5)

let test_costs_scale () =
  let c = Costs.scale Costs.default 2.0 in
  Alcotest.(check int) "scaled syscall" 38_000 (T.to_ns c.Costs.null_syscall);
  let z = Costs.scale Costs.default 0. in
  Alcotest.(check int) "zeroed" 0 (T.to_ns z.Costs.fault_trap)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_frame_table_conservation =
  QCheck.Test.make ~name:"frame table conserves frames" ~count:200
    QCheck.(list (int_bound 2))
    (fun ops ->
      let tbl = Frame.Table.create ~total:16 in
      let held = ref [] in
      List.iter
        (fun op ->
          match op with
          | 0 -> ( match Frame.Table.alloc tbl with Some f -> held := f :: !held | None -> ())
          | 1 -> (
              match !held with
              | f :: rest ->
                  Frame.Table.free tbl f;
                  held := rest
              | [] -> ())
          | _ ->
              let fs = Frame.Table.alloc_many tbl 3 in
              held := fs @ !held)
        ops;
      Frame.Table.check_conservation tbl
      && Frame.Table.free_count tbl + List.length !held = 16)

let prop_pmap_access_matches_lookup =
  QCheck.Test.make ~name:"pmap access consistent with lookup" ~count:200
    QCheck.(list (pair (int_bound 32) bool))
    (fun refs ->
      let tbl = Frame.Table.create ~total:64 in
      let pm = Pmap.create () in
      List.for_all
        (fun (vpn, write) ->
          match (Pmap.lookup pm ~vpn, Pmap.access pm ~vpn ~write) with
          | None, r when r = Pmap.miss ->
              (* install on miss, like a fault handler would *)
              (match Frame.Table.alloc tbl with
              | Some f -> Pmap.enter pm ~vpn ~frame:f ~prot:Pmap.Read_write
              | None -> ());
              true
          | Some _, f when f >= 0 -> true
          | _ -> false)
        refs)

(* The pmap's hardware ref/modify-bit emulation against a pure model:
   random enter/access/remove/protect sequences, then every frame's bits
   must match what the model accumulated.  Bits persist across [remove]
   (Mach keeps them per physical page) and are cleared by [alloc]. *)
let prop_pmap_refmod_model =
  QCheck.Test.make ~name:"pmap ref/modify emulation matches a pure model" ~count:300
    QCheck.(list (pair (int_bound 3) (pair (int_bound 7) bool)))
    (fun ops ->
      let tbl = Frame.Table.create ~total:16 in
      let pm = Pmap.create () in
      let frames = Hashtbl.create 8 in
      (* vpn -> (writable, referenced, modified) *)
      let model : (int, bool ref * bool ref * bool ref) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (op, (vpn, flag)) ->
          match op with
          | 0 ->
              if not (Hashtbl.mem frames vpn) then (
                match Frame.Table.alloc tbl with
                | None -> ()
                | Some f ->
                    Pmap.enter pm ~vpn ~frame:f
                      ~prot:(if flag then Pmap.Read_write else Pmap.Read_only);
                    Hashtbl.replace frames vpn f;
                    Hashtbl.replace model vpn (ref flag, ref false, ref false))
          | 1 -> (
              let result = Pmap.access pm ~vpn ~write:flag in
              match (Pmap.lookup pm ~vpn, result) with
              | None, r when r = Pmap.miss -> ()
              | None, _ -> QCheck.Test.fail_report "access disagrees with lookup"
              | Some _, r when r = Pmap.miss ->
                  QCheck.Test.fail_report "access disagrees with lookup"
              | Some _, result -> (
                  let rw, r, m = Hashtbl.find model vpn in
                  match result with
                  | r when r = Pmap.protection_violation ->
                      if !rw || not flag then
                        QCheck.Test.fail_report "unexpected protection violation"
                  | f when f >= 0 ->
                      if flag && not !rw then
                        QCheck.Test.fail_report "write hit on a read-only mapping";
                      r := true;
                      if flag then m := true
                  | _ -> assert false))
          | 2 -> Pmap.remove pm ~vpn
          | _ ->
              if Pmap.lookup pm ~vpn <> None then begin
                Pmap.protect pm ~vpn ~prot:(if flag then Pmap.Read_write else Pmap.Read_only);
                let rw, _, _ = Hashtbl.find model vpn in
                rw := flag
              end)
        ops;
      Hashtbl.fold
        (fun vpn f acc ->
          let _, r, m = Hashtbl.find model vpn in
          acc && Frame.referenced f = !r && Frame.modified f = !m)
        frames true)

(* Frame-table grant invariants: a held frame is never granted again,
   the free count plus the held set always conserves the total, and
   nothing held is ever marked free. *)
let prop_frame_no_double_grant =
  QCheck.Test.make ~name:"frame table never double-grants a held frame" ~count:300
    QCheck.(list (int_bound 3))
    (fun ops ->
      let total = 12 in
      let tbl = Frame.Table.create ~total in
      let held = Hashtbl.create 16 in
      let ok = ref true in
      let grant f =
        if Hashtbl.mem held (Frame.index f) then ok := false
        else Hashtbl.replace held (Frame.index f) f
      in
      List.iter
        (fun op ->
          match op with
          | 0 | 1 -> Option.iter grant (Frame.Table.alloc tbl)
          | 2 -> List.iter grant (Frame.Table.alloc_many tbl 2)
          | _ -> (
              match Hashtbl.fold (fun i f _ -> Some (i, f)) held None with
              | None -> ()
              | Some (i, f) ->
                  Frame.Table.free tbl f;
                  Hashtbl.remove held i))
        ops;
      !ok
      && Frame.Table.check_conservation tbl
      && Frame.Table.free_count tbl + Hashtbl.length held = total
      && Hashtbl.fold (fun _ f acc -> acc && not (Frame.is_free f)) held true)

let prop_disk_service_time_positive =
  QCheck.Test.make ~name:"disk service time positive and bounded" ~count:300
    QCheck.(pair (int_bound 511_000) (int_range 1 64))
    (fun (block, nblocks) ->
      let _, disk = make_disk () in
      let block = min block (Disk.capacity_blocks disk - nblocks) in
      let d = Disk.service_time disk ~block ~nblocks in
      T.(d > T.zero) && T.to_ms_f d < 100.)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "machine"
    [
      ( "frame",
        [
          Alcotest.test_case "alloc/free" `Quick test_frame_table_alloc_free;
          Alcotest.test_case "exhaustion" `Quick test_frame_table_exhaustion;
          Alcotest.test_case "alloc clears bits" `Quick test_frame_alloc_clears_bits;
          Alcotest.test_case "double free rejected" `Quick test_frame_double_free_rejected;
          Alcotest.test_case "wired free rejected" `Quick test_frame_wired_free_rejected;
        ] );
      ( "pmap",
        [
          Alcotest.test_case "miss then hit" `Quick test_pmap_miss_then_hit;
          Alcotest.test_case "hardware bits" `Quick test_pmap_sets_hardware_bits;
          Alcotest.test_case "protection" `Quick test_pmap_protection;
          Alcotest.test_case "remove" `Quick test_pmap_remove;
          Alcotest.test_case "va conversion" `Quick test_pmap_va_conversion;
        ] );
      ( "disk",
        [
          Alcotest.test_case "read completes" `Quick test_disk_read_completes;
          Alcotest.test_case "fifo order" `Quick test_disk_fifo_order;
          Alcotest.test_case "fifo order, deep mixed queue" `Quick test_disk_fifo_deep_mixed;
          Alcotest.test_case "completion allocation is flat" `Quick
            test_disk_completion_allocation_flat;
          Alcotest.test_case "mean page read latency" `Quick test_disk_mean_page_read_latency;
          Alcotest.test_case "sequential < random" `Quick test_disk_sequential_faster_than_random;
          Alcotest.test_case "extent checks" `Quick test_disk_extent_checks;
          Alcotest.test_case "busy time" `Quick test_disk_busy_time_accumulates;
          Alcotest.test_case "out-of-range is a typed error" `Quick
            test_disk_out_of_range_is_error_not_raise;
          Alcotest.test_case "transient faults counted" `Quick
            test_disk_transient_faults_counted;
          Alcotest.test_case "bad blocks persistent" `Quick
            test_disk_bad_block_hits_every_time;
          Alcotest.test_case "fault model deterministic+isolated" `Quick
            test_disk_faults_deterministic_and_isolated;
        ] );
      ( "costs",
        [
          Alcotest.test_case "table 4 calibration" `Quick test_costs_calibration_table4;
          Alcotest.test_case "table 3 calibration" `Quick test_costs_calibration_table3;
          Alcotest.test_case "scale" `Quick test_costs_scale;
        ] );
      ( "properties",
        qc
          [
            prop_frame_table_conservation;
            prop_pmap_access_matches_lookup;
            prop_pmap_refmod_model;
            prop_frame_no_double_grant;
            prop_disk_service_time_positive;
          ] );
    ]
