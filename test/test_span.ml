(* Span reconstruction: the tiling invariant (segments sum exactly to
   each fault's recorded latency), online/offline equivalence (spans
   built live through [Trace.set_consumer] digest-identically to spans
   rebuilt from the recorded stream), cross-backend digest identity on
   every golden scenario, the zero-cost-when-disabled guard, and the
   builder's own allocation: none per non-fault event once warmed, and
   a close whose cost does not grow with its window's events. *)

open Hipec_trace
open Hipec_workloads
open Hipec_core
open Hipec_sim

let small_cfg =
  { Trace_run.default_policy_cfg with Trace_run.npages = 64; frames = 16; count = 800 }

let record_ok sc =
  match Trace_run.record sc with Ok r -> r | Error e -> Alcotest.fail e

(* Record [sc] with an online span builder installed as the collector's
   consumer; returns the live builder alongside the recording, so tests
   can compare it against an offline rebuild of the same stream. *)
let record_online sc =
  let b = Span.create () in
  let c = Trace.start ~store:true () in
  Trace.set_consumer (Some (Span.feed b));
  let result = try Trace_run.run_scenario sc with e -> ignore (Trace.stop ()); raise e in
  ignore (Trace.stop ());
  match result with
  | Error e -> Alcotest.fail e
  | Ok () -> (b, Trace.Recorded.of_collector c ~meta:[])

let fault_events (r : Trace.Recorded.t) =
  Array.fold_left
    (fun n ev ->
      match ev.Event.payload with Event.Fault _ -> n + 1 | _ -> n)
    0 r.Trace.Recorded.events

(* The structural invariants every span must satisfy on top of the
   exact-sum check the builder already enforces internally. *)
let check_span_invariants name (s : Span.t) =
  let n = Array.length s.Span.segments in
  Alcotest.(check bool) (name ^ ": span has segments") true (n > 0 || s.Span.latency_ns = 0);
  let sum = Array.fold_left (fun a seg -> a + Span.seg_dur_ns seg) 0 s.Span.segments in
  Alcotest.(check int)
    (Printf.sprintf "%s: fault %d segments sum to latency" name s.Span.index)
    s.Span.latency_ns sum;
  (* contiguous tiling, left to right *)
  let pos = ref s.Span.start_ns in
  Array.iter
    (fun seg ->
      Alcotest.(check int)
        (Printf.sprintf "%s: fault %d tiling is gapless" name s.Span.index)
        !pos seg.Span.seg_start_ns;
      Alcotest.(check bool)
        (Printf.sprintf "%s: fault %d segment is forward" name s.Span.index)
        true (seg.Span.seg_stop_ns > seg.Span.seg_start_ns);
      pos := seg.Span.seg_stop_ns)
    s.Span.segments;
  if n > 0 then
    Alcotest.(check int)
      (Printf.sprintf "%s: fault %d tiling reaches stop" name s.Span.index)
      s.Span.stop_ns !pos;
  (* per-kind rollup agrees with the segments *)
  let by_kind = Span.by_kind_ns s in
  Alcotest.(check int)
    (Printf.sprintf "%s: fault %d by_kind_ns sums to latency" name s.Span.index)
    s.Span.latency_ns
    (Array.fold_left ( + ) 0 by_kind);
  (* phases cover the same window with the same segment count *)
  let phases = Span.phases s in
  let phase_segs = List.fold_left (fun a (_, _, _, k) -> a + k) 0 phases in
  Alcotest.(check int)
    (Printf.sprintf "%s: fault %d phases cover all segments" name s.Span.index)
    n phase_segs

let check_builder name (r : Trace.Recorded.t) b =
  Alcotest.(check int) (name ^ ": one span per fault") (fault_events r)
    (Span.fault_count b);
  Array.iter (check_span_invariants name) (Span.spans b);
  let agg = Span.Agg.compute (Span.spans b) in
  let row_total = List.fold_left (fun a r -> a + r.Span.Agg.total_ns) 0 agg.Span.Agg.rows in
  Alcotest.(check int) (name ^ ": agg rows sum to total latency")
    agg.Span.Agg.total_latency_ns row_total

(* --- exact-sum tiling over recorded scenarios ----------------------- *)

let scenario_names = "policy" :: Trace_run.named_scenarios

let test_tiling name () =
  let sc =
    match Trace_run.scenario_of_name name with
    | Some sc -> sc
    | None -> Alcotest.fail ("unknown scenario " ^ name)
  in
  let r = record_ok sc in
  check_builder name r (Span.of_events r.Trace.Recorded.events)

let test_tiling_small () =
  let r = record_ok (Trace_run.Policy small_cfg) in
  let b = Span.of_events r.Trace.Recorded.events in
  check_builder "small" r b;
  Alcotest.(check bool) "small scenario produced faults" true (Span.fault_count b > 0)

(* --- golden recordings gain spans for free -------------------------- *)

let golden_dir =
  if Sys.file_exists "golden/digests.txt" then "golden" else "test/golden"

let golden_traces () =
  Sys.readdir golden_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".trace")
  |> List.sort compare

let test_golden_trace file () =
  match Trace.Recorded.load ~path:(Filename.concat golden_dir file) with
  | Error e -> Alcotest.fail e
  | Ok r ->
      let b = Span.of_events r.Trace.Recorded.events in
      check_builder file r b

(* --- online == offline ---------------------------------------------- *)

let test_online_offline name () =
  let sc =
    match Trace_run.scenario_of_name name with
    | Some sc -> sc
    | None -> Alcotest.fail ("unknown scenario " ^ name)
  in
  let online, r = record_online sc in
  let offline = Span.of_events r.Trace.Recorded.events in
  Alcotest.(check int) (name ^ ": same fault count") (Span.fault_count offline)
    (Span.fault_count online);
  Alcotest.(check string)
    (name ^ ": online and offline span digests agree")
    (Trace.digest_hex (Span.digest offline))
    (Trace.digest_hex (Span.digest online))

(* qcheck: the same property on random checker-accepted policy runs *)
let cfg_gen =
  QCheck.Gen.(
    let* pattern = oneofl Trace_run.pattern_names in
    let* policy = oneofl Trace_run.policy_names in
    let* npages = 16 -- 96 in
    let* frames = 8 -- 48 in
    let* count = 200 -- 900 in
    let+ seed = 1 -- 10_000 in
    { Trace_run.pattern; npages; frames; policy; count; seed })

let cfg_print (c : Trace_run.policy_cfg) =
  Printf.sprintf "{pattern=%s; policy=%s; npages=%d; frames=%d; count=%d; seed=%d}"
    c.Trace_run.pattern c.Trace_run.policy c.Trace_run.npages c.Trace_run.frames
    c.Trace_run.count c.Trace_run.seed

let prop_online_offline =
  QCheck.Test.make ~count:12 ~name:"random policy runs: online digest = offline digest"
    (QCheck.make ~print:cfg_print cfg_gen) (fun cfg ->
      let online, r = record_online (Trace_run.Policy cfg) in
      let offline = Span.of_events r.Trace.Recorded.events in
      Array.iter (check_span_invariants "qcheck") (Span.spans offline);
      Int64.equal (Span.digest online) (Span.digest offline)
      && Span.fault_count online = Span.fault_count offline)

(* --- cross-backend digest identity ---------------------------------- *)

let span_digest_on backend sc =
  Executor.with_backend backend (fun () ->
      let r = record_ok sc in
      Span.digest (Span.of_events r.Trace.Recorded.events))

let test_backends name () =
  let sc =
    match Trace_run.scenario_of_name name with
    | Some sc -> sc
    | None -> Alcotest.fail ("unknown scenario " ^ name)
  in
  Alcotest.(check string)
    (name ^ ": Interp and Compiled span digests agree")
    (Trace.digest_hex (span_digest_on Executor.Interp sc))
    (Trace.digest_hex (span_digest_on Executor.Compiled sc))

(* --- exporters stay well-formed ------------------------------------- *)

let test_exporters () =
  let r = record_ok (Trace_run.Policy small_cfg) in
  let b = Span.of_events r.Trace.Recorded.events in
  let spans = Span.spans b in
  let pf = Span.to_perfetto spans in
  Alcotest.(check bool) "perfetto export is non-trivial" true
    (String.length pf > 2 && pf.[0] = '{');
  let json = Span.to_json ~include_spans:true b in
  Alcotest.(check bool) "json export mentions the digest" true
    (String.length json > 2 && json.[0] = '{');
  (* every span renders *)
  Array.iter (fun s -> ignore (Format.asprintf "%a" Span.pp_span s)) spans;
  ignore (Format.asprintf "%a" Span.Agg.pp (Span.Agg.compute spans))

(* --- zero cost when disabled ---------------------------------------- *)

(* The emit contract: with no stage attached to the sink, a guarded
   emit must not allocate at all — this pins the spans layer (and any
   future consumer) to the same bargain. *)
let test_disabled_alloc () =
  Alcotest.(check bool) "no collector installed" false (Trace.on ());
  Trace.set_consumer None;
  let probe () =
    for i = 0 to 9_999 do
      if Trace.on () then Trace.fault ~task:0 ~vpn:i ~kind:Event.Soft ~latency_ns:i
    done
  in
  probe ();
  (* warmed up *)
  let w0 = Gc.minor_words () in
  probe ();
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "guarded emit allocates nothing when disabled" 0.
    (w1 -. w0)

(* --- the builder keeps no events ------------------------------------ *)

let event seq t payload = { Event.seq; time = Sim_time.ns t; payload }

let gap_payloads =
  [|
    Event.Access { task = 0; vpn = 1; write = false };
    Event.Policy_run { container = 0; event = 0; outcome = Event.Returned; commands = 3 };
    Event.Disk_io { block = 7; nblocks = 1; write = false; ok = true };
    Event.Disk_io { block = 8; nblocks = 1; write = true; ok = true };
    Event.Io_retry { block = 7; write = false; attempt = 1; gave_up = false };
    Event.Evict { source = Event.Daemon; obj_id = 0; offset = 2; dirty = false };
    Event.Map_op { vpn = 1; enter = true };
  |]

(* [n] non-fault events from time [t0], every three sharing a time *)
let gap_events ~t0 n =
  Array.init n (fun i -> event i (t0 + (i / 3)) gap_payloads.(i mod Array.length gap_payloads))

let fault_at t latency_ns =
  event 0 t (Event.Fault { task = 0; vpn = 1; kind = Event.Hipec; latency_ns })

let feed_words b evs =
  let w0 = Gc.minor_words () in
  for i = 0 to Array.length evs - 1 do
    Span.feed b evs.(i)
  done;
  Gc.minor_words () -. w0

let test_feed_alloc () =
  let b = Span.create () in
  let evs = gap_events ~t0:1_000 10_000 in
  let fault = fault_at 5_000 2_500 in
  ignore (feed_words b evs);
  Span.feed b fault;
  (* warmed: the group array has grown to this gap *)
  Alcotest.(check (float 0.)) "10,000 non-fault events allocate nothing" 0. (feed_words b evs);
  Span.feed b fault;
  Alcotest.(check int) "both windows closed" 2 (Span.fault_count b)

let test_close_alloc () =
  let b = Span.create () in
  let close_words nevents t =
    ignore (feed_words b (Array.make nevents (event 0 (t - 100) gap_payloads.(1))));
    feed_words b [| fault_at t 200 |]
  in
  ignore (close_words 1_000 10_000);
  let one = close_words 1 20_000 and many = close_words 1_000 30_000 in
  Alcotest.(check (float 0.)) "a close allocates the same for 1 and 1,000 events" one many;
  let sp = (Span.spans b).(Span.fault_count b - 1) in
  Alcotest.(check int) "1,000 policy runs counted" 1_000 sp.Span.policy_runs;
  Alcotest.(check int) "two segments" 2 (Array.length sp.Span.segments)

let () =
  Alcotest.run "span"
    [
      ( "tiling",
        Alcotest.test_case "small policy run" `Quick test_tiling_small
        :: List.map
             (fun name -> Alcotest.test_case name `Quick (test_tiling name))
             scenario_names );
      ( "golden",
        List.map
          (fun file -> Alcotest.test_case file `Quick (test_golden_trace file))
          (golden_traces ()) );
      ( "online-offline",
        List.map
          (fun name -> Alcotest.test_case name `Quick (test_online_offline name))
          scenario_names
        @ [ QCheck_alcotest.to_alcotest prop_online_offline ] );
      ( "backends",
        List.map
          (fun name -> Alcotest.test_case name `Quick (test_backends name))
          scenario_names );
      ( "exporters", [ Alcotest.test_case "perfetto and json" `Quick test_exporters ] );
      ( "disabled", [ Alcotest.test_case "allocation-free" `Quick test_disabled_alloc ] );
      ( "allocation",
        [
          Alcotest.test_case "warmed builder: non-fault events allocate nothing" `Quick
            test_feed_alloc;
          Alcotest.test_case "close cost is independent of window events" `Quick
            test_close_alloc;
        ] );
    ]
