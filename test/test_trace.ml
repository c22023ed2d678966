(* Tests for lib/trace: the event codec, the collector, the Recorded
   file format, and deterministic record/replay of scenarios. *)

open Hipec_trace
open Hipec_workloads
module T = Hipec_sim.Sim_time

(* ------------------------------------------------------------------ *)
(* Event codec                                                         *)
(* ------------------------------------------------------------------ *)

let payload_gen =
  let open QCheck.Gen in
  let id = int_bound 1_000 in
  let big = int_bound 5_000_000 in
  let kind =
    oneofl
      Event.[ Soft; Zero_fill; File_pagein; Cow; Hipec ]
  in
  let source = oneofl Event.[ Policy; Daemon ] in
  let outc = oneofl Event.[ Returned; Policy_error; Policy_timeout ] in
  let reason = oneofl [ ""; "timeout"; "runtime error: DeQueue from empty queue" ] in
  oneof
    [
      (fun t v w -> Event.Access { task = t; vpn = v; write = w }) <$> id <*> big <*> bool;
      (fun t v k l -> Event.Fault { task = t; vpn = v; kind = k; latency_ns = l })
      <$> id <*> big <*> kind <*> big;
      (fun t b -> Event.Pagein { task = t; block = b }) <$> id <*> big;
      (fun o off b -> Event.Pageout { obj_id = o; offset = off; block = b })
      <$> id <*> big <*> big;
      (fun s o off d -> Event.Evict { source = s; obj_id = o; offset = off; dirty = d })
      <$> source <*> id <*> big <*> bool;
      (fun c f -> Event.Grant { container = c; frames = f }) <$> id <*> id;
      (fun c f forced -> Event.Reclaim { container = c; frames = f; forced })
      <$> id <*> id <*> bool;
      (fun c e o n -> Event.Policy_run { container = c; event = e; outcome = o; commands = n })
      <$> id <*> int_bound 7 <*> outc <*> big;
      (fun c r -> Event.Demote { container = c; reason = r }) <$> id <*> reason;
      (fun b w a g -> Event.Io_retry { block = b; write = w; attempt = a; gave_up = g })
      <$> big <*> bool <*> int_bound 8 <*> bool;
      (fun b n w ok -> Event.Disk_io { block = b; nblocks = n; write = w; ok })
      <$> big <*> int_bound 64 <*> bool <*> bool;
      (fun v e -> Event.Map_op { vpn = v; enter = e }) <$> big <*> bool;
      (fun t r -> Event.Task_kill { task = t; reason = r }) <$> id <*> reason;
    ]

let event_gen =
  QCheck.Gen.(
    (fun time payload -> { Event.seq = 0; time = T.ns time; payload })
    <$> int_bound 100_000_000 <*> payload_gen)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"event codec round-trips" ~count:500
    (QCheck.make
       ~print:(fun evs -> String.concat "; " (List.map (Format.asprintf "%a" Event.pp) evs))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 1 20) event_gen))
    (fun events ->
      let events = List.mapi (fun seq ev -> { ev with Event.seq }) events in
      let b = Encoder.create 16 in
      List.iter (Event.encode b) events;
      let s = Encoder.contents b in
      let pos = ref 0 in
      let decoded = List.mapi (fun seq _ -> Event.decode s ~pos ~seq) events in
      !pos = String.length s && decoded = events)

(* One event of every payload kind, with the bytes written out by hand:
   the tag, the time varint, then the fields in declaration order.
   Varint fields cover 0, 127, 128 (the first two-byte value) and
   [max_int]; the two reasons are longer than the writer's initial
   storage, so encoding them has to grow it. *)
let hex s =
  String.split_on_char ' ' s
  |> List.filter (( <> ) "")
  |> List.map (fun h -> String.make 1 (Char.chr (int_of_string ("0x" ^ h))))
  |> String.concat ""

let max_int_varint = "ff ff ff ff ff ff ff ff 3f"
let long_reason = String.init 200 (fun i -> Char.chr (Char.code 'a' + (i mod 26)))
let longer_reason = String.make 300 'k'

let codec_cases =
  let ev time payload = { Event.seq = 0; time = T.ns time; payload } in
  [
    ( ev 128 (Event.Access { task = 0; vpn = 127; write = true }),
      hex "00 80 01 00 7f 01" );
    ( ev 0 (Event.Fault { task = 128; vpn = max_int; kind = Event.Hipec; latency_ns = 0 }),
      hex ("01 00 80 01 " ^ max_int_varint ^ " 04 00") );
    (ev max_int (Event.Pagein { task = 127; block = 128 }), hex ("02 " ^ max_int_varint ^ " 7f 80 01"));
    ( ev 127 (Event.Pageout { obj_id = 0; offset = 128; block = max_int }),
      hex ("03 7f 00 80 01 " ^ max_int_varint) );
    ( ev 1 (Event.Evict { source = Event.Daemon; obj_id = 127; offset = 0; dirty = false }),
      hex "04 01 01 7f 00 00" );
    (ev 0 (Event.Grant { container = 128; frames = 127 }), hex "05 00 80 01 7f");
    ( ev 0 (Event.Reclaim { container = 0; frames = max_int; forced = true }),
      hex ("06 00 00 " ^ max_int_varint ^ " 01") );
    ( ev 0
        (Event.Policy_run
           { container = 1; event = 2; outcome = Event.Policy_timeout; commands = 128 }),
      hex "07 00 01 02 02 80 01" );
    ( ev 0 (Event.Demote { container = 127; reason = long_reason }),
      hex "08 00 7f c8 01" ^ long_reason );
    ( ev 0 (Event.Io_retry { block = 128; write = false; attempt = 3; gave_up = true }),
      hex "09 00 80 01 00 03 01" );
    ( ev 0 (Event.Disk_io { block = max_int; nblocks = 128; write = true; ok = false }),
      hex ("0a 00 " ^ max_int_varint ^ " 80 01 01 00") );
    (ev 0 (Event.Map_op { vpn = 128; enter = false }), hex "0b 00 80 01 00");
    ( ev 0 (Event.Task_kill { task = 0; reason = longer_reason }),
      hex "0c 00 00 ac 02" ^ longer_reason );
    ( ev 0 (Event.Pressure_change { level = 3; free = max_int }),
      hex ("0d 00 03 " ^ max_int_varint) );
    (ev 0 (Event.Throttle { container = 128; entered = true; fuel = 0 }), hex "0e 00 80 01 01 00");
    (ev 0 (Event.Seize { container = 0; frames = 127; level = 2 }), hex "0f 00 00 7f 02");
  ]

let test_codec_exact_bytes () =
  Alcotest.(check int) "every payload kind covered" Event.num_categories
    (List.length (List.sort_uniq compare (List.map (fun (ev, _) -> Event.tag ev.Event.payload) codec_cases)));
  let e = Encoder.create 16 in
  List.iter
    (fun (ev, expected) ->
      let name = Event.category_name (Event.tag ev.Event.payload) in
      Encoder.clear e;
      Event.encode e ev;
      let bytes = Encoder.contents e in
      Alcotest.(check string) (name ^ " bytes") expected bytes;
      let pos = ref 0 in
      let back = Event.decode bytes ~pos ~seq:0 in
      Alcotest.(check bool) (name ^ " decodes back") true (back = ev);
      Alcotest.(check int) (name ^ " consumes every byte") (String.length bytes) !pos)
    codec_cases;
  (* one writer, appended to: the events decode back in order *)
  Encoder.clear e;
  List.iter (fun (ev, _) -> Event.encode e ev) codec_cases;
  let all = Encoder.contents e in
  Alcotest.(check string) "stream is the concatenation"
    (String.concat "" (List.map snd codec_cases))
    all;
  let pos = ref 0 in
  List.iter
    (fun (ev, _) -> Alcotest.(check bool) "stream decodes" true (Event.decode all ~pos ~seq:0 = ev))
    codec_cases

let test_encoder_rejects_negative () =
  Alcotest.check_raises "negative varint" (Invalid_argument "Encoder.put_varint: negative field")
    (fun () -> Encoder.put_varint (Encoder.create 16) (-1))

(* The digest over the writer's bytes equals the digest over the same
   bytes as a string, which is what [Recorded.load] recomputes. *)
let test_digest_agrees_on_string () =
  let e = Encoder.create 16 in
  List.iter (fun (ev, _) -> Event.encode e ev) codec_cases;
  let d1 = Encoder.digest () in
  Encoder.digest_add d1 e;
  let s = Encoder.contents e in
  let d2 = Encoder.digest () in
  Encoder.digest_add_string d2 ("xx" ^ s ^ "yy") ~pos:2 ~len:(String.length s);
  Alcotest.(check string) "same digest"
    (Trace.digest_hex (Encoder.digest_value d1))
    (Trace.digest_hex (Encoder.digest_value d2));
  (* FNV-1a 64 of "a" *)
  let d = Encoder.digest () in
  Encoder.digest_add_string d "a" ~pos:0 ~len:1;
  Alcotest.(check string) "reference value" "af63dc4c8601ec8c"
    (Trace.digest_hex (Encoder.digest_value d))

(* Encoding an event into a warm writer and folding it into the digest
   is the collector's per-event work; neither step allocates. *)
let test_encode_digest_allocates_nothing () =
  let e = Encoder.create 64 in
  let d = Encoder.digest () in
  let ev =
    {
      Event.seq = 0;
      time = T.ns 123_456_789;
      payload = Event.Fault { task = 3; vpn = 70_000; kind = Event.Hipec; latency_ns = 9_000_000 };
    }
  in
  let probe () =
    for _ = 1 to 10_000 do
      Encoder.clear e;
      Event.encode e ev;
      Encoder.digest_add d e
    done
  in
  probe ();
  let w0 = Gc.minor_words () in
  probe ();
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words" 0. (w1 -. w0)

(* ------------------------------------------------------------------ *)
(* Collector basics                                                    *)
(* ------------------------------------------------------------------ *)

let test_disabled_sink_is_inert () =
  Alcotest.(check bool) "off" false (Trace.on ());
  (* emitters must be a no-op without a collector, not an error *)
  Trace.access ~task:1 ~vpn:2 ~write:true;
  Trace.fault ~task:1 ~vpn:2 ~kind:Event.Soft ~latency_ns:0;
  Trace.demote ~container:0 ~reason:"x";
  Alcotest.(check bool) "still off" false (Trace.on ())

let test_collector_counts_and_ring () =
  let c = Trace.start ~ring:4 () in
  Trace.access ~task:7 ~vpn:1 ~write:false;
  Trace.access ~task:7 ~vpn:2 ~write:true;
  Trace.pagein ~task:7 ~block:99;
  ignore (Trace.stop ());
  Alcotest.(check int) "events" 3 (Trace.events_seen c);
  Alcotest.(check int) "access count" 2
    (Trace.counts c).(Event.tag (Event.Access { task = 0; vpn = 0; write = false }));
  Alcotest.(check int) "ring holds all" 3 (List.length (Trace.recent c));
  (* normalization: first-seen task id 7 becomes 0 *)
  match (List.hd (Trace.recent c)).Event.payload with
  | Event.Access { task; vpn; write } ->
      Alcotest.(check int) "task normalized" 0 task;
      Alcotest.(check int) "vpn raw" 1 vpn;
      Alcotest.(check bool) "read" false write
  | _ -> Alcotest.fail "wrong payload"

(* With no collector installed every emitter is one match on the sink
   and allocates nothing, guarded by [Trace.on] or not. *)
let test_disabled_emitters_allocate_nothing () =
  Alcotest.(check bool) "no collector installed" false (Trace.on ());
  let probe () =
    for i = 0 to 9_999 do
      Trace.access ~task:1 ~vpn:i ~write:true;
      Trace.fault ~task:1 ~vpn:i ~kind:Event.Soft ~latency_ns:i;
      Trace.pagein ~task:1 ~block:i;
      Trace.pageout ~obj:2 ~offset:i ~block:i;
      Trace.evict ~source:Event.Daemon ~obj:2 ~offset:i ~dirty:false;
      Trace.grant ~container:3 ~frames:i;
      Trace.reclaim ~container:3 ~frames:i ~forced:true;
      Trace.policy_run ~container:3 ~event:1 ~outcome:Event.Returned ~commands:i;
      Trace.demote ~container:3 ~reason:"policy error";
      Trace.io_retry ~block:i ~write:false ~attempt:1 ~gave_up:false;
      Trace.disk_io ~block:i ~nblocks:1 ~write:true ~ok:true;
      Trace.map_op ~vpn:i ~enter:true;
      Trace.kill ~task:1 ~reason:"killed";
      Trace.pressure ~level:2 ~free:i;
      Trace.throttle ~container:3 ~entered:true ~fuel:i;
      Trace.seize ~container:3 ~frames:i ~level:3
    done
  in
  probe ();
  let w0 = Gc.minor_words () in
  probe ();
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words" 0. (w1 -. w0)

(* Once the ring wraps it holds exactly the last [ring] events, and
   [recent] returns them oldest first. *)
let test_ring_wraps () =
  let c = Trace.start ~ring:4 () in
  for vpn = 0 to 9 do
    Trace.map_op ~vpn ~enter:true
  done;
  ignore (Trace.stop ());
  let recent = Trace.recent c in
  Alcotest.(check (list int)) "sequence numbers" [ 6; 7; 8; 9 ]
    (List.map (fun ev -> ev.Event.seq) recent);
  Alcotest.(check (list int)) "payloads" [ 6; 7; 8; 9 ]
    (List.map
       (fun ev ->
         match ev.Event.payload with Event.Map_op { vpn; _ } -> vpn | _ -> -1)
       recent)

(* Each id space numbers its raw ids densely in first-seen order, however
   the raw ids are spread: clustered, strided onto the same slots,
   negative, or far apart, and across the table's growth. *)
let test_ids_normalize_first_seen () =
  let raws =
    [ 5; 1_000_000; -3; 5; 0; max_int; -3 ]
    @ List.init 3_000 (fun i -> i * 64)
    @ List.init 3_000 (fun i -> 7 + (i * 13))
    @ [ 1_000_000; 5; max_int ]
  in
  let c = Trace.start ~store:true () in
  List.iter (fun task -> Trace.access ~task ~vpn:0 ~write:false) raws;
  Trace.pageout ~obj:1_000_000 ~offset:0 ~block:0;
  ignore (Trace.stop ());
  let reference = Hashtbl.create 64 in
  let expected =
    List.map
      (fun raw ->
        match Hashtbl.find_opt reference raw with
        | Some d -> d
        | None ->
            let d = Hashtbl.length reference in
            Hashtbl.add reference raw d;
            d)
      raws
  in
  let events = Array.to_list (Trace.events c) in
  Alcotest.(check (list int)) "tasks in first-seen order" expected
    (List.filter_map
       (fun ev -> match ev.Event.payload with Event.Access { task; _ } -> Some task | _ -> None)
       events);
  Alcotest.(check bool) "object ids are their own space" true
    (List.exists
       (fun ev -> match ev.Event.payload with Event.Pageout { obj_id = 0; _ } -> true | _ -> false)
       events)

let test_stop_restores_silence () =
  ignore (Trace.start ());
  ignore (Trace.stop ());
  Alcotest.(check bool) "off after stop" false (Trace.on ())

(* ------------------------------------------------------------------ *)
(* Record / replay determinism                                         *)
(* ------------------------------------------------------------------ *)

let small_cfg =
  { Trace_run.default_policy_cfg with Trace_run.npages = 64; frames = 16; count = 800 }

let record_ok sc =
  match Trace_run.record sc with Ok r -> r | Error e -> Alcotest.fail e

let test_same_seed_same_digest () =
  let r1 = record_ok (Trace_run.Policy small_cfg) in
  let r2 = record_ok (Trace_run.Policy small_cfg) in
  Alcotest.(check string) "digest"
    (Trace.digest_hex r1.Trace.Recorded.digest)
    (Trace.digest_hex r2.Trace.Recorded.digest);
  Alcotest.(check int) "events"
    (Array.length r1.Trace.Recorded.events)
    (Array.length r2.Trace.Recorded.events);
  Alcotest.(check bool) "nonempty" true (Array.length r1.Trace.Recorded.events > 0)

let test_different_seed_different_digest () =
  let r1 = record_ok (Trace_run.Policy small_cfg) in
  let r2 =
    record_ok (Trace_run.Policy { small_cfg with Trace_run.pattern = "zipf"; seed = 99 })
  in
  Alcotest.(check bool) "digests differ" false
    (Int64.equal r1.Trace.Recorded.digest r2.Trace.Recorded.digest)

let test_replay_reproduces_digest () =
  let r = record_ok (Trace_run.Policy { small_cfg with Trace_run.pattern = "zipf" }) in
  match Trace_run.replay r with
  | Error e -> Alcotest.fail e
  | Ok o ->
      Alcotest.(check bool) "digest reproduced" true (Trace_run.matches o);
      Alcotest.(check bool) "no divergence" true (o.Trace_run.divergence = None)

(* A phased trace over fewer pages than half the frames used to raise
   from the working-set generator; it now phases over every page. *)
let test_phased_small_region () =
  let cfg =
    { small_cfg with Trace_run.pattern = "phased"; policy = "lru"; npages = 19; frames = 42 }
  in
  let r = record_ok (Trace_run.Policy cfg) in
  Alcotest.(check bool) "recorded" true (Array.length r.Trace.Recorded.events > 0)

let test_workload_replay_reproduces_digest () =
  let r = record_ok (Trace_run.Named "join-small") in
  match Trace_run.replay r with
  | Error e -> Alcotest.fail e
  | Ok o -> Alcotest.(check bool) "digest reproduced" true (Trace_run.matches o)

(* ------------------------------------------------------------------ *)
(* Recorded file format                                                *)
(* ------------------------------------------------------------------ *)

let test_save_load_roundtrip () =
  let r = record_ok (Trace_run.Policy small_cfg) in
  let path = "roundtrip.trace" in
  Trace.Recorded.save r ~path;
  (match Trace.Recorded.load ~path with
  | Error e -> Alcotest.fail e
  | Ok r' ->
      Alcotest.(check string) "digest survives"
        (Trace.digest_hex r.Trace.Recorded.digest)
        (Trace.digest_hex r'.Trace.Recorded.digest);
      Alcotest.(check int) "events survive"
        (Array.length r.Trace.Recorded.events)
        (Array.length r'.Trace.Recorded.events);
      Alcotest.(check bool) "meta survives" true
        (Trace.Recorded.meta_find r' "pattern" = Some "cyclic");
      Alcotest.(check bool) "streams identical" true
        (Trace.Recorded.diff r r' = None));
  Sys.remove path

let test_load_detects_corruption () =
  let r = record_ok (Trace_run.Policy small_cfg) in
  let path = "corrupt.trace" in
  Trace.Recorded.save r ~path;
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string contents in
  (* flip a bit deep inside the event stream *)
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  (match Trace.Recorded.load ~path with
  | Ok _ -> Alcotest.fail "corruption not detected"
  | Error _ -> ());
  Sys.remove path

let test_diff_finds_first_divergence () =
  let r1 = record_ok (Trace_run.Policy small_cfg) in
  let r2 = record_ok (Trace_run.Policy { small_cfg with Trace_run.seed = 3 }) in
  Alcotest.(check bool) "self diff clean" true (Trace.Recorded.diff r1 r1 = None);
  if Int64.equal r1.Trace.Recorded.digest r2.Trace.Recorded.digest then
    Alcotest.fail "expected different digests"
  else
    match Trace.Recorded.diff r1 r2 with
    | None -> Alcotest.fail "digests differ but diff found nothing"
    | Some d ->
        Alcotest.(check bool) "seq within streams" true
          (d.Trace.Recorded.seq >= 0
          && d.Trace.Recorded.seq
             <= max
                  (Array.length r1.Trace.Recorded.events)
                  (Array.length r2.Trace.Recorded.events))

let test_json_export_parses_shape () =
  let r = record_ok (Trace_run.Policy small_cfg) in
  let json = Trace.Recorded.to_json r in
  Alcotest.(check bool) "has digest" true
    (let needle = Printf.sprintf "%S:%S" "digest" (Trace.digest_hex r.Trace.Recorded.digest) in
     let rec find i =
       i + String.length needle <= String.length json
       && (String.sub json i (String.length needle) = needle || find (i + 1))
     in
     find 0)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "trace"
    [
      ( "codec",
        qc [ prop_codec_roundtrip ]
        @ [
            Alcotest.test_case "exact bytes per payload kind" `Quick test_codec_exact_bytes;
            Alcotest.test_case "negative field rejected" `Quick test_encoder_rejects_negative;
            Alcotest.test_case "digest agrees on strings" `Quick test_digest_agrees_on_string;
            Alcotest.test_case "encode and digest allocate nothing" `Quick
              test_encode_digest_allocates_nothing;
          ] );
      ( "collector",
        [
          Alcotest.test_case "disabled sink inert" `Quick test_disabled_sink_is_inert;
          Alcotest.test_case "disabled emitters allocate nothing" `Quick
            test_disabled_emitters_allocate_nothing;
          Alcotest.test_case "counts and ring" `Quick test_collector_counts_and_ring;
          Alcotest.test_case "ring wraps" `Quick test_ring_wraps;
          Alcotest.test_case "ids normalize in first-seen order" `Quick
            test_ids_normalize_first_seen;
          Alcotest.test_case "stop restores silence" `Quick test_stop_restores_silence;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed same digest" `Quick test_same_seed_same_digest;
          Alcotest.test_case "different seed different digest" `Quick
            test_different_seed_different_digest;
          Alcotest.test_case "replay reproduces digest" `Quick test_replay_reproduces_digest;
          Alcotest.test_case "workload replay reproduces digest" `Quick
            test_workload_replay_reproduces_digest;
          Alcotest.test_case "phased trace over a small region" `Quick
            test_phased_small_region;
        ] );
      ( "recorded",
        [
          Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
          Alcotest.test_case "load detects corruption" `Quick test_load_detects_corruption;
          Alcotest.test_case "diff finds divergence" `Quick test_diff_finds_first_divergence;
          Alcotest.test_case "json export" `Quick test_json_export_parses_shape;
        ] );
    ]
