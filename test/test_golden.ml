(* Golden-trace digests: each named scenario under its fixed seed must
   reproduce the digest and event count pinned in golden/digests.txt.

   A mismatch means the simulation's observable event stream changed.
   If the change is intentional, regenerate the line with

     dune exec bin/hipec_cli.exe -- trace record --scenario NAME

   and update golden/digests.txt with the printed digest and count.

   Lines named "trace:NAME" pin checked-in recordings (golden/NAME.trace)
   instead of regenerable scenarios — the adversary's anomaly witnesses.
   Each must load with the pinned digest and replay digest-identically on
   both executor backends, and a lo/hi pair of the same witness must
   still fault more at the larger grant.

   Lines named "metrics:NAME" (two fields, no event count) pin the
   metrics snapshot of scenario NAME: the digest of
   [Metrics.Registry.to_json ~wall:false] after one run under a fresh
   registry.  The run is checked twice, with the registry alone and
   beside a recording collector; both must give the pinned digest.  A
   failing check prints the digest to pin.

   Lines named "span:NAME" (four fields) pin the fault-lifecycle spans
   of scenario NAME: the span digest, the fault count and the digest of
   [Span.to_json].  They are checked online, with [Span.feed] as the
   consumer beside a storing collector, and offline, with
   [Span.of_events] on the stored events. *)

open Hipec_trace
open Hipec_workloads
open Hipec_core
module Mx = Hipec_metrics.Metrics

(* found whether we run under `dune runtest` (cwd = test/) or by hand
   from the repository root *)
let golden_file =
  if Sys.file_exists "golden/digests.txt" then "golden/digests.txt"
  else "test/golden/digests.txt"

let metrics_prefix = "metrics:"
let span_prefix = "span:"

(* the fields of every non-comment line *)
let read_golden () =
  let ic = open_in golden_file in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go acc
        else go (String.split_on_char ' ' line :: acc))
  in
  go []

let malformed fields = failwith (golden_file ^ ": malformed line: " ^ String.concat " " fields)

let pin = function
  | [ name; digest; events ] -> (name, digest, int_of_string events)
  | [ name; digest ] when String.starts_with ~prefix:metrics_prefix name -> (name, digest, 0)
  | fields -> malformed fields

let span_pin = function
  | [ name; digest; faults; json ] -> (name, digest, int_of_string faults, json)
  | fields -> malformed fields

let is_span_line fields = String.starts_with ~prefix:span_prefix (List.hd fields)

let trace_prefix = "trace:"
let is_trace_line (name, _, _) = String.starts_with ~prefix:trace_prefix name
let is_metrics_line (name, _, _) = String.starts_with ~prefix:metrics_prefix name

let trace_path name =
  let base = String.sub name (String.length trace_prefix)
      (String.length name - String.length trace_prefix) in
  Filename.concat (Filename.dirname golden_file) (base ^ ".trace")

let load_trace name =
  match Trace.Recorded.load ~path:(trace_path name) with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: %s" (trace_path name) e

let hipec_faults (r : Trace.Recorded.t) =
  Array.fold_left
    (fun n ev ->
      match ev.Event.payload with
      | Event.Fault { kind = Event.Hipec; _ } -> n + 1
      | _ -> n)
    0 r.Trace.Recorded.events

let check_trace (name, digest, events) () =
  let r = load_trace name in
  Alcotest.(check string)
    (name ^ ": digest")
    digest
    (Trace.digest_hex r.Trace.Recorded.digest);
  Alcotest.(check int) (name ^ ": event count") events
    (Array.length r.Trace.Recorded.events);
  List.iter
    (fun backend ->
      Executor.with_backend backend (fun () ->
          match Trace_run.replay r with
          | Error e -> Alcotest.failf "%s [%s]: %s" name (Executor.backend_name backend) e
          | Ok o ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: replay reproduces the recording on %s" name
                   (Executor.backend_name backend))
                true (Trace_run.matches o)))
    [ Executor.Interp; Executor.Compiled ]

(* lo/hi recordings of one witness, paired by their "-lo"/"-hi" suffix:
   the larger grant must still fault strictly more *)
let witness_pairs goldens =
  let strip suffix name =
    if Filename.check_suffix name suffix then Some (Filename.chop_suffix name suffix)
    else None
  in
  List.filter_map
    (fun (name, _, _) ->
      match strip "-lo" name with
      | Some stem when List.exists (fun (n, _, _) -> n = stem ^ "-hi") goldens ->
          Some stem
      | _ -> None)
    (List.filter is_trace_line goldens)

let check_anomaly stem () =
  let lo = load_trace (stem ^ "-lo") and hi = load_trace (stem ^ "-hi") in
  let frames r =
    match Option.bind (Trace.Recorded.meta_find r "frames") int_of_string_opt with
    | Some f -> f
    | None -> Alcotest.failf "%s: recording lacks frames metadata" stem
  in
  Alcotest.(check bool) (stem ^ ": hi grant is larger") true (frames hi > frames lo);
  let f_lo = hipec_faults lo and f_hi = hipec_faults hi in
  Alcotest.(check bool)
    (Printf.sprintf "%s: anomaly holds (%d faults at %d frames < %d at %d)" stem f_lo
       (frames lo) f_hi (frames hi))
    true (f_hi > f_lo)

let check_scenario (name, digest, events) () =
  let scenario =
    match Trace_run.scenario_of_name name with
    | Some s -> s
    | None -> Alcotest.fail ("unknown golden scenario " ^ name)
  in
  match Trace_run.record scenario with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check string)
        (name ^ ": digest")
        digest
        (Trace.digest_hex r.Trace.Recorded.digest);
      Alcotest.(check int) (name ^ ": event count") events
        (Array.length r.Trace.Recorded.events)

(* One byte layout: beside the collector, which folds the bytes the
   emitters write with [Event.put_*], a consumer re-encodes every event
   it is fed with [Event.encode] into a second digest.  The two digests
   must agree (and be the pinned one), and the stored stream must
   decode to the consumer's events, sequence numbers and times
   included. *)
let check_layout (name, digest, _) () =
  let scenario =
    match Trace_run.scenario_of_name name with
    | Some s -> s
    | None -> Alcotest.fail ("unknown golden scenario " ^ name)
  in
  let c = Trace.start ~store:true () in
  let seen = ref [] and e = Encoder.create 64 and d = Encoder.digest () in
  Trace.set_consumer
    (Some
       (fun ev ->
         seen := ev :: !seen;
         Encoder.clear e;
         Event.encode e ev;
         Encoder.digest_add d e));
  (match
     Fun.protect
       ~finally:(fun () -> ignore (Trace.stop ()))
       (fun () -> Trace_run.run_scenario scenario)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check string) (name ^ ": collector digest") digest (Trace.digest_hex (Trace.digest c));
  Alcotest.(check string) (name ^ ": re-encoded digest") digest
    (Trace.digest_hex (Encoder.digest_value d));
  let consumed = Array.of_list (List.rev !seen) and stored = Trace.events c in
  Alcotest.(check int) (name ^ ": event count") (Array.length consumed) (Array.length stored);
  Alcotest.(check bool) (name ^ ": stored events are the consumer's") true (stored = consumed)

let string_digest s =
  let d = Encoder.digest () in
  Encoder.digest_add_string d s ~pos:0 ~len:(String.length s);
  Trace.digest_hex (Encoder.digest_value d)

let metrics_digest run =
  let reg = Mx.install () in
  (match Fun.protect ~finally:(fun () -> ignore (Mx.uninstall ())) run with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  string_digest (Mx.Registry.to_json ~wall:false reg)

let prefixed_scenario ~prefix name =
  let base = String.sub name (String.length prefix) (String.length name - String.length prefix) in
  match Trace_run.scenario_of_name base with
  | Some s -> s
  | None -> Alcotest.fail ("unknown golden scenario " ^ base)

let check_metrics (name, digest, _) () =
  let scenario = prefixed_scenario ~prefix:metrics_prefix name in
  Alcotest.(check string) (name ^ ": registry alone") digest
    (metrics_digest (fun () -> Trace_run.run_scenario scenario));
  Alcotest.(check string) (name ^ ": beside a recording collector") digest
    (metrics_digest (fun () -> Trace_run.record scenario))

let check_spans (name, digest, faults, json) () =
  let scenario = prefixed_scenario ~prefix:span_prefix name in
  let online = Span.create () in
  let c = Trace.start ~store:true () in
  Trace.set_consumer (Some (Span.feed online));
  (match
     Fun.protect
       ~finally:(fun () -> ignore (Trace.stop ()))
       (fun () -> Trace_run.run_scenario scenario)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let offline = Span.of_events (Trace.events c) in
  List.iter
    (fun (how, b) ->
      Alcotest.(check string) (Printf.sprintf "%s: %s span digest" name how) digest
        (Trace.digest_hex (Span.digest b));
      Alcotest.(check int) (Printf.sprintf "%s: %s fault count" name how) faults
        (Span.fault_count b);
      Alcotest.(check string) (Printf.sprintf "%s: %s to_json digest" name how) json
        (string_digest (Span.to_json b)))
    [ ("online", online); ("offline", offline) ]

let () =
  let lines = read_golden () in
  if lines = [] then failwith (golden_file ^ " lists no scenarios");
  let spans, lines = List.partition is_span_line lines in
  let spans = List.map span_pin spans and goldens = List.map pin lines in
  let metrics, goldens = List.partition is_metrics_line goldens in
  let traces, scenarios = List.partition is_trace_line goldens in
  Alcotest.run "golden"
    [
      ( "digests",
        List.map
          (fun ((name, _, _) as g) -> Alcotest.test_case name `Quick (check_scenario g))
          scenarios );
      ( "witnesses",
        List.map
          (fun ((name, _, _) as g) -> Alcotest.test_case name `Quick (check_trace g))
          traces
        @ List.map
            (fun stem ->
              Alcotest.test_case (stem ^ ": anomaly") `Quick (check_anomaly stem))
            (witness_pairs goldens) );
      ( "layout",
        List.map
          (fun ((name, _, _) as g) -> Alcotest.test_case name `Quick (check_layout g))
          scenarios );
      ( "metrics",
        List.map
          (fun ((name, _, _) as g) -> Alcotest.test_case name `Quick (check_metrics g))
          metrics );
      ( "spans",
        List.map
          (fun ((name, _, _, _) as g) -> Alcotest.test_case name `Quick (check_spans g))
          spans );
    ]
