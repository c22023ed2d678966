(* Tests for lib/metrics: registry determinism, histogram percentiles
   against a sorted-array oracle, the zero-cost-when-disabled contract,
   interp-vs-compiled per-opcode attribution, and the top-bucket
   boundary regressions (values at the upper edge must overflow). *)

open Hipec_core
open Hipec_workloads
module Mx = Hipec_metrics.Metrics
module St = Hipec_sim.Stats
module Trace = Hipec_trace.Trace

(* ------------------------------------------------------------------ *)
(* Registry basics                                                     *)
(* ------------------------------------------------------------------ *)

let test_registry_kinds () =
  let reg = Mx.Registry.create () in
  Mx.Registry.counter_add reg "c" 3;
  Mx.Registry.counter_add reg "c" 2;
  Mx.Registry.gauge_set reg "g" 7;
  Mx.Registry.observe reg "h" 100;
  Alcotest.(check (option int)) "counter" (Some 5) (Mx.Registry.counter_value reg "c");
  Alcotest.(check (option int)) "gauge" (Some 7) (Mx.Registry.gauge_value reg "g");
  Alcotest.(check bool) "histogram" true (Mx.Registry.histogram reg "h" <> None);
  Alcotest.(check (option int)) "missing" None (Mx.Registry.counter_value reg "nope");
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "metric c already registered with another kind (want gauge)")
    (fun () -> Mx.Registry.gauge_set reg "c" 1)

let test_series_downsampling () =
  let reg = Mx.Registry.create ~tick_ns:100 () in
  (* only samples >= tick apart are accepted *)
  Mx.Registry.sample reg "s" ~now_ns:0 10;
  Mx.Registry.sample reg "s" ~now_ns:50 11;   (* rejected: < tick *)
  Mx.Registry.sample reg "s" ~now_ns:100 12;
  Mx.Registry.sample reg "s" ~now_ns:199 13;  (* rejected *)
  Mx.Registry.sample reg "s" ~now_ns:200 14;
  let s = Option.get (Mx.Registry.series reg "s") in
  Alcotest.(check (list (pair int int)))
    "downsampled points"
    [ (0, 10); (100, 12); (200, 14) ]
    (Array.to_list (Mx.Series.points s));
  (* the ring keeps the newest [series_cap] points and counts evictions *)
  let cap = Mx.Registry.series_cap in
  for i = 3 to cap - 1 do
    Mx.Registry.sample reg "s" ~now_ns:(i * 100) i
  done;
  Alcotest.(check int) "full ring dropped nothing" 0 (Mx.Series.dropped s);
  Mx.Registry.sample reg "s" ~now_ns:(cap * 100) cap;
  Alcotest.(check int) "dropped" 1 (Mx.Series.dropped s);
  let points = Mx.Series.points s in
  Alcotest.(check int) "ring holds cap points" cap (Array.length points);
  Alcotest.(check (list (pair int int)))
    "ring keeps newest"
    [ (100, 12); (200, 14); (300, 3) ]
    (Array.to_list (Array.sub points 0 3));
  Alcotest.(check (pair int int)) "newest last" (cap * 100, cap) points.(cap - 1)

(* ------------------------------------------------------------------ *)
(* Zero cost when disabled                                             *)
(* ------------------------------------------------------------------ *)

let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_zero_cost_when_disabled () =
  ignore (Mx.uninstall ());
  Alcotest.(check bool) "disabled" false (Mx.on ());
  let emits () =
    for i = 1 to 10_000 do
      Mx.incr "zc.counter";
      Mx.add "zc.counter" 2;
      Mx.gauge_set "zc.gauge" i;
      Mx.observe "zc.hist" i;
      Mx.sample "zc.series" i;
      assert (Mx.profile_begin ~backend:"interp" ~container:0 ~sim_ns:i = None)
    done
  in
  let baseline = minor_words_of (fun () -> for _ = 1 to 10_000 do () done) in
  let cost = minor_words_of emits in
  (* a handful of words covers the Gc.minor_words float boxes; the
     10k iterations themselves must not allocate *)
  Alcotest.(check bool)
    (Printf.sprintf "no allocation when disabled (%.0f words)" (cost -. baseline))
    true
    (cost -. baseline <= 64.);
  (* and no observable state: a registry installed afterwards is empty *)
  let reg = Mx.install () in
  Alcotest.(check int) "nothing materialized" 0
    (List.length (Mx.Registry.kstat_lines reg));
  ignore (Mx.uninstall ())

(* ------------------------------------------------------------------ *)
(* Histogram percentiles vs the sorted-array oracle                    *)
(* ------------------------------------------------------------------ *)

(* The log-bucketed estimate returns the upper edge of the bucket
   holding the nearest-rank sample, clamped to the exact [min, max]:
   it can never undershoot the true percentile, and overshoots by at
   most one bucket width (a factor of 2 above 1). *)
let prop_percentile_vs_oracle =
  QCheck.Test.make ~name:"log-histogram percentile brackets the exact one" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 200) (int_bound 2_000_000))
        (int_range 1 100))
    (fun (xs, p) ->
      let p = float_of_int p in
      let h = St.Histogram.create_log "oracle" in
      List.iter (fun x -> St.Histogram.add h (float_of_int x)) xs;
      let samples = Array.of_list (List.map float_of_int xs) in
      let exact = St.Summary.percentile samples p in
      (* the shared test-support reference implements the same
         nearest-rank rule independently; pin them together first *)
      if exact <> Test_support.percentile_exact samples p then
        QCheck.Test.fail_reportf "Summary.percentile %g disagrees with the reference %g"
          exact
          (Test_support.percentile_exact samples p);
      let est = St.Histogram.percentile h p in
      est >= exact && est <= Float.max 1. (2. *. exact) && est <= St.Histogram.max h)

(* The percentile entry points sort with [Float.compare] and
   [Int.compare]; the references sort with polymorphic [compare].  On
   nan, infinities, signed zeros and the int extremes they must pick
   the very same sample. *)
let test_typed_sorts_order_like_compare () =
  let floats = [| 3.; nan; -0.; -1.; infinity; nan; neg_infinity; 0.; 2.5 |] in
  List.iter
    (fun p ->
      Alcotest.(check int64)
        (Printf.sprintf "float p%g" p)
        (Int64.bits_of_float (Test_support.percentile_exact floats p))
        (Int64.bits_of_float (St.Percentile.exact floats p)))
    [ 0.; 10.; 20.; 30.; 50.; 70.; 90.; 100. ];
  let ints = [| 5; min_int; -3; max_int; 0; -3; 17 |] in
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "int p%g" p)
        (Test_support.percentile ints p)
        (St.Percentile.of_ints ints p))
    [ 0.; 0.2; 0.5; 0.8; 1.0 ]

let test_percentile_handworked () =
  let h = St.Histogram.create_log "hw" in
  List.iter (fun v -> St.Histogram.add h v) [ 3.; 5.; 100.; 1000. ];
  (* rank 2 of 4 at p50 -> the sample 5, bucket [4,8) -> clamped edge *)
  Alcotest.(check bool) "p50 in [5, 8]" true
    (St.Histogram.percentile h 50. >= 5. && St.Histogram.percentile h 50. <= 8.);
  Alcotest.(check (float 0.0)) "p100 is the max" 1000. (St.Histogram.percentile h 100.);
  let empty = St.Histogram.create_log "empty" in
  Alcotest.(check (float 0.0)) "empty percentile" 0. (St.Histogram.percentile empty 50.)

(* ------------------------------------------------------------------ *)
(* Top-bucket boundary regressions                                     *)
(* ------------------------------------------------------------------ *)

let test_fixed_histogram_top_edge () =
  (* driver.ml's per-fault latency histogram shape: 16 x 1ms over
     [0,16) ms.  A value equal to [hi] lies outside the closed-open
     range and must land in overflow, not the last bucket. *)
  let h = St.Histogram.create ~buckets:16 ~lo:0. ~hi:16. "edge" in
  St.Histogram.add h 0.;
  St.Histogram.add h 15.999;
  St.Histogram.add h 16.;
  St.Histogram.add h (-0.5);
  let counts = St.Histogram.bucket_counts h in
  Alcotest.(check int) "lo lands in bucket 0" 1 counts.(0);
  Alcotest.(check int) "just under hi in last bucket" 1 counts.(15);
  Alcotest.(check int) "hi overflows" 1 (St.Histogram.overflow h);
  Alcotest.(check int) "below lo underflows" 1 (St.Histogram.underflow h);
  Alcotest.(check int) "all samples counted" 4 (St.Histogram.count h)

let test_log_histogram_bucket_edges () =
  let h = St.Histogram.create_log ~buckets:8 "log-edge" in
  Alcotest.(check int) "0 -> bucket 0" 0 (St.Histogram.bucket_index h 0.);
  Alcotest.(check int) "0.5 -> bucket 0" 0 (St.Histogram.bucket_index h 0.5);
  Alcotest.(check int) "1 -> bucket 1" 1 (St.Histogram.bucket_index h 1.);
  Alcotest.(check int) "2 -> bucket 2" 2 (St.Histogram.bucket_index h 2.);
  Alcotest.(check int) "3 -> bucket 2" 2 (St.Histogram.bucket_index h 3.);
  Alcotest.(check int) "127 -> bucket 7" 7 (St.Histogram.bucket_index h 127.);
  Alcotest.(check int) "128 overflows" 8 (St.Histogram.bucket_index h 128.);
  Alcotest.(check int) "negative underflows" (-1) (St.Histogram.bucket_index h (-1.));
  let lo, hi = St.Histogram.bucket_bounds h 3 in
  Alcotest.(check (pair (float 0.0) (float 0.0))) "bucket 3 = [4,8)" (4., 8.) (lo, hi)

(* ------------------------------------------------------------------ *)
(* Deterministic snapshots                                             *)
(* ------------------------------------------------------------------ *)

let run_scenario_under_registry name =
  let scenario =
    match Trace_run.scenario_of_name name with
    | Some s -> s
    | None -> Alcotest.failf "unknown scenario %s" name
  in
  let reg = Mx.install () in
  Fun.protect
    ~finally:(fun () -> ignore (Mx.uninstall ()))
    (fun () ->
      match Trace_run.run_scenario scenario with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name e);
  reg

let test_snapshot_deterministic () =
  let snap () =
    Mx.Registry.to_json ~wall:false (run_scenario_under_registry "policy")
  in
  let a = snap () and b = snap () in
  Alcotest.(check string) "identical seeded runs serialize identically" a b;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "wall fields segregated" false (contains a "wall_ns")

(* ------------------------------------------------------------------ *)
(* Profiler: attribution and backend agreement                         *)
(* ------------------------------------------------------------------ *)

let test_profiler_attribution () =
  let reg = Mx.install () in
  let run = Option.get (Mx.profile_begin ~backend:"test" ~container:1 ~sim_ns:100) in
  Mx.profile_step run ~opcode:3 ~sim_ns:150;
  (* 50 ns of dispatch before the first fetch -> overhead *)
  Mx.profile_step run ~opcode:5 ~sim_ns:175;
  (* the 25 ns since the opcode-3 boundary belong to opcode 3 *)
  Mx.profile_end run ~sim_ns:200;
  (* and the tail to opcode 5 *)
  ignore (Mx.uninstall ());
  let p = Mx.Registry.profile reg ~backend:"test" ~container:1 in
  let cells = Mx.Profile.cells p in
  Alcotest.(check int) "overhead sim" 50 (Mx.Profile.overhead p).Mx.Profile.sim_ns;
  Alcotest.(check int) "op3 count" 1 cells.(3).Mx.Profile.count;
  Alcotest.(check int) "op3 sim" 25 cells.(3).Mx.Profile.sim_ns;
  Alcotest.(check int) "op5 count" 1 cells.(5).Mx.Profile.count;
  Alcotest.(check int) "op5 sim" 25 cells.(5).Mx.Profile.sim_ns;
  Alcotest.(check int) "sim total telescopes" 100 (Mx.Profile.sim_total p);
  Alcotest.(check int) "runs" 1 (Mx.Profile.runs p)

(* The profiler reads the monotonic clock as an unboxed integer, so a
   profiled step allocates nothing. *)
let test_profiler_step_allocation () =
  ignore (Mx.install ());
  let run = Option.get (Mx.profile_begin ~backend:"test" ~container:2 ~sim_ns:0) in
  let steps () =
    for i = 1 to 10_000 do
      Mx.profile_step run ~opcode:(i land 7) ~sim_ns:i
    done
  in
  steps ();
  let overhead =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  let a = Gc.minor_words () in
  steps ();
  let b = Gc.minor_words () in
  Mx.profile_end run ~sim_ns:10_001;
  ignore (Mx.uninstall ());
  Alcotest.(check (float 0.)) "minor words per 10k steps" 0. (b -. a -. overhead)

(* Run [name] under both executors into one registry; their per-opcode
   simulated attributions must agree cell for cell (the boundary timers
   sit at identical simulated instants in both prologues). *)
let check_backends_agree name () =
  let scenario =
    match Trace_run.scenario_of_name name with
    | Some s -> s
    | None -> Alcotest.failf "unknown scenario %s" name
  in
  let reg = Mx.install () in
  Fun.protect
    ~finally:(fun () -> ignore (Mx.uninstall ()))
    (fun () ->
      List.iter
        (fun b ->
          Executor.with_backend b (fun () ->
              match Trace_run.run_scenario scenario with
              | Ok () -> ()
              | Error e -> Alcotest.failf "%s: %s" name e))
        [ Executor.Interp; Executor.Compiled ]);
  match
    ( Mx.Registry.profile_totals reg ~backend:"interp",
      Mx.Registry.profile_totals reg ~backend:"compiled" )
  with
  | Some (ci, oi, ri), Some (cc, oc, rc) ->
      Alcotest.(check int) "runs" ri rc;
      Alcotest.(check int) "overhead sim" oi.Mx.Profile.sim_ns oc.Mx.Profile.sim_ns;
      Array.iteri
        (fun i (c : Mx.Profile.cell) ->
          Alcotest.(check int) (Printf.sprintf "op %d count" i) c.Mx.Profile.count
            cc.(i).Mx.Profile.count;
          Alcotest.(check int) (Printf.sprintf "op %d sim_ns" i) c.Mx.Profile.sim_ns
            cc.(i).Mx.Profile.sim_ns)
        ci;
      Alcotest.(check bool) "commands were profiled" true
        (Array.exists (fun (c : Mx.Profile.cell) -> c.Mx.Profile.count > 0) ci)
  | _ -> Alcotest.fail "a backend left no profile"

(* ------------------------------------------------------------------ *)
(* Prometheus exposition lint                                          *)
(* ------------------------------------------------------------------ *)

(* A small checker for the text exposition format (v0.0.4): every line
   is a # HELP/# TYPE header or a sample; every family is declared by
   exactly one HELP+TYPE pair before its samples; a family's samples
   are contiguous; metric names are legal; label blocks parse with
   properly quoted and escaped values. *)
let lint_prom exposition =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let name_ok n =
    n <> ""
    && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
    && String.for_all
         (fun c ->
           match c with
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
           | _ -> false)
         n
  in
  let typed = Hashtbl.create 16 (* family -> kind *) in
  let helped = Hashtbl.create 16 in
  let closed = Hashtbl.create 16 (* families whose sample run ended *) in
  let last_family = ref "" in
  (* histogram children belong to the declared family *)
  let family_of n =
    let strip suffix =
      if Filename.check_suffix n suffix then
        let f = String.sub n 0 (String.length n - String.length suffix) in
        if Hashtbl.mem typed f then Some f else None
      else None
    in
    match strip "_bucket" with
    | Some f -> f
    | None -> (
        match strip "_sum" with
        | Some f -> f
        | None -> ( match strip "_count" with Some f -> f | None -> n))
  in
  (* validate one {k="v",...} label block *)
  let check_labels line block =
    let n = String.length block in
    let i = ref 0 in
    let fail msg = err "%s: %s" line msg; i := n in
    while !i < n do
      let start = !i in
      while !i < n && block.[!i] <> '=' do incr i done;
      if !i >= n then fail "label missing '='"
      else begin
        let key = String.sub block start (!i - start) in
        if not (name_ok key) then fail (Printf.sprintf "bad label name %S" key);
        incr i;
        if !i >= n || block.[!i] <> '"' then fail "label value not quoted"
        else begin
          incr i;
          let fin = ref false in
          while (not !fin) && !i < n do
            match block.[!i] with
            | '\\' ->
                if
                  !i + 1 >= n
                  || not (List.mem block.[!i + 1] [ '\\'; '"'; 'n' ])
                then fail "invalid escape in label value"
                else i := !i + 2
            | '"' ->
                fin := true;
                incr i
            | '\n' -> fail "raw newline in label value"
            | _ -> incr i
          done;
          if not !fin then fail "unterminated label value"
          else if !i < n then
            if block.[!i] = ',' then incr i else fail "junk after label value"
        end
      end
    done
  in
  List.iter
    (fun line ->
      if line = "" then ()
      else if String.length line > 7 && String.sub line 0 7 = "# HELP " then begin
        let rest = String.sub line 7 (String.length line - 7) in
        let fam = try String.sub rest 0 (String.index rest ' ') with Not_found -> rest in
        if not (name_ok fam) then err "%s: bad family name" line;
        if Hashtbl.mem helped fam then err "%s: duplicate HELP" line;
        Hashtbl.replace helped fam ()
      end
      else if String.length line > 7 && String.sub line 0 7 = "# TYPE " then begin
        match String.split_on_char ' ' (String.sub line 7 (String.length line - 7)) with
        | [ fam; kind ] ->
            if not (name_ok fam) then err "%s: bad family name" line;
            if not (List.mem kind [ "counter"; "gauge"; "histogram"; "summary" ]) then
              err "%s: unknown type %S" line kind;
            if Hashtbl.mem typed fam then err "%s: duplicate TYPE" line;
            if not (Hashtbl.mem helped fam) then err "%s: TYPE without HELP" line;
            Hashtbl.replace typed fam kind
        | _ -> err "%s: malformed TYPE line" line
      end
      else if line.[0] = '#' then err "%s: unknown comment form" line
      else begin
        (* sample: name[{labels}] value *)
        let brace = String.index_opt line '{' in
        let name, rest =
          match brace with
          | Some i -> (String.sub line 0 i, String.sub line i (String.length line - i))
          | None -> (
              match String.index_opt line ' ' with
              | Some i ->
                  (String.sub line 0 i, String.sub line i (String.length line - i))
              | None -> (line, ""))
        in
        if not (name_ok name) then err "%s: bad metric name" line;
        let fam = family_of name in
        if not (Hashtbl.mem typed fam) then err "%s: sample without TYPE" line;
        if Hashtbl.mem closed fam then err "%s: family %s not contiguous" line fam;
        if fam <> !last_family then begin
          if !last_family <> "" then Hashtbl.replace closed !last_family ();
          last_family := fam
        end;
        (match brace with
        | Some _ -> (
            match String.rindex_opt rest '}' with
            | None -> err "%s: unterminated label block" line
            | Some j ->
                check_labels line (String.sub rest 1 (j - 1));
                let v = String.trim (String.sub rest (j + 1) (String.length rest - j - 1)) in
                if v = "" || float_of_string_opt v = None then
                  err "%s: bad sample value %S" line v)
        | None ->
            let v = String.trim rest in
            if v = "" || float_of_string_opt v = None then
              err "%s: bad sample value %S" line v)
      end)
    (String.split_on_char '\n' exposition);
  List.rev !errors

let test_prom_exposition () =
  (* a registry exercising every metric kind, plus label values that
     need escaping (a backend name and opcode names with quotes,
     backslashes and newlines) *)
  let reg = Mx.install ~tick_ns:100 () in
  Fun.protect
    ~finally:(fun () -> ignore (Mx.uninstall ()))
    (fun () ->
      Mx.incr "lint.counter";
      Mx.gauge_set "lint-gauge.dots" 7;
      Mx.observe "lint.lat" 3;
      Mx.observe "lint.lat" 3_000;
      Mx.Registry.sample reg "lint.series" ~now_ns:0 1;
      let run =
        Option.get (Mx.profile_begin ~backend:"we\"ird\\back\nend" ~container:0 ~sim_ns:0)
      in
      Mx.profile_step run ~opcode:3 ~sim_ns:10;
      Mx.profile_end run ~sim_ns:20);
  let text =
    Mx.Registry.to_prom ~opcode_name:(fun i -> Printf.sprintf "op\"%d\"\\n" i) reg
  in
  (match lint_prom text with
  | [] -> ()
  | errs -> Alcotest.failf "exposition lint:\n%s" (String.concat "\n" errs));
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "backend label escaped" true
    (contains text "backend=\"we\\\"ird\\\\back\\nend\"");
  Alcotest.(check bool) "HELP emitted" true (contains text "# HELP hipec_lint_counter ")

(* and the real thing: the policy scenario's exposition must lint *)
let test_prom_scenario_lints () =
  let reg = run_scenario_under_registry "policy" in
  match lint_prom (Mx.Registry.to_prom reg) with
  | [] -> ()
  | errs -> Alcotest.failf "exposition lint:\n%s" (String.concat "\n" errs)

(* ------------------------------------------------------------------ *)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "metrics"
    [
      ( "registry",
        [
          Alcotest.test_case "kinds and lookups" `Quick test_registry_kinds;
          Alcotest.test_case "series downsampling" `Quick test_series_downsampling;
          Alcotest.test_case "zero cost when disabled" `Quick test_zero_cost_when_disabled;
        ] );
      ( "percentiles",
        Alcotest.test_case "handworked" `Quick test_percentile_handworked
        :: Alcotest.test_case "typed sorts order like compare" `Quick
             test_typed_sorts_order_like_compare
        :: qc [ prop_percentile_vs_oracle ] );
      ( "boundaries",
        [
          Alcotest.test_case "fixed histogram top edge" `Quick test_fixed_histogram_top_edge;
          Alcotest.test_case "log histogram bucket edges" `Quick
            test_log_histogram_bucket_edges;
        ] );
      ( "determinism",
        [ Alcotest.test_case "seeded snapshot byte-stable" `Quick test_snapshot_deterministic ] );
      ( "exposition",
        [
          Alcotest.test_case "format lints with escaping" `Quick test_prom_exposition;
          Alcotest.test_case "policy scenario lints" `Quick test_prom_scenario_lints;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "boundary-timer attribution" `Quick test_profiler_attribution;
          Alcotest.test_case "a profiled step allocates nothing" `Quick
            test_profiler_step_allocation;
          Alcotest.test_case "backends agree on policy scenario" `Quick
            (check_backends_agree "policy");
          Alcotest.test_case "backends agree on join-small" `Quick
            (check_backends_agree "join-small");
        ] );
    ]
