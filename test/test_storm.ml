(* The multi-tenant storm suite's acceptance properties, at smoke scale:

   - determinism: the same config produces the same trace digest on
     every run (the storm drives the full overload stack — pressure
     transitions, fuel throttling, admission shedding, emergency
     seizure — so a stray source of nondeterminism anywhere in that
     machinery shows up here);
   - safety: frame conservation holds at the end and the auditor's
     isolation checks never fire;
   - isolation: honest tenants' p99 access latency stays within 3x of
     the same storm with the greedy and erring tenants removed;
   - the reported peak pressure is the controller's own: [normal]
     exactly when no transition happened, whoever drove it. *)

open Hipec_workloads

let run_smoke () = Storm.run Storm.smoke

let test_deterministic_digest () =
  let a = run_smoke () and b = run_smoke () in
  Alcotest.(check string) "same digest across runs" a.Storm.digest b.Storm.digest;
  Alcotest.(check int) "same fault count" a.Storm.total_faults b.Storm.total_faults

let test_storm_survives () =
  let r = run_smoke () in
  Alcotest.(check bool) "frame table conserved" true r.Storm.conservation_ok;
  Alcotest.(check int) "no audit violations" 0 r.Storm.audit_violations;
  Alcotest.(check bool) "honest tenants survive" true (r.Storm.honest_alive > 0);
  Alcotest.(check bool) "admission governor shed the late wave" true
    (r.Storm.shed > 0);
  Alcotest.(check bool) "fuel ledger throttled someone" true
    (r.Storm.throttles_entered > 0);
  Alcotest.(check bool) "emergency seizure fired" true
    (r.Storm.emergency_seizures > 0)

let test_honest_p99_regression () =
  let storm = run_smoke () in
  let baseline =
    Storm.run { Storm.smoke with Storm.greedy_every = 0; erring_every = 0 }
  in
  Alcotest.(check bool) "baseline produced samples" true
    (baseline.Storm.honest_samples > 0 && baseline.Storm.honest_p99_ns > 0);
  let ratio =
    float_of_int storm.Storm.honest_p99_ns
    /. float_of_int baseline.Storm.honest_p99_ns
  in
  if ratio > 3.0 then
    Alcotest.failf
      "honest p99 %d ns is %.2fx the greedy-free baseline %d ns (bound: 3x)"
      storm.Storm.honest_p99_ns ratio baseline.Storm.honest_p99_ns

let test_peak_level () =
  List.iter
    (fun tenants ->
      let r = Storm.run { Storm.smoke with Storm.tenants } in
      Alcotest.(check bool)
        (Printf.sprintf "%d tenants: peak %s after %d changes" tenants r.Storm.peak_level
           r.Storm.pressure_changes)
        (r.Storm.pressure_changes = 0) (r.Storm.peak_level = "normal"))
    [ 1; 100 ];
  Alcotest.(check string) "the smoke storm peaks at emergency" "emergency"
    (run_smoke ()).Storm.peak_level

let test_percentile () =
  Alcotest.(check int) "empty" 0 (Storm.percentile [||] 0.99);
  Alcotest.(check int) "singleton" 7 (Storm.percentile [| 7 |] 0.5);
  let xs = Array.init 100 (fun i -> i + 1) in
  Alcotest.(check int) "p50 of 1..100" 51 (Storm.percentile xs 0.50);
  Alcotest.(check int) "p99 of 1..100" 99 (Storm.percentile xs 0.99);
  (* unsorted input is sorted internally *)
  let ys = [| 30; 10; 20 |] in
  Alcotest.(check int) "max" 30 (Storm.percentile ys 1.0);
  (* and the shared independent reference agrees everywhere above *)
  List.iter
    (fun (samples, p) ->
      Alcotest.(check int) "matches Test_support.percentile"
        (Test_support.percentile samples p) (Storm.percentile samples p))
    [ ([||], 0.99); ([| 7 |], 0.5); (xs, 0.50); (xs, 0.99); (ys, 1.0); (ys, 0.0) ]

let () =
  Alcotest.run "storm"
    [
      ( "storm",
        [
          Alcotest.test_case "deterministic digest" `Quick test_deterministic_digest;
          Alcotest.test_case "conservation, audits and survival" `Quick
            test_storm_survives;
          Alcotest.test_case "honest p99 within 3x of greedy-free" `Quick
            test_honest_p99_regression;
          Alcotest.test_case "peak pressure is normal iff nothing changed" `Quick
            test_peak_level;
          Alcotest.test_case "percentile helper" `Quick test_percentile;
        ] );
    ]
