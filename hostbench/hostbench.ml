(* Host-time benchmark of the HiPEC simulator (see NOTES.md).

   One process, one thread, closed loop: each run of a workload starts
   only after the previous one has returned.

     hostbench measure --workload W --seed N --seconds S [--smoke]
       one warm-up run, then timed runs until S seconds have passed;
       prints one JSON line per run
     hostbench trace --workload W --seed N --seconds S [--smoke]
       one warm-up run, then rounds of paired runs, each with one
       observability plane or ablation switched on from outside, until
       S seconds have passed (at least two rounds); prints one JSON line
       per round, then one of per-layer metrics

   Everything is measured from outside the libraries: the program calls
   the workloads' public entry points and reads only what the libraries
   already expose (Trace collectors and consumers, the Metrics registry
   and its executor profiler, Gc counters).  run.py compares the printed
   fingerprints with pinned references. *)

open Hipec_sim
open Hipec_workloads
module Tr = Hipec_trace.Trace
module Ev = Hipec_trace.Event
module Span = Hipec_trace.Span
module Mx = Hipec_metrics.Metrics
module Executor = Hipec_core.Executor

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* {1 Workloads} *)

type outcome = {
  faults : int;  (** simulated page faults of the run *)
  outputs : string;  (** the simulated outputs that are pinned, besides [kstat] *)
  kstat : string;
      (** the kernel counter report, where the workload returns one; a
          collector or registry appends sections, so planes compare it
          by prefix *)
  sweeps : int;  (** auditor sweeps *)
  problem : string option;  (** the first broken invariant *)
}

let fingerprint o =
  if o.kstat = "" then o.outputs
  else Printf.sprintf "%s kstat=%s" o.outputs (Digest.to_hex (Digest.string o.kstat))

let first_broken checks =
  List.find_map (fun (ok, msg) -> if ok then None else Some msg) checks

(* Past the end of every run: the auditor then sweeps once, at the end. *)
let audit_never = Sim_time.sec 1_000_000

let join_mru ~smoke ~seed ~audit_end_only:_ =
  let scans = if smoke then 2 else 8 in
  let cfg = { Join.default_config with outer_mb = 48; inner_bytes = scans * 64 } in
  let r = Join.run ~seed Join.Hipec_mru cfg in
  let predicted = Join.predicted_faults `Mru cfg in
  {
    faults = r.Join.faults;
    outputs =
      Printf.sprintf "faults=%d pageins=%d tuples=%d elapsed_ns=%d" r.Join.faults
        r.Join.pageins r.Join.output_tuples (Sim_time.to_ns r.Join.elapsed);
    kstat = "";
    sweeps = 0;
    problem =
      first_broken
        [
          ( r.Join.faults = predicted,
            Printf.sprintf "faults %d, predicted %d" r.Join.faults predicted );
        ];
  }

(* The "faults  N total (...)" line of [Kstat.pp]. *)
let kstat_faults kstat =
  String.split_on_char '\n' kstat
  |> List.find_map (fun line ->
         let line = String.trim line in
         if String.starts_with ~prefix:"faults " line then
           Scanf.sscanf_opt line "faults %d total" Fun.id
         else None)
  |> Option.value ~default:0

let chaos_t3 ~smoke ~seed ~audit_end_only =
  let base = if smoke then Chaos.smoke else Chaos.t3 in
  let cfg =
    {
      base with
      Chaos.seed;
      audit_period = (if audit_end_only then audit_never else base.Chaos.audit_period);
    }
  in
  let r = Chaos.run cfg in
  {
    faults = kstat_faults r.Chaos.kstat;
    outputs =
      Printf.sprintf "kills=%d demotions=%d violations=%d elapsed_ns=%d"
        r.Chaos.task_kills r.Chaos.demotions r.Chaos.audit_violations
        (Sim_time.to_ns r.Chaos.elapsed);
    kstat = r.Chaos.kstat;
    sweeps = r.Chaos.audit_sweeps;
    problem =
      first_broken
        [
          (r.Chaos.task_kills = 0, Printf.sprintf "%d task kills" r.Chaos.task_kills);
          (r.Chaos.demotions >= 1, "no demotion");
          ( r.Chaos.audit_violations = 0,
            Printf.sprintf "%d audit violations" r.Chaos.audit_violations );
        ];
  }

let storm_1k ~smoke ~seed ~audit_end_only:_ =
  let base = if smoke then Storm.smoke else Storm.full in
  (* the shipped 500 ms auditor would take most of a run; chaos-t3
     already measures the auditor *)
  let r = Storm.run { base with Storm.seed; audit_period = audit_never } in
  {
    faults = r.Storm.total_faults;
    outputs =
      Printf.sprintf "digest=%s faults=%d elapsed_ns=%d" r.Storm.digest
        r.Storm.total_faults (Sim_time.to_ns r.Storm.elapsed);
    kstat = "";
    sweeps = r.Storm.audit_sweeps;
    problem =
      first_broken
        [
          (r.Storm.conservation_ok, "frame conservation broken");
          ( r.Storm.audit_violations = 0,
            Printf.sprintf "%d audit violations" r.Storm.audit_violations );
          (r.Storm.honest_alive > 0, "no honest tenant alive");
        ];
  }

(* name, run, whether an audit period past the end changes the run *)
let workloads =
  [ ("join-mru", join_mru, false); ("chaos-t3", chaos_t3, true); ("storm-1k", storm_1k, false) ]

(* A run that raises is a failed run, not a crashed benchmark. *)
let run_once work ~audit_end_only =
  try work ~audit_end_only
  with e ->
    {
      faults = 0;
      outputs = "raised";
      kstat = "";
      sweeps = 0;
      problem = Some ("raised " ^ Printexc.to_string e);
    }

(* {1 JSON lines} *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let emit fields =
  print_string
    ("{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}\n");
  flush stdout

let problem_field o =
  ("problem", match o.problem with None -> "null" | Some p -> json_string p)

let fl = float_of_int

(* {1 measure: the end-to-end runs, untraced, default backend} *)

(* Every timed run starts from the same heap: the previous run's garbage
   collected and the minor heap empty.  Otherwise a run pays for the
   major-GC work its predecessor left behind, by an amount that depends
   on where that collection cycle stood. *)
let settle () = Gc.compact ()

let measure work ~seconds =
  let warm = run_once work ~audit_end_only:false in
  emit
    [
      ("warmup", "true");
      ("fingerprint", json_string (fingerprint warm));
      problem_field warm;
      ( "top_heap_mb",
        json_float
          (fl ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.) );
    ];
  (* at least one timed run unless [seconds] is 0 (run.py --pin needs
     only the warm-up); no run starts that the previous one says would
     end past the time *)
  let stop = now_s () +. seconds in
  let continue = ref (seconds > 0.) in
  while !continue do
    settle ();
    let words0 = Gc.minor_words () in
    let t0 = now_s () in
    let o = run_once work ~audit_end_only:false in
    let wall = now_s () -. t0 in
    emit
      [
        ("wall_s", json_float wall);
        ("faults", string_of_int o.faults);
        ("minor_words", json_float (Gc.minor_words () -. words0));
        ("fingerprint", json_string (fingerprint o));
        problem_field o;
      ];
    continue := now_s () +. wall < stop
  done

(* {1 trace: per-layer attribution from paired runs} *)

(* Host ns between successive [Access] events, stamped by this program's
   own consumer: one gap per reference, covering whatever fault service
   it triggered. *)
module Gaps = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 65_536 0; n = 0 }

  let push t v =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

let timed f =
  settle ();
  let t0 = now_s () in
  let o = f () in
  (o, now_s () -. t0)

let with_collector ?consumer f =
  let c = Tr.start () in
  Tr.set_consumer consumer;
  Fun.protect ~finally:(fun () -> ignore (Tr.stop ())) (fun () -> (f (), c))

let counter reg name = fl (Option.value ~default:0 (Mx.Registry.counter_value reg name))

let hist_count reg name =
  fl (match Mx.Registry.histogram reg name with Some h -> Stats.Histogram.count h | None -> 0)

(* One round's readings: the untraced baseline, then each plane or
   ablation alone.  [trace] reduces the rounds. *)
type round = {
  baseline : outcome;  (** the untraced run, checked against the pins by run.py *)
  w_off : float;  (** untraced, as shipped *)
  w_trace : float;  (** a bare trace collector *)
  w_traced : float;  (** the collector plus this program's consumer *)
  w_spans : float;  (** the collector feeding the span builder *)
  w_metrics : float;  (** a metrics registry, which turns the executor profiler on *)
  w_compiled : float;  (** the compiled executor backend, untraced *)
  w_audit_end : float;  (** sweeps only at the end; 0 without an auditor *)
  end_sweeps : int;
  exec_ns : float;  (** profiler-attributed executor wall, overhead cell included *)
  top_ns : float;  (** the costliest opcode's share of [exec_ns] *)
  gaps : float array;  (** host ns between [Access] events: p50, p99, max *)
  counts : (string * float) list;  (** simulated counts, the same every round *)
  runs : int;
  problems : string list;  (** one per failed plane or ablation run *)
}

let round work ~has_auditor =
  let problems = ref [] in
  let fail what p = problems := (what ^ ": " ^ p) :: !problems in
  (* planes must leave every simulated output untouched *)
  let same what base o =
    match o.problem with
    | Some p -> fail what p
    | None ->
        if o.outputs <> base.outputs || not (String.starts_with ~prefix:base.kstat o.kstat)
        then fail what "simulated outputs differ from the untraced run"
  in
  let runs = ref 0 in
  let run ?(audit_end_only = false) () =
    incr runs;
    run_once work ~audit_end_only
  in
  settle ();
  let gc0 = Gc.quick_stat () in
  let t0 = now_s () in
  let off = run () in
  let w_off = now_s () -. t0 in
  let gc1 = Gc.quick_stat () in
  let faults = max 1 off.faults in
  let (o, _), w_trace = timed (fun () -> with_collector run) in
  same "trace" off o;
  let gaps = Gaps.create () in
  let last = ref 0L and nfaults = ref 0 and hipec = ref 0 and pageins = ref 0 in
  let granted = Hashtbl.create 64 in
  let consumer (e : Ev.t) =
    match e.Ev.payload with
    | Ev.Access _ ->
        let t = Monotonic_clock.now () in
        if !last <> 0L then Gaps.push gaps (Int64.to_int (Int64.sub t !last));
        last := t
    | Ev.Fault { kind; _ } ->
        incr nfaults;
        if kind = Ev.Hipec then incr hipec
    | Ev.Pagein _ -> incr pageins
    | Ev.Grant { container; _ } -> Hashtbl.replace granted container ()
    | _ -> ()
  in
  let (o, c), w_traced = timed (fun () -> with_collector ~consumer run) in
  same "traced" off o;
  let gaps = Gaps.to_array gaps in
  let spans = Span.create () in
  let (o, _), w_spans = timed (fun () -> with_collector ~consumer:(Span.feed spans) run) in
  same "spans" off o;
  let reg = Mx.install () in
  let o, w_metrics =
    timed (fun () -> Fun.protect ~finally:(fun () -> ignore (Mx.uninstall ())) run)
  in
  same "metrics" off o;
  let exec_ns, commands, top_ns =
    match Mx.Registry.profile_totals reg ~backend:(Executor.backend_name Executor.Interp) with
    | None -> (0, 0, 0)
    | Some (cells, overhead, _runs) ->
        Array.fold_left
          (fun (w, n, top) (cell : Mx.Profile.cell) ->
            (w + cell.wall_ns, n + cell.count, max top cell.wall_ns))
          (overhead.Mx.Profile.wall_ns, 0, 0)
          cells
  in
  let o, w_compiled =
    timed (fun () ->
        Executor.set_default_backend Executor.Compiled;
        Fun.protect ~finally:(fun () -> Executor.set_default_backend Executor.Interp) run)
  in
  same "compiled" off o;
  (* the schedule changes, so only the invariants are checked *)
  let w_audit_end, end_sweeps =
    if has_auditor then begin
      let o, w = timed (run ~audit_end_only:true) in
      Option.iter (fail "audit-at-end") o.problem;
      (w, o.sweeps)
    end
    else (0., 0)
  in
  let counter = counter reg and hist_count = hist_count reg in
  {
    baseline = off;
    w_off;
    w_trace;
    w_traced;
    w_spans;
    w_metrics;
    w_compiled;
    w_audit_end;
    end_sweeps;
    exec_ns = fl exec_ns;
    top_ns = fl top_ns;
    gaps = Array.map (fun p -> fl (Stats.Percentile.of_ints gaps p)) [| 0.50; 0.99; 1.0 |];
    counts =
      [
        ("kernel.faults", fl !nfaults);
        ("kernel.faults.hipec", fl !hipec);
        ("kernel.faults.pagein", fl !pageins);
        ("executor.commands", fl commands);
        ("audit.sweeps", fl off.sweeps);
        ("frame_manager.admitted", fl (Hashtbl.length granted));
        ("frame_manager.shed", counter "hipec.manager.admissions.rejected");
        ("frame_manager.throttles", counter "hipec.manager.throttles.entered");
        ("frame_manager.seizures", counter "hipec.manager.emergency_seizures");
        ("frame_manager.demotions", counter "hipec.manager.demotions");
        ("pageout.scans", counter "vm.pageout.scans");
        ("pageout.evictions", counter "vm.pageout.evictions");
        ("pageout.laundered", counter "vm.pageout.laundered");
        ("disk.transfers", hist_count "machine.disk.transfer_ns");
        ("io_retry.attempts", hist_count "vm.io_retry.attempt");
        ("io_retry.giveups", counter "vm.io_retry.giveups");
        ("trace.events", fl (Tr.events_seen c));
        ("gc.minor_collections", fl (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
        ("gc.major_collections", fl (gc1.Gc.major_collections - gc0.Gc.major_collections));
        ("gc.promoted_words_per_fault", (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. fl faults);
      ];
    runs = !runs;
    problems = List.rev !problems;
  }

let json_list items = "[" ^ String.concat ", " items ^ "]"

(* The per-layer metrics of the rounds.  Like [wall_s], every wall is the
   fastest over the rounds, taken before any difference or ratio is
   formed: the host's slow phases would swamp a plane's few percent. *)
let layer_metrics ~has_auditor rounds =
  let best f = List.fold_left (fun m r -> Float.min m (f r)) infinity rounds in
  let count name =
    Stats.Percentile.exact (Array.of_list (List.map (fun r -> List.assoc name r.counts) rounds)) 50.
  in
  let off = best (fun r -> r.w_off) and trace = best (fun r -> r.w_trace) in
  let metrics = best (fun r -> r.w_metrics) and exec_ns = best (fun r -> r.exec_ns) in
  let faults = fl (max 1 (List.hd rounds).baseline.faults) in
  let audit_s, audit_ns_per_sweep =
    if has_auditor then
      let saved = off -. best (fun r -> r.w_audit_end) in
      let swept = List.hd rounds in
      (saved, saved *. 1e9 /. fl (max 1 (swept.baseline.sweeps - swept.end_sweeps)))
    else (0., 0.)
  in
  let c name = (name, "count", count name) in
  [
    c "kernel.faults";
    c "kernel.faults.hipec";
    c "kernel.faults.pagein";
    ("kernel.access_host_ns.p50", "ns", best (fun r -> r.gaps.(0)));
    ("kernel.access_host_ns.p99", "ns", best (fun r -> r.gaps.(1)));
    ("kernel.access_host_ns.max", "ns", best (fun r -> r.gaps.(2)));
    c "executor.commands";
    ("executor.ns_per_command", "ns", exec_ns /. Float.max 1. (count "executor.commands"));
    ("executor.wall_share", "ratio", exec_ns *. 1e-9 /. metrics);
    ("executor.top_opcode_share", "ratio", best (fun r -> r.top_ns) *. 1e-9 /. metrics);
    ("executor.compiled_ratio", "ratio", best (fun r -> r.w_compiled) /. off);
    c "audit.sweeps";
    ("audit.ns_per_sweep", "ns", audit_ns_per_sweep);
    ("audit.wall_share", "ratio", audit_s /. off);
    c "frame_manager.admitted";
    c "frame_manager.shed";
    c "frame_manager.throttles";
    c "frame_manager.seizures";
    c "frame_manager.demotions";
    (* the executor's share is read from the profiled run, so the rest
       is taken from that run too *)
    ("vm.residual_ns_per_fault", "ns", (metrics -. (exec_ns *. 1e-9) -. audit_s) *. 1e9 /. faults);
    c "pageout.scans";
    c "pageout.evictions";
    c "pageout.laundered";
    ( "pageout.useful_ratio",
      "ratio",
      count "pageout.evictions" /. Float.max 1. (count "pageout.scans") );
    c "disk.transfers";
    c "io_retry.attempts";
    c "io_retry.giveups";
    c "trace.events";
    ("trace.overhead_s", "s", best (fun r -> r.w_traced) -. off);
    ("trace.wall_share", "ratio", (trace -. off) /. off);
    ("spans.wall_share", "ratio", (best (fun r -> r.w_spans) -. trace) /. off);
    ("metrics.wall_share", "ratio", (metrics -. off) /. off);
    c "gc.minor_collections";
    c "gc.major_collections";
    ("gc.promoted_words_per_fault", "words", count "gc.promoted_words_per_fault");
  ]

let trace work ~has_auditor ~seconds =
  let warm = run_once work ~audit_end_only:false in
  let stop = now_s () +. seconds in
  (* one line per round, so that run.py moves the program between CPUs;
     at least two rounds, so that every wall is the faster of two *)
  let rec go acc =
    let t0 = now_s () in
    let r = round work ~has_auditor in
    let t1 = now_s () in
    emit [ ("round", string_of_int (List.length acc + 1)); ("wall_s", json_float r.w_off) ];
    if acc = [] || t1 +. (t1 -. t0) < stop then go (r :: acc) else List.rev (r :: acc)
  in
  let rounds = go [] in
  let metric (name, unit, v) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_float v)
      (json_string unit)
  in
  let baselines = warm :: List.map (fun r -> r.baseline) rounds in
  emit
    [
      ("rounds", string_of_int (List.length rounds));
      ("attempted", string_of_int (List.fold_left (fun n r -> n + r.runs) 1 rounds));
      ("problems", json_list (List.concat_map (fun r -> List.map json_string r.problems) rounds));
      ( "baselines",
        json_list
          (List.map
             (fun o ->
               Printf.sprintf "{\"fingerprint\": %s, \"problem\": %s}"
                 (json_string (fingerprint o)) (snd (problem_field o)))
             baselines) );
      ( "metrics",
        "{" ^ String.concat ", " (List.map metric (layer_metrics ~has_auditor rounds)) ^ "}" );
    ]

let () =
  let usage = "hostbench (measure|trace) --workload W --seed N --seconds S [--smoke]" in
  let mode = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 1.
  and smoke = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W join-mru | chaos-t3 | storm-1k");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--smoke", Arg.Set smoke, " reduced-size inputs");
    ]
    (fun m -> mode := m)
    usage;
  let work, has_auditor =
    match List.find_opt (fun (name, _, _) -> name = !workload) workloads with
    | Some (_, w, has_auditor) -> (w ~smoke:!smoke ~seed:!seed, has_auditor)
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  (* the numbers describe the default backend whatever HIPEC_BACKEND says *)
  Executor.set_default_backend Executor.Interp;
  match !mode with
  | "measure" -> measure work ~seconds:!seconds
  | "trace" -> trace work ~has_auditor ~seconds:!seconds
  | _ ->
      prerr_endline usage;
      exit 2
