(* Typed metrics registry for the simulated kernel.

   An installed registry is a stage of the trace sink
   (lib/trace/trace.ml): every metric whose value a trace event carries
   is derived from that event ([derive]).  The rest are emitted
   directly, from a global [current] registry plus a cached [enabled]
   bool, so a direct emit site is a single load and branch when no
   registry is installed — no closure, no allocation, no hashing.  With
   a registry installed, every observation pays one hashtable lookup on
   an interned literal name.

   Everything the registry accumulates is split into two worlds:

   - simulated-time fields (counters, gauges, histogram buckets, series
     points, per-opcode [sim_ns]) are deterministic functions of the
     simulation and safe to compare byte-for-byte across runs;
   - wall-clock fields (the profiler's [wall_ns]) are measurements of
     the host and are kept in clearly segregated fields that every
     exposition format can omit ([~wall:false]). *)

open Hipec_sim

(* ------------------------------------------------------------------ *)
(* Simulated-time series *)

module Series = struct
  (* Fixed-capacity ring of (sim_ns, value) points, downsampled on a
     configurable sim-tick: a sample is accepted only when at least
     [tick_ns] of simulated time passed since the last accepted one, so
     identical runs produce identical point sets. *)
  type t = {
    name : string;
    tick_ns : int;
    times : int array;
    values : int array;
    mutable head : int;  (* index of oldest point *)
    mutable len : int;
    mutable last_ns : int;  (* min_int = no sample yet *)
    mutable dropped : int;  (* oldest points evicted by the ring *)
  }

  let create ~tick_ns ~cap name =
    {
      name;
      tick_ns;
      times = Array.make cap 0;
      values = Array.make cap 0;
      head = 0;
      len = 0;
      last_ns = min_int;
      dropped = 0;
    }

  let name t = t.name
  let tick_ns t = t.tick_ns
  let dropped t = t.dropped

  let observe t ~now_ns v =
    if t.last_ns = min_int || now_ns - t.last_ns >= t.tick_ns then begin
      t.last_ns <- now_ns;
      let cap = Array.length t.times in
      if t.len = cap then begin
        (* ring full: overwrite the oldest *)
        t.times.(t.head) <- now_ns;
        t.values.(t.head) <- v;
        t.head <- (t.head + 1) mod cap;
        t.dropped <- t.dropped + 1
      end
      else begin
        let i = (t.head + t.len) mod cap in
        t.times.(i) <- now_ns;
        t.values.(i) <- v;
        t.len <- t.len + 1
      end
    end

  let points t =
    Array.init t.len (fun i ->
        let j = (t.head + i) mod Array.length t.times in
        (t.times.(j), t.values.(j)))
end

(* ------------------------------------------------------------------ *)
(* Per-opcode executor profiler *)

module Profile = struct
  (* Cells are indexed by [Opcode.code]; this library cannot depend on
     hipec_core (it would be a cycle), so the slot count just bounds the
     code space and display layers map indices back to names. *)
  let slots = 32

  type cell = { mutable count : int; mutable sim_ns : int; mutable wall_ns : int }

  let fresh_cell () = { count = 0; sim_ns = 0; wall_ns = 0 }

  type t = {
    backend : string;
    container : int;
    cells : cell array;  (* indexed by opcode code *)
    overhead : cell;  (* dispatch + entry work before the first fetch *)
    mutable runs : int;
    mutable live : run option;  (* the one run record, in its preallocated [Some] *)
  }

  (* One top-level executor run.  Attribution is by boundary timers: at
     each fetch the interval since the previous boundary is charged to
     the previously fetched opcode's cell (the overhead cell absorbs the
     dispatch charge before the first fetch), then the boundary moves.
     Wall time is read as integer nanoseconds from the monotonic clock,
     unboxed.  Runs never nest on one container, so each profile reuses
     one record and a run allocates none. *)
  and run = {
    prof : t;
    mutable pending : cell;
    mutable sim0 : int;
    mutable wall0 : int;
  }

  let create ~backend ~container =
    let overhead = fresh_cell () in
    let t =
      {
        backend;
        container;
        cells = Array.init slots (fun _ -> fresh_cell ());
        overhead;
        runs = 0;
        live = None;
      }
    in
    t.live <- Some { prof = t; pending = overhead; sim0 = 0; wall0 = 0 };
    t

  let backend t = t.backend
  let container t = t.container
  let runs t = t.runs
  let cells t = t.cells
  let overhead t = t.overhead

  let sim_total t =
    Array.fold_left (fun acc c -> acc + c.sim_ns) t.overhead.sim_ns t.cells

  let count_total t = Array.fold_left (fun acc c -> acc + c.count) 0 t.cells

  let wall_now () = Int64.to_int (Monotonic_clock.now ())

  let begin_run prof ~sim_ns =
    prof.runs <- prof.runs + 1;
    match prof.live with
    | Some run as live ->
        run.pending <- prof.overhead;
        run.sim0 <- sim_ns;
        run.wall0 <- wall_now ();
        live
    | None -> assert false

  let step run ~opcode ~sim_ns =
    let w = wall_now () in
    let prev = run.pending in
    prev.sim_ns <- prev.sim_ns + (sim_ns - run.sim0);
    prev.wall_ns <- prev.wall_ns + (w - run.wall0);
    let cell = run.prof.cells.(opcode) in
    cell.count <- cell.count + 1;
    run.pending <- cell;
    run.sim0 <- sim_ns;
    run.wall0 <- w

  let finish run ~sim_ns =
    let w = wall_now () in
    let prev = run.pending in
    prev.sim_ns <- prev.sim_ns + (sim_ns - run.sim0);
    prev.wall_ns <- prev.wall_ns + (w - run.wall0)
end

(* ------------------------------------------------------------------ *)
(* Registry *)

module Registry = struct
  type metric =
    | Counter of int ref
    | Gauge of int ref
    | Hist of Stats.Histogram.t
    | Srs of Series.t

  type t = {
    tick_ns : int;
    tbl : (string, metric) Hashtbl.t;
    profiles : (string * int, Profile.t) Hashtbl.t;
    norm : int Int_table.t;  (* raw container id -> dense *)
  }

  let default_tick_ns = 10_000_000 (* 10 ms of simulated time *)
  let series_cap = 512

  let create ?(tick_ns = default_tick_ns) () =
    if tick_ns <= 0 then invalid_arg "Registry.create: tick_ns <= 0";
    {
      tick_ns;
      tbl = Hashtbl.create 64;
      profiles = Hashtbl.create 8;
      norm = Int_table.create 8;
    }

  (* Container ids come from a process-global counter that survives
     across runs; normalize them to dense first-seen order (exactly like
     the trace sink's id spaces) so snapshots are run-position
     independent. *)
  let norm_container t raw = Int_table.dense_id t.norm raw

  let tick_ns t = t.tick_ns

  let kind_error name want =
    invalid_arg (Printf.sprintf "metric %s already registered with another kind (want %s)" name want)

  let counter_cell t name =
    match Hashtbl.find_opt t.tbl name with
    | Some (Counter r) -> r
    | Some _ -> kind_error name "counter"
    | None ->
        let r = ref 0 in
        Hashtbl.replace t.tbl name (Counter r);
        r

  let gauge_cell t name =
    match Hashtbl.find_opt t.tbl name with
    | Some (Gauge r) -> r
    | Some _ -> kind_error name "gauge"
    | None ->
        let r = ref 0 in
        Hashtbl.replace t.tbl name (Gauge r);
        r

  let hist_cell t name =
    match Hashtbl.find_opt t.tbl name with
    | Some (Hist h) -> h
    | Some _ -> kind_error name "histogram"
    | None ->
        let h = Stats.Histogram.create_log name in
        Hashtbl.replace t.tbl name (Hist h);
        h

  let series_cell t name =
    match Hashtbl.find_opt t.tbl name with
    | Some (Srs s) -> s
    | Some _ -> kind_error name "series"
    | None ->
        let s = Series.create ~tick_ns:t.tick_ns ~cap:series_cap name in
        Hashtbl.replace t.tbl name (Srs s);
        s

  let counter_add t name n =
    let r = counter_cell t name in
    r := !r + n

  let gauge_set t name v = gauge_cell t name := v
  let observe t name v = Stats.Histogram.add (hist_cell t name) (float_of_int v)
  let sample t name ~now_ns v = Series.observe (series_cell t name) ~now_ns v

  let counter_value t name =
    match Hashtbl.find_opt t.tbl name with Some (Counter r) -> Some !r | _ -> None

  let gauge_value t name =
    match Hashtbl.find_opt t.tbl name with Some (Gauge r) -> Some !r | _ -> None

  let histogram t name =
    match Hashtbl.find_opt t.tbl name with Some (Hist h) -> Some h | _ -> None

  let series t name =
    match Hashtbl.find_opt t.tbl name with Some (Srs s) -> Some s | _ -> None

  let histogram_list t =
    Hashtbl.fold
      (fun name m acc -> match m with Hist h -> (name, h) :: acc | _ -> acc)
      t.tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let series_list t =
    Hashtbl.fold (fun _ m acc -> match m with Srs s -> s :: acc | _ -> acc) t.tbl []
    |> List.sort (fun a b -> compare (Series.name a) (Series.name b))

  let profile t ~backend ~container =
    let container = norm_container t container in
    let key = (backend, container) in
    match Hashtbl.find_opt t.profiles key with
    | Some p -> p
    | None ->
        let p = Profile.create ~backend ~container in
        Hashtbl.replace t.profiles key p;
        p

  let profiles t =
    Hashtbl.fold (fun _ p acc -> p :: acc) t.profiles []
    |> List.sort (fun a b ->
           match compare a.Profile.backend b.Profile.backend with
           | 0 -> compare a.Profile.container b.Profile.container
           | c -> c)

  (* Aggregate the per-container profiles of one backend into a single
     cell array (plus overhead cell and total run count). *)
  let profile_totals t ~backend =
    let relevant = List.filter (fun p -> p.Profile.backend = backend) (profiles t) in
    match relevant with
    | [] -> None
    | ps ->
        let cells = Array.init Profile.slots (fun _ -> Profile.fresh_cell ()) in
        let overhead = Profile.fresh_cell () in
        let runs = ref 0 in
        List.iter
          (fun p ->
            runs := !runs + p.Profile.runs;
            overhead.Profile.count <- overhead.Profile.count + p.Profile.overhead.Profile.count;
            overhead.Profile.sim_ns <- overhead.Profile.sim_ns + p.Profile.overhead.Profile.sim_ns;
            overhead.Profile.wall_ns <- overhead.Profile.wall_ns + p.Profile.overhead.Profile.wall_ns;
            Array.iteri
              (fun i c ->
                cells.(i).Profile.count <- cells.(i).Profile.count + c.Profile.count;
                cells.(i).Profile.sim_ns <- cells.(i).Profile.sim_ns + c.Profile.sim_ns;
                cells.(i).Profile.wall_ns <- cells.(i).Profile.wall_ns + c.Profile.wall_ns)
              p.Profile.cells)
          ps;
        Some (cells, overhead, !runs)

  let sorted_names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] |> List.sort compare

  let fold_sorted t f acc =
    List.fold_left (fun acc name -> f acc name (Hashtbl.find t.tbl name)) acc (sorted_names t)

  (* ---------------------------------------------------------------- *)
  (* Exposition: kstat lines, JSON, Prometheus text format *)

  let pct h p = int_of_float (Stats.Histogram.percentile h p)

  (* Two-column lines for Kstat.pp; the caller owns the formatter and
     the column layout. *)
  let kstat_lines t =
    let lines =
      fold_sorted t
        (fun acc name m ->
          let v =
            match m with
            | Counter r -> string_of_int !r
            | Gauge r -> string_of_int !r
            | Hist h ->
                Printf.sprintf "n=%d p50=%d p90=%d p99=%d max=%d"
                  (Stats.Histogram.count h) (pct h 50.) (pct h 90.) (pct h 99.)
                  (int_of_float (Stats.Histogram.max h))
            | Srs s ->
                let pts = Series.points s in
                let n = Array.length pts in
                if n = 0 then "points=0"
                else
                  let _, last = pts.(n - 1) in
                  Printf.sprintf "points=%d last=%d" n last
          in
          (name, v) :: acc)
        []
      |> List.rev
    in
    let prof =
      List.map
        (fun p ->
          ( Printf.sprintf "opcode profile %s/c%d" p.Profile.backend p.Profile.container,
            Printf.sprintf "runs=%d cmds=%d sim_ns=%d" p.Profile.runs
              (Profile.count_total p) (Profile.sim_total p) ))
        (profiles t)
    in
    lines @ prof

  let json_escape = Hipec_trace.Event.json_escape

  let default_opcode_name i = Printf.sprintf "op%02d" i

  let json_of_profile ?(wall = true) ~opcode_name ~runs ~label (cells : Profile.cell array)
      (overhead : Profile.cell) =
    let b = Buffer.create 512 in
    Buffer.add_string b "{";
    Buffer.add_string b label;
    Buffer.add_string b (Printf.sprintf "\"runs\":%d,\"opcodes\":[" runs);
    let first = ref true in
    Array.iteri
      (fun i (c : Profile.cell) ->
        if c.Profile.count > 0 then begin
          if not !first then Buffer.add_char b ',';
          first := false;
          Buffer.add_string b
            (Printf.sprintf "{\"op\":%d,\"name\":\"%s\",\"count\":%d,\"sim_ns\":%d" i
               (json_escape (opcode_name i)) c.Profile.count c.Profile.sim_ns);
          if wall then Buffer.add_string b (Printf.sprintf ",\"wall_ns\":%d" c.Profile.wall_ns);
          Buffer.add_char b '}'
        end)
      cells;
    Buffer.add_string b "],";
    Buffer.add_string b
      (Printf.sprintf "\"overhead\":{\"count\":%d,\"sim_ns\":%d" overhead.Profile.count
         overhead.Profile.sim_ns);
    if wall then Buffer.add_string b (Printf.sprintf ",\"wall_ns\":%d" overhead.Profile.wall_ns);
    Buffer.add_string b "},";
    let sim_total =
      Array.fold_left (fun acc (c : Profile.cell) -> acc + c.Profile.sim_ns) overhead.Profile.sim_ns cells
    in
    Buffer.add_string b (Printf.sprintf "\"sim_ns_total\":%d}" sim_total);
    Buffer.contents b

  (* Deterministic JSON snapshot: metric names sorted, series points in
     sim-time order, wall-ns fields present only when [wall].  With
     [wall:false] two identical seeded runs serialize identically. *)
  let to_json ?(wall = true) ?(opcode_name = default_opcode_name) t =
    let b = Buffer.create 4096 in
    Buffer.add_string b (Printf.sprintf "{\"tick_ns\":%d,\"counters\":{" t.tick_ns);
    let first = ref true in
    let sep () =
      if !first then first := false else Buffer.add_char b ','
    in
    fold_sorted t
      (fun () name m ->
        match m with
        | Counter r ->
            sep ();
            Buffer.add_string b (Printf.sprintf "\"%s\":%d" (json_escape name) !r)
        | _ -> ())
      ();
    Buffer.add_string b "},\"gauges\":{";
    first := true;
    fold_sorted t
      (fun () name m ->
        match m with
        | Gauge r ->
            sep ();
            Buffer.add_string b (Printf.sprintf "\"%s\":%d" (json_escape name) !r)
        | _ -> ())
      ();
    Buffer.add_string b "},\"histograms\":[";
    first := true;
    fold_sorted t
      (fun () name m ->
        match m with
        | Hist h ->
            sep ();
            Buffer.add_string b
              (Printf.sprintf
                 "{\"name\":\"%s\",\"count\":%d,\"underflow\":%d,\"overflow\":%d,\"min\":%d,\"max\":%d,\"mean\":%d,\"p50\":%d,\"p90\":%d,\"p99\":%d}"
                 (json_escape name) (Stats.Histogram.count h) (Stats.Histogram.underflow h)
                 (Stats.Histogram.overflow h)
                 (int_of_float (Stats.Histogram.min h))
                 (int_of_float (Stats.Histogram.max h))
                 (int_of_float (Stats.Histogram.mean h))
                 (pct h 50.) (pct h 90.) (pct h 99.))
        | _ -> ())
      ();
    Buffer.add_string b "],\"series\":[";
    first := true;
    fold_sorted t
      (fun () name m ->
        match m with
        | Srs s ->
            sep ();
            Buffer.add_string b
              (Printf.sprintf "{\"name\":\"%s\",\"tick_ns\":%d,\"dropped\":%d,\"points\":["
                 (json_escape name) (Series.tick_ns s) (Series.dropped s));
            Array.iteri
              (fun i (tns, v) ->
                if i > 0 then Buffer.add_char b ',';
                Buffer.add_string b (Printf.sprintf "[%d,%d]" tns v))
              (Series.points s);
            Buffer.add_string b "]}"
        | _ -> ())
      ();
    Buffer.add_string b "],\"profiles\":[";
    first := true;
    List.iter
      (fun p ->
        sep ();
        let label =
          Printf.sprintf "\"backend\":\"%s\",\"container\":%d," (json_escape p.Profile.backend)
            p.Profile.container
        in
        Buffer.add_string b
          (json_of_profile ~wall ~opcode_name ~runs:p.Profile.runs ~label p.Profile.cells
             p.Profile.overhead))
      (profiles t);
    Buffer.add_string b "]}";
    Buffer.contents b

  let prom_name name =
    let b = Buffer.create (String.length name + 8) in
    Buffer.add_string b "hipec_";
    String.iter
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
        | _ -> Buffer.add_char b '_')
      name;
    Buffer.contents b

  (* Label values in the exposition format live inside double quotes
     and escape exactly backslash, double-quote and newline. *)
  let prom_label_escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  (* HELP text escapes only backslash and newline (no quoting). *)
  let prom_help_escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  (* Prometheus text exposition (v0.0.4).  Every family gets its
     # HELP/# TYPE header, with all its samples grouped under it.
     Histograms emit cumulative [le] buckets over the log-2 edges
     actually populated, plus the conventional _sum/_count pair. *)
  let to_prom ?(opcode_name = default_opcode_name) t =
    let b = Buffer.create 4096 in
    let header pname ~help ~kind =
      Buffer.add_string b
        (Printf.sprintf "# HELP %s %s\n# TYPE %s %s\n" pname (prom_help_escape help)
           pname kind)
    in
    fold_sorted t
      (fun () name m ->
        let pname = prom_name name in
        match m with
        | Counter r ->
            header pname ~help:(Printf.sprintf "Cumulative count of %s." name)
              ~kind:"counter";
            Buffer.add_string b (Printf.sprintf "%s %d\n" pname !r)
        | Gauge r ->
            header pname ~help:(Printf.sprintf "Current value of %s." name) ~kind:"gauge";
            Buffer.add_string b (Printf.sprintf "%s %d\n" pname !r)
        | Hist h ->
            header pname
              ~help:(Printf.sprintf "Distribution of %s (log-2 buckets)." name)
              ~kind:"histogram";
            let counts = Stats.Histogram.bucket_counts h in
            let cum = ref (Stats.Histogram.underflow h) in
            Array.iteri
              (fun i c ->
                cum := !cum + c;
                if c > 0 then
                  let _, hi = Stats.Histogram.bucket_bounds h i in
                  Buffer.add_string b
                    (Printf.sprintf "%s_bucket{le=\"%.0f\"} %d\n" pname hi !cum))
              counts;
            Buffer.add_string b
              (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" pname (Stats.Histogram.count h));
            Buffer.add_string b
              (Printf.sprintf "%s_sum %.0f\n%s_count %d\n" pname (Stats.Histogram.sum h)
                 pname (Stats.Histogram.count h))
        | Srs s -> (
            (* a series exports its most recent value as a gauge *)
            let pts = Series.points s in
            match Array.length pts with
            | 0 -> ()
            | n ->
                let _, last = pts.(n - 1) in
                header pname
                  ~help:(Printf.sprintf "Most recent sample of %s." name)
                  ~kind:"gauge";
                Buffer.add_string b (Printf.sprintf "%s %d\n" pname last)))
      ();
    (* the per-opcode profile: one family per measure, every profile's
       cells grouped under it so samples stay contiguous per family *)
    let profile_family suffix help value =
      match profiles t with
      | [] -> ()
      | ps ->
          let fname = "hipec_opcode_" ^ suffix in
          header fname ~help ~kind:"counter";
          List.iter
            (fun p ->
              Array.iteri
                (fun i (c : Profile.cell) ->
                  if c.Profile.count > 0 then
                    Buffer.add_string b
                      (Printf.sprintf "%s{backend=\"%s\",container=\"%d\",op=\"%s\"} %d\n"
                         fname
                         (prom_label_escape p.Profile.backend)
                         p.Profile.container
                         (prom_label_escape (opcode_name i))
                         (value c)))
                p.Profile.cells)
            ps
    in
    profile_family "commands_total" "Commands executed per opcode."
      (fun c -> c.Profile.count);
    profile_family "sim_ns_total" "Simulated nanoseconds attributed per opcode."
      (fun c -> c.Profile.sim_ns);
    profile_family "wall_ns_total" "Wall-clock nanoseconds attributed per opcode."
      (fun c -> c.Profile.wall_ns);
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* Metrics derived from trace events *)

module Tr = Hipec_trace.Trace
module Ev = Hipec_trace.Event

(* Fault-service latency histograms, one per fault kind plus an
   aggregate. *)
let fault_metric = function
  | Ev.Soft -> "vm.fault.soft.ns"
  | Ev.Zero_fill -> "vm.fault.zero_fill.ns"
  | Ev.File_pagein -> "vm.fault.pagein.ns"
  | Ev.Cow -> "vm.fault.cow.ns"
  | Ev.Hipec -> "vm.fault.hipec.ns"

(* The registry's stage of the trace sink: every metric an event
   carries the value of is counted here, not at the emit site. *)
let derived =
  Ev.Cat.[ fault; pressure; throttle; demote; seize; io_retry ]

let derive r (ev : Ev.t) =
  match ev.Ev.payload with
  | Ev.Fault { kind; latency_ns; _ } ->
      Registry.observe r (fault_metric kind) latency_ns;
      Registry.observe r "vm.fault.all.ns" latency_ns;
      Registry.counter_add r "vm.fault.count" 1
  | Ev.Pressure_change { level; _ } ->
      Registry.gauge_set r "vm.pressure.level" level;
      Registry.counter_add r "vm.pressure.changes" 1
  | Ev.Throttle { entered = true; _ } ->
      Registry.counter_add r "hipec.manager.throttles.entered" 1
  | Ev.Throttle { entered = false; _ } ->
      Registry.counter_add r "hipec.manager.throttles.exited" 1
  | Ev.Demote _ -> Registry.counter_add r "hipec.manager.demotions" 1
  | Ev.Seize { frames; _ } ->
      Registry.counter_add r "hipec.manager.emergency_seizures" 1;
      Registry.counter_add r "hipec.manager.emergency_frames" frames
  | Ev.Io_retry { gave_up = false; attempt; _ } ->
      Registry.observe r "vm.io_retry.attempt" attempt
  | Ev.Io_retry { gave_up = true; _ } -> Registry.counter_add r "vm.io_retry.giveups" 1
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Global install point and zero-cost emit sites *)

let current : (Registry.t * Tr.stage) option ref = ref None
let enabled = ref false

let uninstall () =
  match !current with
  | None -> None
  | Some (r, stage) ->
      Tr.detach stage;
      current := None;
      enabled := false;
      Some r

let install ?tick_ns () =
  ignore (uninstall ());
  let r = Registry.create ?tick_ns () in
  current := Some (r, Tr.attach ~categories:derived (derive r));
  enabled := true;
  r

let active () = Option.map fst !current
let on () = !enabled

(* Dense per-registry alias for a process-global container id, for emit
   sites that bake the id into a metric name.  Identity when disabled. *)
let container_id raw =
  match !current with None -> raw | Some (r, _) -> Registry.norm_container r raw

(* The emit helpers pattern-match [!current] directly (no closure) so a
   disabled emit is a load, a branch and a return. *)

let incr name = match !current with None -> () | Some (r, _) -> Registry.counter_add r name 1
let add name n = match !current with None -> () | Some (r, _) -> Registry.counter_add r name n

let gauge_set name v =
  match !current with None -> () | Some (r, _) -> Registry.gauge_set r name v

let observe name v = match !current with None -> () | Some (r, _) -> Registry.observe r name v

let sample name v =
  match !current with
  | None -> ()
  | Some (r, _) -> Registry.sample r name ~now_ns:(Sim_time.to_ns (Tr.now ())) v

(* Profiler entry points for the executor backends. *)

let profile_begin ~backend ~container ~sim_ns =
  match !current with
  | None -> None
  | Some (r, _) -> Profile.begin_run (Registry.profile r ~backend ~container) ~sim_ns

let profile_step run ~opcode ~sim_ns = Profile.step run ~opcode ~sim_ns
let profile_end run ~sim_ns = Profile.finish run ~sim_ns
