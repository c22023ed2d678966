open Hipec_sim

(* Span reconstruction works by tiling: a [Fault] event carries the
   window [time - latency_ns, time], and every event timestamp strictly
   inside it becomes a cut.  Each resulting interval is attributed from
   the events at its two boundaries, in a fixed priority order that
   mirrors where the emitters sit relative to their sim-time charges:

     - a [Policy_run] closes the executor's charge for that run, so an
       interval *ending* at one is policy execution;
     - a synchronous read's [Disk_io] is emitted before its transfer is
       charged, so an interval *starting* at one is the transfer;
     - an [Io_retry] (not given up) is emitted before its backoff charge;
     - an async writeback's [Disk_io] lands at completion, so an
       interval *ending* at one with no other explanation is a stall
       waiting on the laundry;
     - [Evict]/[Pageout] close reclaim-scan charges;
     - everything else is kernel bookkeeping ([Service]).

   The builder keeps no events: each one folds into the group of its
   timestamp (the OR of one boundary bit per rule above, plus running
   counts), so a window is a suffix of groups and an interval's kind is
   bit tests on the groups at its ends.  Because the intervals partition
   the window, their durations sum to the fault's latency exactly —
   asserted per fault.  A HiPEC-kind fault whose window contains no
   [Policy_run] was served by the kernel-run default policy of a
   throttled tenant; its [Service] time is [Throttled] instead. *)

type segment_kind =
  | Policy
  | Disk_read
  | Backoff
  | Laundry_wait
  | Reclaim
  | Throttled
  | Service

let segment_kind_index = function
  | Policy -> 0
  | Disk_read -> 1
  | Backoff -> 2
  | Laundry_wait -> 3
  | Reclaim -> 4
  | Throttled -> 5
  | Service -> 6

let num_segment_kinds = 7

let segment_kind_name = function
  | Policy -> "policy"
  | Disk_read -> "disk-read"
  | Backoff -> "backoff"
  | Laundry_wait -> "laundry-wait"
  | Reclaim -> "reclaim"
  | Throttled -> "throttled"
  | Service -> "service"

type segment = { seg_kind : segment_kind; seg_start_ns : int; seg_stop_ns : int }

let seg_dur_ns s = s.seg_stop_ns - s.seg_start_ns

type t = {
  index : int;
  task : int;
  vpn : int;
  fault_kind : Event.fault_kind;
  start_ns : int;
  stop_ns : int;
  latency_ns : int;
  segments : segment array;
  policy_runs : int;
  disk_reads : int;
  retries : int;
}

let phases sp =
  let out = ref [] in
  Array.iter
    (fun s ->
      match !out with
      | (k, a, _, n) :: rest when k = s.seg_kind ->
          out := (k, a, s.seg_stop_ns, n + 1) :: rest
      | _ -> out := (s.seg_kind, s.seg_start_ns, s.seg_stop_ns, 1) :: !out)
    sp.segments;
  List.rev !out

let by_kind_ns sp =
  let a = Array.make num_segment_kinds 0 in
  Array.iter
    (fun s -> a.(segment_kind_index s.seg_kind) <- a.(segment_kind_index s.seg_kind) + seg_dur_ns s)
    sp.segments;
  a

(* ------------------------------------------------------------------ *)
(* Building                                                            *)
(* ------------------------------------------------------------------ *)

(* Boundary bits: what a group of same-time events says about the
   intervals on either side of it (priority order in the header). *)
let b_policy = 1
let b_read = 2
let b_retry = 4
let b_write = 8
let b_reclaim = 16

(* Since the last fault the builder keeps one group per distinct event
   time, [stride] ints each in [groups]: the time, the OR of its events'
   boundary bits, then the running policy-run, disk-read and retry
   counts since the last fault, this group's events included. *)
let stride = 5
let c_policy = 2
let c_read = 3
let c_retry = 4

(* running count [k] over the first [n] groups *)
let running g n k = if n = 0 then 0 else g.(((n - 1) * stride) + k)

type builder = {
  mutable groups : int array;
  mutable ngroups : int;
  mutable spans_rev : t list;
  mutable nspans : int;
  digest : Encoder.digest;
  mutable kill_count : int;
  scratch : Encoder.t;
}

let create () =
  {
    groups = Array.make (64 * stride) 0;
    ngroups = 0;
    spans_rev = [];
    nspans = 0;
    digest = Encoder.digest ();
    kill_count = 0;
    scratch = Encoder.create 128;
  }

(* Fold one non-fault event at [time] into the last group, or open a
   new one: events arrive in time order, so equal times are adjacent. *)
let add b time bit =
  let n = b.ngroups in
  let o =
    if n > 0 && b.groups.((n - 1) * stride) = time then (n - 1) * stride
    else begin
      let o = n * stride in
      if o + stride > Array.length b.groups then begin
        let g = Array.make (2 * Array.length b.groups) 0 in
        Array.blit b.groups 0 g 0 o;
        b.groups <- g
      end;
      let g = b.groups in
      g.(o) <- time;
      g.(o + 1) <- 0;
      for k = c_policy to c_retry do
        g.(o + k) <- running g n k
      done;
      b.ngroups <- n + 1;
      o
    end
  in
  let g = b.groups in
  g.(o + 1) <- g.(o + 1) lor bit;
  if bit = b_policy then g.(o + c_policy) <- g.(o + c_policy) + 1
  else if bit = b_read then g.(o + c_read) <- g.(o + c_read) + 1
  else if bit = b_retry then g.(o + c_retry) <- g.(o + c_retry) + 1

(* One interval, from the bits of the groups at its two boundaries. *)
let classify ~throttled ~prev ~next =
  if next land b_policy <> 0 then Policy
  else if prev land b_read <> 0 then Disk_read
  else if prev land b_retry <> 0 then Backoff
  else if next land b_write <> 0 then Laundry_wait
  else if next land b_reclaim <> 0 then Reclaim
  else if throttled then Throttled
  else Service

let digest_span b sp =
  let e = b.scratch in
  Encoder.clear e;
  Encoder.put_varint e sp.task;
  Encoder.put_varint e sp.vpn;
  Encoder.put_byte e (Event.fault_kind_code sp.fault_kind);
  Encoder.put_varint e sp.start_ns;
  Encoder.put_varint e sp.latency_ns;
  Encoder.put_varint e sp.policy_runs;
  Encoder.put_varint e sp.disk_reads;
  Encoder.put_varint e sp.retries;
  Encoder.put_varint e (Array.length sp.segments);
  for i = 0 to Array.length sp.segments - 1 do
    let s = sp.segments.(i) in
    Encoder.put_byte e (segment_kind_index s.seg_kind);
    Encoder.put_varint e (seg_dur_ns s)
  done;
  Encoder.digest_add b.digest e

let no_segment = { seg_kind = Service; seg_start_ns = 0; seg_stop_ns = 0 }

let close b ev ~task ~vpn ~kind ~latency_ns =
  let stop = Sim_time.to_ns ev.Event.time in
  let start = stop - latency_ns in
  let g = b.groups and last = b.ngroups in
  (* the window is the suffix of groups after [start]; groups at or
     before it are the inter-fault gap and carry no window time *)
  let first = ref last in
  while !first > 0 && g.((!first - 1) * stride) > start do
    decr first
  done;
  let first = !first in
  let count k = running g last k - running g first k in
  let policy_runs = count c_policy and disk_reads = count c_read and retries = count c_retry in
  (* a HiPEC fault with no policy run was served by the throttled
     tenant's kernel-run default policy *)
  let throttled = kind = Event.Hipec && policy_runs = 0 in
  (* every group before [stop] cuts the window; a group at [stop]
     merges into the closing boundary *)
  let cuts = if last > first && g.((last - 1) * stride) >= stop then last - 1 else last in
  let segments = Array.make (if latency_ns > 0 then cuts - first + 1 else 0) no_segment in
  let cur = ref start and prev = ref 0 and total = ref 0 in
  for i = 0 to Array.length segments - 1 do
    let j = first + i in
    let z = if j < cuts then g.(j * stride) else stop in
    let next = if j < last then g.((j * stride) + 1) else 0 in
    segments.(i) <-
      { seg_kind = classify ~throttled ~prev:!prev ~next; seg_start_ns = !cur; seg_stop_ns = z };
    total := !total + (z - !cur);
    cur := z;
    prev := next
  done;
  if !total <> latency_ns then
    failwith
      (Printf.sprintf "Span: window tiling sums to %d ns but fault %d recorded %d ns" !total
         ev.Event.seq latency_ns);
  let sp =
    {
      index = b.nspans;
      task;
      vpn;
      fault_kind = kind;
      start_ns = start;
      stop_ns = stop;
      latency_ns;
      segments;
      policy_runs;
      disk_reads;
      retries;
    }
  in
  b.spans_rev <- sp :: b.spans_rev;
  b.nspans <- b.nspans + 1;
  digest_span b sp

let feed b ev =
  let time = Sim_time.to_ns ev.Event.time in
  match ev.Event.payload with
  | Event.Fault { task; vpn; kind; latency_ns } ->
      close b ev ~task ~vpn ~kind ~latency_ns;
      b.ngroups <- 0
  | Event.Policy_run _ -> add b time b_policy
  | Event.Disk_io { write = false; _ } -> add b time b_read
  | Event.Disk_io { write = true; _ } -> add b time b_write
  | Event.Io_retry { gave_up = false; _ } -> add b time b_retry
  | Event.Evict _ | Event.Pageout _ -> add b time b_reclaim
  | Event.Task_kill _ ->
      b.kill_count <- b.kill_count + 1;
      add b time 0
  | _ -> add b time 0

let of_events events =
  let b = create () in
  Array.iter (feed b) events;
  b

let spans b = Array.of_list (List.rev b.spans_rev)
let digest b = Encoder.digest_value b.digest
let fault_count b = b.nspans
let kills b = b.kill_count

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

module Agg = struct
  type row = {
    kind : segment_kind;
    total_ns : int;
    faults_touched : int;
    p50_ns : int;
    p90_ns : int;
    p99_ns : int;
  }

  type t' = {
    faults : int;
    total_latency_ns : int;
    lat_p50_ns : int;
    lat_p90_ns : int;
    lat_p99_ns : int;
    rows : row list;
    tail_rows : (segment_kind * int) list;
    tail_faults : int;
  }

  let all_kinds =
    [ Policy; Disk_read; Backoff; Laundry_wait; Reclaim; Throttled; Service ]

  let compute spans =
    let faults = Array.length spans in
    let latencies = Array.map (fun sp -> sp.latency_ns) spans in
    let per_fault = Array.map by_kind_ns spans in
    let pct = Stats.Percentile.of_ints in
    let rows =
      List.filter_map
        (fun kind ->
          let ki = segment_kind_index kind in
          let touched =
            Array.to_list per_fault
            |> List.filter_map (fun a -> if a.(ki) > 0 then Some a.(ki) else None)
          in
          match touched with
          | [] -> None
          | _ ->
              let samples = Array.of_list touched in
              Some
                {
                  kind;
                  total_ns = Array.fold_left ( + ) 0 samples;
                  faults_touched = Array.length samples;
                  p50_ns = pct samples 0.50;
                  p90_ns = pct samples 0.90;
                  p99_ns = pct samples 0.99;
                })
        all_kinds
      |> List.sort (fun a b -> compare (b.total_ns, a.kind) (a.total_ns, b.kind))
    in
    let lat_p99 = pct latencies 0.99 in
    let tail_idx = ref [] in
    Array.iteri (fun i l -> if faults > 0 && l >= lat_p99 then tail_idx := i :: !tail_idx) latencies;
    let tail_rows =
      List.filter_map
        (fun kind ->
          let ki = segment_kind_index kind in
          let total =
            List.fold_left (fun acc i -> acc + per_fault.(i).(ki)) 0 !tail_idx
          in
          if total > 0 then Some (kind, total) else None)
        all_kinds
      |> List.sort (fun (ka, a) (kb, b) -> compare (b, ka) (a, kb))
    in
    {
      faults;
      total_latency_ns = Array.fold_left ( + ) 0 latencies;
      lat_p50_ns = pct latencies 0.50;
      lat_p90_ns = pct latencies 0.90;
      lat_p99_ns = lat_p99;
      rows;
      tail_rows;
      tail_faults = List.length !tail_idx;
    }

  let pp fmt a =
    Format.fprintf fmt "@[<v>spans: %d faults, total latency %d ns (p50 %d, p90 %d, p99 %d)@,"
      a.faults a.total_latency_ns a.lat_p50_ns a.lat_p90_ns a.lat_p99_ns;
    if a.rows <> [] then begin
      Format.fprintf fmt "  %-13s %14s %7s %12s %12s %12s %8s@," "segment" "total ns"
        "share" "p50 ns" "p90 ns" "p99 ns" "faults";
      List.iter
        (fun r ->
          let share =
            if a.total_latency_ns = 0 then 0.
            else 100. *. float_of_int r.total_ns /. float_of_int a.total_latency_ns
          in
          Format.fprintf fmt "  %-13s %14d %6.1f%% %12d %12d %12d %8d@,"
            (segment_kind_name r.kind) r.total_ns share r.p50_ns r.p90_ns r.p99_ns
            r.faults_touched)
        a.rows;
      let tail_total = List.fold_left (fun acc (_, n) -> acc + n) 0 a.tail_rows in
      if tail_total > 0 then begin
        Format.fprintf fmt "  where the p99 went (%d tail faults >= %d ns):@,"
          a.tail_faults a.lat_p99_ns;
        List.iter
          (fun (k, n) ->
            Format.fprintf fmt "    %-13s %14d ns %6.1f%%@," (segment_kind_name k) n
              (100. *. float_of_int n /. float_of_int tail_total))
          a.tail_rows
      end
    end;
    Format.fprintf fmt "@]"
end

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

(* ns rendered as microseconds with a fixed three decimals, keeping the
   output free of float formatting variance *)
let us_of_ns b ns =
  Buffer.add_string b (Printf.sprintf "%d.%03d" (ns / 1000) (ns mod 1000))

let perfetto_event b ~name ~cat ~tid ~start_ns ~dur_ns ~args =
  Buffer.add_string b (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":" name cat);
  us_of_ns b start_ns;
  Buffer.add_string b ",\"dur\":";
  us_of_ns b dur_ns;
  Buffer.add_string b (Printf.sprintf ",\"pid\":0,\"tid\":%d" tid);
  (match args with
  | [] -> ()
  | args ->
      Buffer.add_string b ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "\"%s\":%d" k v))
        args;
      Buffer.add_char b '}');
  Buffer.add_char b '}'

let to_perfetto spans =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let emit f =
    if not !first then Buffer.add_string b ",\n";
    first := false;
    f ()
  in
  Array.iter
    (fun sp ->
      emit (fun () ->
          perfetto_event b
            ~name:("fault:" ^ Event.fault_kind_name sp.fault_kind)
            ~cat:"fault" ~tid:sp.task ~start_ns:sp.start_ns ~dur_ns:sp.latency_ns
            ~args:
              [
                ("index", sp.index);
                ("vpn", sp.vpn);
                ("latency_ns", sp.latency_ns);
                ("policy_runs", sp.policy_runs);
                ("retries", sp.retries);
              ]);
      List.iter
        (fun (kind, a, z, nsegs) ->
          emit (fun () ->
              perfetto_event b ~name:(segment_kind_name kind) ~cat:"phase" ~tid:sp.task
                ~start_ns:a ~dur_ns:(z - a) ~args:[ ("segments", nsegs) ]);
          if nsegs > 1 then
            Array.iter
              (fun s ->
                if s.seg_kind = kind && s.seg_start_ns >= a && s.seg_stop_ns <= z then
                  emit (fun () ->
                      perfetto_event b
                        ~name:(segment_kind_name kind ^ "#")
                        ~cat:"segment" ~tid:sp.task ~start_ns:s.seg_start_ns
                        ~dur_ns:(seg_dur_ns s) ~args:[]))
              sp.segments)
        (phases sp))
    spans;
  Buffer.add_string b "]}\n";
  Buffer.contents b

let json_span b sp =
  Buffer.add_string b
    (Printf.sprintf
       "{\"index\":%d,\"task\":%d,\"vpn\":%d,\"kind\":\"%s\",\"start_ns\":%d,\"latency_ns\":%d,\"policy_runs\":%d,\"disk_reads\":%d,\"retries\":%d,\"segments\":["
       sp.index sp.task sp.vpn (Event.fault_kind_name sp.fault_kind) sp.start_ns
       sp.latency_ns sp.policy_runs sp.disk_reads sp.retries);
  Array.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"kind\":\"%s\",\"start_ns\":%d,\"dur_ns\":%d}"
           (segment_kind_name s.seg_kind) s.seg_start_ns (seg_dur_ns s)))
    sp.segments;
  Buffer.add_string b "]}"

let to_json ?(include_spans = true) ?only_task builder =
  let sps = spans builder in
  let sps =
    match only_task with
    | None -> sps
    | Some t -> Array.of_seq (Seq.filter (fun sp -> sp.task = t) (Array.to_seq sps))
  in
  let a = Agg.compute sps in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"digest\":\"%016Lx\",\"faults\":%d,\"kills\":%d,\"total_latency_ns\":%d,\"lat_p50_ns\":%d,\"lat_p90_ns\":%d,\"lat_p99_ns\":%d,\"rows\":["
       (digest builder) a.Agg.faults builder.kill_count a.Agg.total_latency_ns
       a.Agg.lat_p50_ns a.Agg.lat_p90_ns a.Agg.lat_p99_ns);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"kind\":\"%s\",\"total_ns\":%d,\"faults\":%d,\"p50_ns\":%d,\"p90_ns\":%d,\"p99_ns\":%d}"
           (segment_kind_name r.Agg.kind) r.Agg.total_ns r.Agg.faults_touched
           r.Agg.p50_ns r.Agg.p90_ns r.Agg.p99_ns))
    a.Agg.rows;
  Buffer.add_string b
    (Printf.sprintf "],\"tail_faults\":%d,\"tail\":[" a.Agg.tail_faults);
  List.iteri
    (fun i (k, n) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"kind\":\"%s\",\"total_ns\":%d}" (segment_kind_name k) n))
    a.Agg.tail_rows;
  Buffer.add_string b "]";
  if include_spans then begin
    Buffer.add_string b ",\"spans\":[";
    Array.iteri
      (fun i sp ->
        if i > 0 then Buffer.add_string b ",\n";
        json_span b sp)
      sps;
    Buffer.add_string b "]"
  end;
  Buffer.add_string b "}\n";
  Buffer.contents b

let pp_span fmt sp =
  Format.fprintf fmt "@[<v>#%d task=%d vpn=%d %s %d ns @@%d ns" sp.index sp.task
    sp.vpn (Event.fault_kind_name sp.fault_kind) sp.latency_ns sp.start_ns;
  List.iter
    (fun (kind, a, z, nsegs) ->
      Format.fprintf fmt "@,  %-13s %12d ns%s" (segment_kind_name kind) (z - a)
        (if nsegs > 1 then Printf.sprintf " (%d segments)" nsegs else ""))
    (phases sp);
  Format.fprintf fmt "@]"
