open Hipec_sim

(* Per-id-space normalization: raw kernel ids come from global counters
   that survive across runs in one process; digests must not. *)
let space_task = 0
let space_obj = 1
let space_container = 2

(* Raw id -> dense id, by open addressing over one flat array of
   (raw, dense) pairs, so a lookup usually reads one cache line.  Raw
   ids come from counters, so their low bits spread them over the
   slots.  No raw id is [min_int], which marks a free slot. *)
type ids = { mutable cells : int array; mutable count : int }

let free_slot = min_int
let ids_create () = { cells = Array.make 128 free_slot; count = 0 }

(* The pair index holding [raw], or the free one where it would go. *)
let rec find_slot cells raw i =
  let k = cells.(i) in
  if k = raw || k = free_slot then i
  else find_slot cells raw ((i + 2) land (Array.length cells - 1))

let home cells raw = (2 * raw) land (Array.length cells - 1)

(* Doubles at a quarter full (half the pair slots). *)
let grow ids =
  let old = ids.cells in
  let cells = Array.make (2 * Array.length old) free_slot in
  for i = 0 to (Array.length old / 2) - 1 do
    let raw = old.(2 * i) in
    if raw <> free_slot then begin
      let j = find_slot cells raw (home cells raw) in
      cells.(j) <- raw;
      cells.(j + 1) <- old.((2 * i) + 1)
    end
  done;
  ids.cells <- cells

(* Fills ring slots no event has reached yet; its [seq] matches none. *)
let no_event =
  { Event.seq = -1; time = Sim_time.zero; payload = Event.Map_op { vpn = 0; enter = false } }

type collector = {
  mutable seq : int;
  counts : int array;
  fault_latency : int array;  (* 16 x 1ms buckets *)
  mutable fault_latency_overflow : int;
  ring : Event.t array;
  digest : Encoder.digest;
  scratch : Encoder.t;  (* the current event's bytes *)
  store : Buffer.t option;
  mutable clock : unit -> Sim_time.t;
  norm : ids array;  (* one table per id space *)
  (* online span building and other live consumers hang here; [None]
     costs one match per push *)
  mutable consumer : (Event.t -> unit) option;
}

let current : collector option ref = ref None
let enabled = ref false
let on () = !enabled
let active () = !current

let start ?(ring = 512) ?(store = false) ?clock () =
  let c =
    {
      seq = 0;
      counts = Array.make Event.num_categories 0;
      fault_latency = Array.make 16 0;
      fault_latency_overflow = 0;
      ring = Array.make (max 1 ring) no_event;
      digest = Encoder.digest ();
      scratch = Encoder.create 64;
      store = (if store then Some (Buffer.create 4096) else None);
      clock = Option.value clock ~default:(fun () -> Sim_time.zero);
      norm = Array.init 3 (fun _ -> ids_create ());
      consumer = None;
    }
  in
  current := Some c;
  enabled := true;
  c

let stop () =
  let c = !current in
  current := None;
  enabled := false;
  c

let set_clock f = match !current with Some c -> c.clock <- f | None -> ()
let set_consumer f = match !current with Some c -> c.consumer <- f | None -> ()

let push c payload =
  let ev = { Event.seq = c.seq; time = c.clock (); payload } in
  c.seq <- c.seq + 1;
  let tag = Event.tag payload in
  c.counts.(tag) <- c.counts.(tag) + 1;
  Encoder.clear c.scratch;
  Event.encode c.scratch ev;
  Encoder.digest_add c.digest c.scratch;
  (match c.store with Some b -> Encoder.add_to_buffer b c.scratch | None -> ());
  c.ring.(ev.Event.seq mod Array.length c.ring) <- ev;
  match c.consumer with Some f -> f ev | None -> ()

let norm c space raw =
  let ids = c.norm.(space) in
  let cells = ids.cells in
  let i = find_slot cells raw (home cells raw) in
  if cells.(i) = raw then cells.(i + 1)
  else begin
    let dense = ids.count in
    cells.(i) <- raw;
    cells.(i + 1) <- dense;
    ids.count <- dense + 1;
    if 4 * ids.count > Array.length cells then grow ids;
    dense
  end

(* Every emitter matches [!current] itself rather than passing a closure
   to a helper, so with no collector installed a call allocates
   nothing. *)

let access ~task ~vpn ~write =
  match !current with
  | None -> ()
  | Some c -> push c (Event.Access { task = norm c space_task task; vpn; write })

let fault ~task ~vpn ~kind ~latency_ns =
  match !current with
  | None -> ()
  | Some c ->
      let bucket = latency_ns / 1_000_000 in
      if bucket < 16 then c.fault_latency.(bucket) <- c.fault_latency.(bucket) + 1
      else c.fault_latency_overflow <- c.fault_latency_overflow + 1;
      push c (Event.Fault { task = norm c space_task task; vpn; kind; latency_ns })

let pagein ~task ~block =
  match !current with
  | None -> ()
  | Some c -> push c (Event.Pagein { task = norm c space_task task; block })

let pageout ~obj ~offset ~block =
  match !current with
  | None -> ()
  | Some c -> push c (Event.Pageout { obj_id = norm c space_obj obj; offset; block })

let evict ~source ~obj ~offset ~dirty =
  match !current with
  | None -> ()
  | Some c ->
      push c (Event.Evict { source; obj_id = norm c space_obj obj; offset; dirty })

let grant ~container ~frames =
  match !current with
  | None -> ()
  | Some c ->
      push c (Event.Grant { container = norm c space_container container; frames })

let reclaim ~container ~frames ~forced =
  match !current with
  | None -> ()
  | Some c ->
      push c
        (Event.Reclaim { container = norm c space_container container; frames; forced })

let policy_run ~container ~event ~outcome ~commands =
  match !current with
  | None -> ()
  | Some c ->
      push c
        (Event.Policy_run
           { container = norm c space_container container; event; outcome; commands })

let demote ~container ~reason =
  match !current with
  | None -> ()
  | Some c ->
      push c (Event.Demote { container = norm c space_container container; reason })

let io_retry ~block ~write ~attempt ~gave_up =
  match !current with
  | None -> ()
  | Some c -> push c (Event.Io_retry { block; write; attempt; gave_up })

let disk_io ~block ~nblocks ~write ~ok =
  match !current with
  | None -> ()
  | Some c -> push c (Event.Disk_io { block; nblocks; write; ok })

let map_op ~vpn ~enter =
  match !current with None -> () | Some c -> push c (Event.Map_op { vpn; enter })

let kill ~task ~reason =
  match !current with
  | None -> ()
  | Some c -> push c (Event.Task_kill { task = norm c space_task task; reason })

let pressure ~level ~free =
  match !current with
  | None -> ()
  | Some c -> push c (Event.Pressure_change { level; free })

let throttle ~container ~entered ~fuel =
  match !current with
  | None -> ()
  | Some c ->
      push c
        (Event.Throttle { container = norm c space_container container; entered; fuel })

let seize ~container ~frames ~level =
  match !current with
  | None -> ()
  | Some c ->
      push c
        (Event.Seize { container = norm c space_container container; frames; level })

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let events_seen c = c.seq
let counts c = Array.copy c.counts
let digest c = Encoder.digest_value c.digest
let digest_hex d = Printf.sprintf "%016Lx" d

let recent c =
  let cap = Array.length c.ring in
  let first = max 0 (c.seq - cap) in
  let out = ref [] in
  for s = c.seq - 1 downto first do
    let ev = c.ring.(s mod cap) in
    if ev.Event.seq = s then out := ev :: !out
  done;
  !out

let decode_stream s count =
  let pos = ref 0 in
  Array.init count (fun seq -> Event.decode s ~pos ~seq)

let events c =
  match c.store with
  | None -> invalid_arg "Trace.events: collector was started without ~store:true"
  | Some b -> decode_stream (Buffer.contents b) c.seq

let fault_latency_buckets c = (Array.copy c.fault_latency, c.fault_latency_overflow)

(* Shared category-count and latency-bucket formatting: [pp_summary] and
   [Kstat.pp] print the same strings, built here exactly once so the two
   surfaces cannot drift apart. *)
let counts_summary c =
  let parts = ref [] in
  for i = Event.num_categories - 1 downto 0 do
    if c.counts.(i) > 0 then
      parts := Printf.sprintf "%s %d" (Event.category_name i) c.counts.(i) :: !parts
  done;
  String.concat ", " !parts

let fault_latency_summary c =
  Printf.sprintf "[%s | >16ms %d]"
    (String.concat " " (Array.to_list (Array.map string_of_int c.fault_latency)))
    c.fault_latency_overflow

let pp_summary fmt c =
  Format.fprintf fmt "@[<v>trace: %d events, digest %s@," c.seq (digest_hex (digest c));
  let counts = counts_summary c in
  Format.fprintf fmt "  counts: %s@," (if counts = "" then "(empty)" else counts);
  let total_faults = Array.fold_left ( + ) c.fault_latency_overflow c.fault_latency in
  if total_faults > 0 then
    Format.fprintf fmt "  fault latency (1ms buckets): %s@," (fault_latency_summary c);
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* Recorded streams                                                    *)
(* ------------------------------------------------------------------ *)

module Recorded = struct
  type t = { meta : (string * string) list; events : Event.t array; digest : int64 }

  let of_collector c ~meta = { meta; events = events c; digest = digest c }
  let meta_find t key = List.assoc_opt key t.meta

  let magic = "HPTR1\n"

  let save t ~path =
    let e = Encoder.create 4096 in
    Encoder.put_varint e (List.length t.meta);
    List.iter
      (fun (k, v) ->
        Encoder.put_string e k;
        Encoder.put_string e v)
      t.meta;
    Encoder.put_varint e (Array.length t.events);
    Array.iter (Event.encode e) t.events;
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc magic;
        output_string oc (Encoder.contents e);
        let d = Bytes.create 8 in
        Bytes.set_int64_be d 0 t.digest;
        output_bytes oc d)

  let load ~path =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error e -> Error e
    | exception End_of_file -> Error (path ^ ": truncated trace file")
    | s -> (
        try
          if String.length s < String.length magic + 8 then
            failwith "truncated trace file";
          if String.sub s 0 (String.length magic) <> magic then
            failwith "not a HiPEC trace file (bad magic)";
          let pos = ref (String.length magic) in
          let get_varint () = Event.decode_varint s pos in
          let get_string () =
            let len = get_varint () in
            if !pos + len > String.length s then failwith "truncated meta";
            let r = String.sub s !pos len in
            pos := !pos + len;
            r
          in
          let nmeta = get_varint () in
          let meta =
            List.init nmeta (fun _ ->
                let k = get_string () in
                let v = get_string () in
                (k, v))
          in
          let count = get_varint () in
          let body_start = !pos in
          let events = Array.init count (fun seq -> Event.decode s ~pos ~seq) in
          let body_end = !pos in
          if body_end + 8 > String.length s then failwith "truncated digest";
          let stored = String.get_int64_be s body_end in
          (* recompute the streaming digest over the encoded bytes *)
          let d = Encoder.digest () in
          Encoder.digest_add_string d s ~pos:body_start ~len:(body_end - body_start);
          let h = Encoder.digest_value d in
          if h <> stored then
            failwith
              (Printf.sprintf "digest mismatch: file says %s, events hash to %s"
                 (digest_hex stored) (digest_hex h));
          Ok { meta; events; digest = stored }
        with
        | Failure e -> Error (path ^ ": " ^ e)
        | Invalid_argument e -> Error (path ^ ": malformed trace file (" ^ e ^ ")"))

  let to_json t =
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\"meta\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\"%s\":\"%s\"" k v))
      t.meta;
    Buffer.add_string b
      (Printf.sprintf "},\"digest\":\"%s\",\"events\":[" (digest_hex t.digest));
    Array.iteri
      (fun i ev ->
        if i > 0 then Buffer.add_string b ",\n";
        Event.to_json b ev)
      t.events;
    Buffer.add_string b "]}\n";
    Buffer.contents b

  type divergence = { seq : int; left : Event.t option; right : Event.t option }

  let diff a b =
    let na = Array.length a.events and nb = Array.length b.events in
    let rec scan i =
      if i >= na && i >= nb then None
      else if i >= na then Some { seq = i; left = None; right = Some b.events.(i) }
      else if i >= nb then Some { seq = i; left = Some a.events.(i); right = None }
      else
        let ea = a.events.(i) and eb = b.events.(i) in
        if ea.Event.time = eb.Event.time && ea.Event.payload = eb.Event.payload then
          scan (i + 1)
        else Some { seq = i; left = Some ea; right = Some eb }
    in
    scan 0
end
