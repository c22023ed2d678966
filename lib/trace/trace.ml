open Hipec_sim

(* Per-id-space normalization: raw kernel ids come from global counters
   that survive across runs in one process; digests must not. *)
let space_task = 0
let space_obj = 1
let space_container = 2

(* ------------------------------------------------------------------ *)
(* The dispatcher                                                      *)
(* ------------------------------------------------------------------ *)

(* A stage takes a set of categories, one bit per [Event.tag]. *)
type stage = { takes : int; feed : Event.t -> unit }

(* The collector is the dispatcher's byte sink, not a stage: an emitter
   writes its event's bytes into [scratch] and the collector folds them
   in, so collecting builds no [Event.t]. *)
type collector = {
  counts : int array;
  digest : Encoder.digest;
  store : Buffer.t option;
}

let clock : (unit -> Sim_time.t) ref = ref (fun () -> Sim_time.zero)
let seq = ref 0
(* raw id -> dense id, one table per id space *)
let norm_tables : int Int_table.t array = Array.init 3 (fun _ -> Int_table.create 64)
let stages : stage list ref = ref []
let staged = ref 0  (* the union of the attached stages' categories *)
let current : collector option ref = ref None
let scratch = Encoder.create 64  (* the current event's bytes; empty between events *)
let taken = ref 0  (* [!staged], or every category while a collector runs *)

let set_clock f = clock := f
let now () = !clock ()
let on () = !taken <> 0
let takes cat = !taken land (1 lsl cat) <> 0
let staged_takes cat = !staged land (1 lsl cat) <> 0
let collecting () = match !current with Some _ -> true | None -> false

let every_category = List.init Event.num_categories Fun.id
let mask categories = List.fold_left (fun m cat -> m lor (1 lsl cat)) 0 categories

let retake () =
  staged := List.fold_left (fun m s -> m lor s.takes) 0 !stages;
  taken := if collecting () then mask every_category else !staged

let attach ~categories feed =
  let s = { takes = mask categories; feed } in
  stages := !stages @ [ s ];
  retake ();
  s

let detach s =
  stages := List.filter (fun x -> x != s) !stages;
  retake ()

let rec feed_stages ev bit = function
  | [] -> ()
  | s :: rest ->
      if s.takes land bit <> 0 then s.feed ev;
      feed_stages ev bit rest

(* Build the event for the stages that take its category.  It takes the
   next sequence number, as an event only the collector sees does. *)
let push cat time payload =
  let ev = { Event.seq = !seq; time; payload } in
  incr seq;
  feed_stages ev (1 lsl cat) !stages

(* The collector's work once an emitter has written an event into
   [scratch]: count it, fold it into the digest and the store. *)
let collected cat =
  (match !current with
  | Some c -> (
      c.counts.(cat) <- c.counts.(cat) + 1;
      Encoder.digest_add c.digest scratch;
      match c.store with Some b -> Encoder.add_to_buffer b scratch | None -> ())
  | None -> ());
  Encoder.clear scratch

let norm space raw = Int_table.dense_id norm_tables.(space) raw

(* ------------------------------------------------------------------ *)
(* The collector and the consumer                                      *)
(* ------------------------------------------------------------------ *)

let consumer : stage option ref = ref None
let active () = !current

let set_consumer f =
  Option.iter detach !consumer;
  consumer := Option.map (attach ~categories:every_category) f

let stop () =
  set_consumer None;
  let c = !current in
  current := None;
  retake ();
  c

let start ?(store = false) () =
  ignore (stop ());
  seq := 0;
  Array.iter Int_table.reset norm_tables;
  let c =
    {
      counts = Array.make Event.num_categories 0;
      digest = Encoder.digest ();
      store = (if store then Some (Buffer.create 4096) else None);
    }
  in
  current := Some c;
  retake ();
  c

(* ------------------------------------------------------------------ *)
(* Emitters                                                            *)
(* ------------------------------------------------------------------ *)

(* Each emitter tests its category's bit before it does anything, so
   with nothing taking the category a call allocates nothing.  Past the
   test it normalizes its ids and reads the clock once; a running
   collector gets the event's bytes from the category's [Event.put_*]
   writer, and an [Event.t] is built only for the stages. *)

let access ~task ~vpn ~write =
  if takes Event.Cat.access then begin
    let task = norm space_task task and time = !clock () in
    if collecting () then begin
      Event.put_access scratch ~time ~task ~vpn ~write;
      collected Event.Cat.access
    end;
    if staged_takes Event.Cat.access then
      push Event.Cat.access time (Event.Access { task; vpn; write })
    else incr seq
  end

let fault ~task ~vpn ~kind ~latency_ns =
  if takes Event.Cat.fault then begin
    let task = norm space_task task and time = !clock () in
    if collecting () then begin
      Event.put_fault scratch ~time ~task ~vpn ~kind ~latency_ns;
      collected Event.Cat.fault
    end;
    if staged_takes Event.Cat.fault then
      push Event.Cat.fault time (Event.Fault { task; vpn; kind; latency_ns })
    else incr seq
  end

let pagein ~task ~block =
  if takes Event.Cat.pagein then begin
    let task = norm space_task task and time = !clock () in
    if collecting () then begin
      Event.put_pagein scratch ~time ~task ~block;
      collected Event.Cat.pagein
    end;
    if staged_takes Event.Cat.pagein then
      push Event.Cat.pagein time (Event.Pagein { task; block })
    else incr seq
  end

let pageout ~obj ~offset ~block =
  if takes Event.Cat.pageout then begin
    let obj_id = norm space_obj obj and time = !clock () in
    if collecting () then begin
      Event.put_pageout scratch ~time ~obj_id ~offset ~block;
      collected Event.Cat.pageout
    end;
    if staged_takes Event.Cat.pageout then
      push Event.Cat.pageout time (Event.Pageout { obj_id; offset; block })
    else incr seq
  end

let evict ~source ~obj ~offset ~dirty =
  if takes Event.Cat.evict then begin
    let obj_id = norm space_obj obj and time = !clock () in
    if collecting () then begin
      Event.put_evict scratch ~time ~source ~obj_id ~offset ~dirty;
      collected Event.Cat.evict
    end;
    if staged_takes Event.Cat.evict then
      push Event.Cat.evict time (Event.Evict { source; obj_id; offset; dirty })
    else incr seq
  end

let grant ~container ~frames =
  if takes Event.Cat.grant then begin
    let container = norm space_container container and time = !clock () in
    if collecting () then begin
      Event.put_grant scratch ~time ~container ~frames;
      collected Event.Cat.grant
    end;
    if staged_takes Event.Cat.grant then
      push Event.Cat.grant time (Event.Grant { container; frames })
    else incr seq
  end

let reclaim ~container ~frames ~forced =
  if takes Event.Cat.reclaim then begin
    let container = norm space_container container and time = !clock () in
    if collecting () then begin
      Event.put_reclaim scratch ~time ~container ~frames ~forced;
      collected Event.Cat.reclaim
    end;
    if staged_takes Event.Cat.reclaim then
      push Event.Cat.reclaim time (Event.Reclaim { container; frames; forced })
    else incr seq
  end

let policy_run ~container ~event ~outcome ~commands =
  if takes Event.Cat.policy then begin
    let container = norm space_container container and time = !clock () in
    if collecting () then begin
      Event.put_policy_run scratch ~time ~container ~event ~outcome ~commands;
      collected Event.Cat.policy
    end;
    if staged_takes Event.Cat.policy then
      push Event.Cat.policy time (Event.Policy_run { container; event; outcome; commands })
    else incr seq
  end

let demote ~container ~reason =
  if takes Event.Cat.demote then begin
    let container = norm space_container container and time = !clock () in
    if collecting () then begin
      Event.put_demote scratch ~time ~container ~reason;
      collected Event.Cat.demote
    end;
    if staged_takes Event.Cat.demote then
      push Event.Cat.demote time (Event.Demote { container; reason })
    else incr seq
  end

let io_retry ~block ~write ~attempt ~gave_up =
  if takes Event.Cat.io_retry then begin
    let time = !clock () in
    if collecting () then begin
      Event.put_io_retry scratch ~time ~block ~write ~attempt ~gave_up;
      collected Event.Cat.io_retry
    end;
    if staged_takes Event.Cat.io_retry then
      push Event.Cat.io_retry time (Event.Io_retry { block; write; attempt; gave_up })
    else incr seq
  end

let disk_io ~block ~nblocks ~write ~ok =
  if takes Event.Cat.disk then begin
    let time = !clock () in
    if collecting () then begin
      Event.put_disk_io scratch ~time ~block ~nblocks ~write ~ok;
      collected Event.Cat.disk
    end;
    if staged_takes Event.Cat.disk then
      push Event.Cat.disk time (Event.Disk_io { block; nblocks; write; ok })
    else incr seq
  end

let map_op ~vpn ~enter =
  if takes Event.Cat.map then begin
    let time = !clock () in
    if collecting () then begin
      Event.put_map_op scratch ~time ~vpn ~enter;
      collected Event.Cat.map
    end;
    if staged_takes Event.Cat.map then push Event.Cat.map time (Event.Map_op { vpn; enter })
    else incr seq
  end

let kill ~task ~reason =
  if takes Event.Cat.kill then begin
    let task = norm space_task task and time = !clock () in
    if collecting () then begin
      Event.put_kill scratch ~time ~task ~reason;
      collected Event.Cat.kill
    end;
    if staged_takes Event.Cat.kill then
      push Event.Cat.kill time (Event.Task_kill { task; reason })
    else incr seq
  end

let pressure ~level ~free =
  if takes Event.Cat.pressure then begin
    let time = !clock () in
    if collecting () then begin
      Event.put_pressure scratch ~time ~level ~free;
      collected Event.Cat.pressure
    end;
    if staged_takes Event.Cat.pressure then
      push Event.Cat.pressure time (Event.Pressure_change { level; free })
    else incr seq
  end

let throttle ~container ~entered ~fuel =
  if takes Event.Cat.throttle then begin
    let container = norm space_container container and time = !clock () in
    if collecting () then begin
      Event.put_throttle scratch ~time ~container ~entered ~fuel;
      collected Event.Cat.throttle
    end;
    if staged_takes Event.Cat.throttle then
      push Event.Cat.throttle time (Event.Throttle { container; entered; fuel })
    else incr seq
  end

let seize ~container ~frames ~level =
  if takes Event.Cat.seize then begin
    let container = norm space_container container and time = !clock () in
    if collecting () then begin
      Event.put_seize scratch ~time ~container ~frames ~level;
      collected Event.Cat.seize
    end;
    if staged_takes Event.Cat.seize then
      push Event.Cat.seize time (Event.Seize { container; frames; level })
    else incr seq
  end

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let events_seen c = Array.fold_left ( + ) 0 c.counts
let counts c = Array.copy c.counts
let digest c = Encoder.digest_value c.digest
let digest_hex d = Printf.sprintf "%016Lx" d

let decode_stream s count =
  let pos = ref 0 in
  Array.init count (fun seq -> Event.decode s ~pos ~seq)

let events c =
  match c.store with
  | None -> invalid_arg "Trace.events: collector was started without ~store:true"
  | Some b -> decode_stream (Buffer.contents b) (events_seen c)

(* [pp_summary] and [Kstat.pp] print the same counts string, built here
   once so the two surfaces cannot drift apart. *)
let counts_summary c =
  let parts = ref [] in
  for i = Event.num_categories - 1 downto 0 do
    if c.counts.(i) > 0 then
      parts := Printf.sprintf "%s %d" (Event.category_name i) c.counts.(i) :: !parts
  done;
  String.concat ", " !parts

let pp_summary fmt c =
  Format.fprintf fmt "@[<v>trace: %d events, digest %s@," (events_seen c)
    (digest_hex (digest c));
  let counts = counts_summary c in
  Format.fprintf fmt "  counts: %s@," (if counts = "" then "(empty)" else counts);
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
        Buffer.add_string b
          (Printf.sprintf "\"%s\":\"%s\"" (Event.json_escape k) (Event.json_escape v)))
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
