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

(* ------------------------------------------------------------------ *)
(* The dispatcher                                                      *)
(* ------------------------------------------------------------------ *)

(* A stage takes a set of categories, one bit per [Event.tag]. *)
type stage = { takes : int; feed : Event.t -> unit }

let clock : (unit -> Sim_time.t) ref = ref (fun () -> Sim_time.zero)
let seq = ref 0
let norm_tables = Array.init 3 (fun _ -> ids_create ())  (* one per id space *)
let stages : stage list ref = ref []
let taken = ref 0  (* the union of the attached stages' categories *)

let set_clock f = clock := f
let now () = !clock ()
let on () = !taken <> 0
let takes cat = !taken land (1 lsl cat) <> 0

let attach ~categories feed =
  let s = { takes = List.fold_left (fun m cat -> m lor (1 lsl cat)) 0 categories; feed } in
  stages := !stages @ [ s ];
  taken := !taken lor s.takes;
  s

let detach s =
  stages := List.filter (fun x -> x != s) !stages;
  taken := List.fold_left (fun m x -> m lor x.takes) 0 !stages

let every_category = List.init Event.num_categories Fun.id

let rec feed_stages ev bit = function
  | [] -> ()
  | s :: rest ->
      if s.takes land bit <> 0 then s.feed ev;
      feed_stages ev bit rest

let push cat payload =
  let ev = { Event.seq = !seq; time = !clock (); payload } in
  incr seq;
  feed_stages ev (1 lsl cat) !stages

let norm space raw =
  let ids = norm_tables.(space) in
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

(* ------------------------------------------------------------------ *)
(* The collector and the consumer                                      *)
(* ------------------------------------------------------------------ *)

type collector = {
  counts : int array;
  digest : Encoder.digest;
  scratch : Encoder.t;  (* the current event's bytes *)
  store : Buffer.t option;
}

let collect c ev =
  let tag = Event.tag ev.Event.payload in
  c.counts.(tag) <- c.counts.(tag) + 1;
  Encoder.clear c.scratch;
  Event.encode c.scratch ev;
  Encoder.digest_add c.digest c.scratch;
  match c.store with Some b -> Encoder.add_to_buffer b c.scratch | None -> ()

let current : (collector * stage) option ref = ref None
let consumer : stage option ref = ref None
let active () = Option.map fst !current

let set_consumer f =
  Option.iter detach !consumer;
  consumer := Option.map (attach ~categories:every_category) f

let stop () =
  set_consumer None;
  match !current with
  | None -> None
  | Some (c, s) ->
      detach s;
      current := None;
      Some c

let start ?(store = false) () =
  ignore (stop ());
  seq := 0;
  Array.iteri (fun i _ -> norm_tables.(i) <- ids_create ()) norm_tables;
  let c =
    {
      counts = Array.make Event.num_categories 0;
      digest = Encoder.digest ();
      scratch = Encoder.create 64;
      store = (if store then Some (Buffer.create 4096) else None);
    }
  in
  current := Some (c, attach ~categories:every_category (collect c));
  c

(* ------------------------------------------------------------------ *)
(* Emitters                                                            *)
(* ------------------------------------------------------------------ *)

(* Each emitter tests its category's bit before it builds anything, so
   with no stage taking the category a call allocates nothing. *)

let access ~task ~vpn ~write =
  if takes Event.Cat.access then
    push Event.Cat.access (Event.Access { task = norm space_task task; vpn; write })

let fault ~task ~vpn ~kind ~latency_ns =
  if takes Event.Cat.fault then
    push Event.Cat.fault (Event.Fault { task = norm space_task task; vpn; kind; latency_ns })

let pagein ~task ~block =
  if takes Event.Cat.pagein then
    push Event.Cat.pagein (Event.Pagein { task = norm space_task task; block })

let pageout ~obj ~offset ~block =
  if takes Event.Cat.pageout then
    push Event.Cat.pageout (Event.Pageout { obj_id = norm space_obj obj; offset; block })

let evict ~source ~obj ~offset ~dirty =
  if takes Event.Cat.evict then
    push Event.Cat.evict (Event.Evict { source; obj_id = norm space_obj obj; offset; dirty })

let grant ~container ~frames =
  if takes Event.Cat.grant then
    push Event.Cat.grant
      (Event.Grant { container = norm space_container container; frames })

let reclaim ~container ~frames ~forced =
  if takes Event.Cat.reclaim then
    push Event.Cat.reclaim
      (Event.Reclaim { container = norm space_container container; frames; forced })

let policy_run ~container ~event ~outcome ~commands =
  if takes Event.Cat.policy then
    push Event.Cat.policy
      (Event.Policy_run
         { container = norm space_container container; event; outcome; commands })

let demote ~container ~reason =
  if takes Event.Cat.demote then
    push Event.Cat.demote
      (Event.Demote { container = norm space_container container; reason })

let io_retry ~block ~write ~attempt ~gave_up =
  if takes Event.Cat.io_retry then
    push Event.Cat.io_retry (Event.Io_retry { block; write; attempt; gave_up })

let disk_io ~block ~nblocks ~write ~ok =
  if takes Event.Cat.disk then
    push Event.Cat.disk (Event.Disk_io { block; nblocks; write; ok })

let map_op ~vpn ~enter =
  if takes Event.Cat.map then push Event.Cat.map (Event.Map_op { vpn; enter })

let kill ~task ~reason =
  if takes Event.Cat.kill then
    push Event.Cat.kill (Event.Task_kill { task = norm space_task task; reason })

let pressure ~level ~free =
  if takes Event.Cat.pressure then
    push Event.Cat.pressure (Event.Pressure_change { level; free })

let throttle ~container ~entered ~fuel =
  if takes Event.Cat.throttle then
    push Event.Cat.throttle
      (Event.Throttle { container = norm space_container container; entered; fuel })

let seize ~container ~frames ~level =
  if takes Event.Cat.seize then
    push Event.Cat.seize
      (Event.Seize { container = norm space_container container; frames; level })

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
