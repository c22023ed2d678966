open Hipec_sim

type fault_kind = Soft | Zero_fill | File_pagein | Cow | Hipec
type evict_source = Policy | Daemon
type policy_outcome = Returned | Policy_error | Policy_timeout

type payload =
  | Access of { task : int; vpn : int; write : bool }
  | Fault of { task : int; vpn : int; kind : fault_kind; latency_ns : int }
  | Pagein of { task : int; block : int }
  | Pageout of { obj_id : int; offset : int; block : int }
  | Evict of { source : evict_source; obj_id : int; offset : int; dirty : bool }
  | Grant of { container : int; frames : int }
  | Reclaim of { container : int; frames : int; forced : bool }
  | Policy_run of {
      container : int;
      event : int;
      outcome : policy_outcome;
      commands : int;
    }
  | Demote of { container : int; reason : string }
  | Io_retry of { block : int; write : bool; attempt : int; gave_up : bool }
  | Disk_io of { block : int; nblocks : int; write : bool; ok : bool }
  | Map_op of { vpn : int; enter : bool }
  | Task_kill of { task : int; reason : string }
  | Pressure_change of { level : int; free : int }
  | Throttle of { container : int; entered : bool; fuel : int }
  | Seize of { container : int; frames : int; level : int }

type t = { seq : int; time : Sim_time.t; payload : payload }

let category_names =
  [|
    "access"; "fault"; "pagein"; "pageout"; "evict"; "grant"; "reclaim";
    "policy"; "demote"; "io-retry"; "disk"; "map"; "kill"; "pressure";
    "throttle"; "seize";
  |]

let num_categories = Array.length category_names
let category_name i = category_names.(i)

module Cat = struct
  let access = 0
  let fault = 1
  let pagein = 2
  let pageout = 3
  let evict = 4
  let grant = 5
  let reclaim = 6
  let policy = 7
  let demote = 8
  let io_retry = 9
  let disk = 10
  let map = 11
  let kill = 12
  let pressure = 13
  let throttle = 14
  let seize = 15
end

let tag = function
  | Access _ -> Cat.access
  | Fault _ -> Cat.fault
  | Pagein _ -> Cat.pagein
  | Pageout _ -> Cat.pageout
  | Evict _ -> Cat.evict
  | Grant _ -> Cat.grant
  | Reclaim _ -> Cat.reclaim
  | Policy_run _ -> Cat.policy
  | Demote _ -> Cat.demote
  | Io_retry _ -> Cat.io_retry
  | Disk_io _ -> Cat.disk
  | Map_op _ -> Cat.map
  | Task_kill _ -> Cat.kill
  | Pressure_change _ -> Cat.pressure
  | Throttle _ -> Cat.throttle
  | Seize _ -> Cat.seize

(* ------------------------------------------------------------------ *)
(* Binary codec: unsigned LEB128 varints, one tag byte per event       *)
(* ------------------------------------------------------------------ *)

module E = Encoder

let fault_kind_code = function
  | Soft -> 0
  | Zero_fill -> 1
  | File_pagein -> 2
  | Cow -> 3
  | Hipec -> 4

let fault_kind_of_code = function
  | 0 -> Soft
  | 1 -> Zero_fill
  | 2 -> File_pagein
  | 3 -> Cow
  | 4 -> Hipec
  | n -> failwith (Printf.sprintf "Event.decode: bad fault kind %d" n)

let outcome_code = function Returned -> 0 | Policy_error -> 1 | Policy_timeout -> 2

let outcome_of_code = function
  | 0 -> Returned
  | 1 -> Policy_error
  | 2 -> Policy_timeout
  | n -> failwith (Printf.sprintf "Event.decode: bad outcome %d" n)

(* One writer per category: the tag byte, the time, then the fields in
   declaration order.  [encode] and the collector's emitters both call
   these, so there is one byte layout. *)
let head b cat (time : Sim_time.t) =
  E.put_byte b cat;
  E.put_varint b (time :> int)

let put_access b ~time ~task ~vpn ~write =
  head b Cat.access time;
  E.put_varint b task;
  E.put_varint b vpn;
  E.put_bool b write

let put_fault b ~time ~task ~vpn ~kind ~latency_ns =
  head b Cat.fault time;
  E.put_varint b task;
  E.put_varint b vpn;
  E.put_byte b (fault_kind_code kind);
  E.put_varint b latency_ns

let put_pagein b ~time ~task ~block =
  head b Cat.pagein time;
  E.put_varint b task;
  E.put_varint b block

let put_pageout b ~time ~obj_id ~offset ~block =
  head b Cat.pageout time;
  E.put_varint b obj_id;
  E.put_varint b offset;
  E.put_varint b block

let put_evict b ~time ~source ~obj_id ~offset ~dirty =
  head b Cat.evict time;
  E.put_byte b (match source with Policy -> 0 | Daemon -> 1);
  E.put_varint b obj_id;
  E.put_varint b offset;
  E.put_bool b dirty

let put_grant b ~time ~container ~frames =
  head b Cat.grant time;
  E.put_varint b container;
  E.put_varint b frames

let put_reclaim b ~time ~container ~frames ~forced =
  head b Cat.reclaim time;
  E.put_varint b container;
  E.put_varint b frames;
  E.put_bool b forced

let put_policy_run b ~time ~container ~event ~outcome ~commands =
  head b Cat.policy time;
  E.put_varint b container;
  E.put_varint b event;
  E.put_byte b (outcome_code outcome);
  E.put_varint b commands

let put_demote b ~time ~container ~reason =
  head b Cat.demote time;
  E.put_varint b container;
  E.put_string b reason

let put_io_retry b ~time ~block ~write ~attempt ~gave_up =
  head b Cat.io_retry time;
  E.put_varint b block;
  E.put_bool b write;
  E.put_varint b attempt;
  E.put_bool b gave_up

let put_disk_io b ~time ~block ~nblocks ~write ~ok =
  head b Cat.disk time;
  E.put_varint b block;
  E.put_varint b nblocks;
  E.put_bool b write;
  E.put_bool b ok

let put_map_op b ~time ~vpn ~enter =
  head b Cat.map time;
  E.put_varint b vpn;
  E.put_bool b enter

let put_kill b ~time ~task ~reason =
  head b Cat.kill time;
  E.put_varint b task;
  E.put_string b reason

let put_pressure b ~time ~level ~free =
  head b Cat.pressure time;
  E.put_byte b level;
  E.put_varint b free

let put_throttle b ~time ~container ~entered ~fuel =
  head b Cat.throttle time;
  E.put_varint b container;
  E.put_bool b entered;
  E.put_varint b fuel

let put_seize b ~time ~container ~frames ~level =
  head b Cat.seize time;
  E.put_varint b container;
  E.put_varint b frames;
  E.put_byte b level

let encode b { seq = _; time; payload } =
  match payload with
  | Access { task; vpn; write } -> put_access b ~time ~task ~vpn ~write
  | Fault { task; vpn; kind; latency_ns } -> put_fault b ~time ~task ~vpn ~kind ~latency_ns
  | Pagein { task; block } -> put_pagein b ~time ~task ~block
  | Pageout { obj_id; offset; block } -> put_pageout b ~time ~obj_id ~offset ~block
  | Evict { source; obj_id; offset; dirty } -> put_evict b ~time ~source ~obj_id ~offset ~dirty
  | Grant { container; frames } -> put_grant b ~time ~container ~frames
  | Reclaim { container; frames; forced } -> put_reclaim b ~time ~container ~frames ~forced
  | Policy_run { container; event; outcome; commands } ->
      put_policy_run b ~time ~container ~event ~outcome ~commands
  | Demote { container; reason } -> put_demote b ~time ~container ~reason
  | Io_retry { block; write; attempt; gave_up } ->
      put_io_retry b ~time ~block ~write ~attempt ~gave_up
  | Disk_io { block; nblocks; write; ok } -> put_disk_io b ~time ~block ~nblocks ~write ~ok
  | Map_op { vpn; enter } -> put_map_op b ~time ~vpn ~enter
  | Task_kill { task; reason } -> put_kill b ~time ~task ~reason
  | Pressure_change { level; free } -> put_pressure b ~time ~level ~free
  | Throttle { container; entered; fuel } -> put_throttle b ~time ~container ~entered ~fuel
  | Seize { container; frames; level } -> put_seize b ~time ~container ~frames ~level

let get_byte s pos =
  if !pos >= String.length s then failwith "Event.decode: truncated stream";
  let c = Char.code s.[!pos] in
  incr pos;
  c

let get_varint s pos =
  let rec go shift acc =
    if shift > 62 then failwith "Event.decode: varint too long";
    let c = get_byte s pos in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let get_bool s pos = get_byte s pos <> 0
let decode_varint s pos = get_varint s pos

let get_string s pos =
  let len = get_varint s pos in
  if !pos + len > String.length s then failwith "Event.decode: truncated string";
  let r = String.sub s !pos len in
  pos := !pos + len;
  r

let decode s ~pos ~seq =
  let tag = get_byte s pos in
  let time = Sim_time.ns (get_varint s pos) in
  let payload =
    match tag with
    | 0 ->
        let task = get_varint s pos in
        let vpn = get_varint s pos in
        Access { task; vpn; write = get_bool s pos }
    | 1 ->
        let task = get_varint s pos in
        let vpn = get_varint s pos in
        let kind = fault_kind_of_code (get_byte s pos) in
        Fault { task; vpn; kind; latency_ns = get_varint s pos }
    | 2 ->
        let task = get_varint s pos in
        Pagein { task; block = get_varint s pos }
    | 3 ->
        let obj_id = get_varint s pos in
        let offset = get_varint s pos in
        Pageout { obj_id; offset; block = get_varint s pos }
    | 4 ->
        let source =
          match get_byte s pos with
          | 0 -> Policy
          | 1 -> Daemon
          | n -> failwith (Printf.sprintf "Event.decode: bad evict source %d" n)
        in
        let obj_id = get_varint s pos in
        let offset = get_varint s pos in
        Evict { source; obj_id; offset; dirty = get_bool s pos }
    | 5 ->
        let container = get_varint s pos in
        Grant { container; frames = get_varint s pos }
    | 6 ->
        let container = get_varint s pos in
        let frames = get_varint s pos in
        Reclaim { container; frames; forced = get_bool s pos }
    | 7 ->
        let container = get_varint s pos in
        let event = get_varint s pos in
        let outcome = outcome_of_code (get_byte s pos) in
        Policy_run { container; event; outcome; commands = get_varint s pos }
    | 8 ->
        let container = get_varint s pos in
        Demote { container; reason = get_string s pos }
    | 9 ->
        let block = get_varint s pos in
        let write = get_bool s pos in
        let attempt = get_varint s pos in
        Io_retry { block; write; attempt; gave_up = get_bool s pos }
    | 10 ->
        let block = get_varint s pos in
        let nblocks = get_varint s pos in
        let write = get_bool s pos in
        Disk_io { block; nblocks; write; ok = get_bool s pos }
    | 11 ->
        let vpn = get_varint s pos in
        Map_op { vpn; enter = get_bool s pos }
    | 12 ->
        let task = get_varint s pos in
        Task_kill { task; reason = get_string s pos }
    | 13 ->
        let level = get_byte s pos in
        Pressure_change { level; free = get_varint s pos }
    | 14 ->
        let container = get_varint s pos in
        let entered = get_bool s pos in
        Throttle { container; entered; fuel = get_varint s pos }
    | 15 ->
        let container = get_varint s pos in
        let frames = get_varint s pos in
        Seize { container; frames; level = get_byte s pos }
    | n -> failwith (Printf.sprintf "Event.decode: unknown tag %d" n)
  in
  { seq; time; payload }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let json_escape s =
  if not (String.exists needs_escape s) then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let fault_kind_name = function
  | Soft -> "soft"
  | Zero_fill -> "zero-fill"
  | File_pagein -> "pagein"
  | Cow -> "cow"
  | Hipec -> "hipec"

let outcome_name = function
  | Returned -> "returned"
  | Policy_error -> "error"
  | Policy_timeout -> "timeout"

let source_name = function Policy -> "policy" | Daemon -> "daemon"

let pressure_level_name = function
  | 0 -> "normal"
  | 1 -> "elevated"
  | 2 -> "critical"
  | 3 -> "emergency"
  | n -> Printf.sprintf "level-%d" n

let to_json b ev =
  let field_int k v = Buffer.add_string b (Printf.sprintf ",\"%s\":%d" k v) in
  let field_bool k v =
    Buffer.add_string b (Printf.sprintf ",\"%s\":%b" k v)
  in
  let field_str k v =
    Buffer.add_string b (Printf.sprintf ",\"%s\":\"%s\"" k (json_escape v))
  in
  Buffer.add_string b
    (Printf.sprintf "{\"seq\":%d,\"t_ns\":%d,\"kind\":\"%s\"" ev.seq
       (Sim_time.to_ns ev.time)
       (category_name (tag ev.payload)));
  (match ev.payload with
  | Access { task; vpn; write } ->
      field_int "task" task;
      field_int "vpn" vpn;
      field_bool "write" write
  | Fault { task; vpn; kind; latency_ns } ->
      field_int "task" task;
      field_int "vpn" vpn;
      field_str "fault" (fault_kind_name kind);
      field_int "latency_ns" latency_ns
  | Pagein { task; block } ->
      field_int "task" task;
      field_int "block" block
  | Pageout { obj_id; offset; block } ->
      field_int "obj" obj_id;
      field_int "offset" offset;
      field_int "block" block
  | Evict { source; obj_id; offset; dirty } ->
      field_str "source" (source_name source);
      field_int "obj" obj_id;
      field_int "offset" offset;
      field_bool "dirty" dirty
  | Grant { container; frames } ->
      field_int "container" container;
      field_int "frames" frames
  | Reclaim { container; frames; forced } ->
      field_int "container" container;
      field_int "frames" frames;
      field_bool "forced" forced
  | Policy_run { container; event; outcome; commands } ->
      field_int "container" container;
      field_int "event" event;
      field_str "outcome" (outcome_name outcome);
      field_int "commands" commands
  | Demote { container; reason } ->
      field_int "container" container;
      field_str "reason" reason
  | Io_retry { block; write; attempt; gave_up } ->
      field_int "block" block;
      field_bool "write" write;
      field_int "attempt" attempt;
      field_bool "gave_up" gave_up
  | Disk_io { block; nblocks; write; ok } ->
      field_int "block" block;
      field_int "nblocks" nblocks;
      field_bool "write" write;
      field_bool "ok" ok
  | Map_op { vpn; enter } ->
      field_int "vpn" vpn;
      field_bool "enter" enter
  | Task_kill { task; reason } ->
      field_int "task" task;
      field_str "reason" reason
  | Pressure_change { level; free } ->
      field_str "level" (pressure_level_name level);
      field_int "free" free
  | Throttle { container; entered; fuel } ->
      field_int "container" container;
      field_bool "entered" entered;
      field_int "fuel" fuel
  | Seize { container; frames; level } ->
      field_int "container" container;
      field_int "frames" frames;
      field_str "level" (pressure_level_name level));
  Buffer.add_char b '}'

let pp fmt ev =
  let p f = Format.fprintf fmt f in
  p "%6d %a " ev.seq Sim_time.pp ev.time;
  match ev.payload with
  | Access { task; vpn; write } ->
      p "access   task=%d vpn=%d %s" task vpn (if write then "w" else "r")
  | Fault { task; vpn; kind; latency_ns } ->
      p "fault    task=%d vpn=%d %s %dns" task vpn (fault_kind_name kind)
        latency_ns
  | Pagein { task; block } -> p "pagein   task=%d block=%d" task block
  | Pageout { obj_id; offset; block } ->
      p "pageout  obj=%d offset=%d block=%d" obj_id offset block
  | Evict { source; obj_id; offset; dirty } ->
      p "evict    %s obj=%d offset=%d%s" (source_name source) obj_id offset
        (if dirty then " dirty" else "")
  | Grant { container; frames } -> p "grant    container=%d frames=%d" container frames
  | Reclaim { container; frames; forced } ->
      p "reclaim  container=%d frames=%d%s" container frames
        (if forced then " forced" else "")
  | Policy_run { container; event; outcome; commands } ->
      p "policy   container=%d event=%d %s commands=%d" container event
        (outcome_name outcome) commands
  | Demote { container; reason } -> p "demote   container=%d: %s" container reason
  | Io_retry { block; write; attempt; gave_up } ->
      p "io-retry block=%d %s attempt=%d%s" block (if write then "w" else "r")
        attempt
        (if gave_up then " gave-up" else "")
  | Disk_io { block; nblocks; write; ok } ->
      p "disk     block=%d n=%d %s %s" block nblocks (if write then "w" else "r")
        (if ok then "ok" else "err")
  | Map_op { vpn; enter } -> p "%s vpn=%d" (if enter then "map     " else "unmap   ") vpn
  | Task_kill { task; reason } -> p "kill     task=%d: %s" task reason
  | Pressure_change { level; free } ->
      p "pressure %s free=%d" (pressure_level_name level) free
  | Throttle { container; entered; fuel } ->
      p "throttle container=%d %s fuel=%d" container
        (if entered then "entered" else "exited")
        fuel
  | Seize { container; frames; level } ->
      p "seize    container=%d frames=%d at %s" container frames
        (pressure_level_name level)
