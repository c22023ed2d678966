open Hipec_vm

type value =
  | Int of int ref
  | Bool of bool ref
  | Page of Vm_page.t option ref
  | Queue of Page_queue.t
  | Count of Page_queue.t

type kind = Kint | Kbool | Kpage | Kqueue | Kcount

let kind_of_value = function
  | Int _ -> Kint
  | Bool _ -> Kbool
  | Page _ -> Kpage
  | Queue _ -> Kqueue
  | Count _ -> Kcount

let kind_name = function
  | Kint -> "int"
  | Kbool -> "bool"
  | Kpage -> "page"
  | Kqueue -> "queue"
  | Kcount -> "count"

let size = 256

type t = value option array

let create () : t = Array.make size None

let set (t : t) ix v =
  if ix < 0 || ix >= size then invalid_arg "Operand.set: index out of range";
  t.(ix) <- Some v

let get (t : t) ix = if ix < 0 || ix >= size then None else t.(ix)
let kind_at t ix = Option.map kind_of_value (get t ix)

let type_error ?(write = false) ix slot ~expected =
  match slot with
  | None -> Printf.sprintf "operand %d: empty slot used as %s" ix (kind_name expected)
  | Some (Count _) when write && expected = Kint ->
      Printf.sprintf "operand %d: count is read-only" ix
  | Some v ->
      Printf.sprintf "operand %d: %s used as %s" ix
        (kind_name (kind_of_value v))
        (kind_name expected)

let read_int t ix =
  match get t ix with
  | Some (Int r) -> Ok !r
  | Some (Count q) -> Ok (Page_queue.length q)
  | slot -> Error (type_error ix slot ~expected:Kint)

let write_int t ix v =
  match get t ix with
  | Some (Int r) ->
      r := v;
      Ok ()
  | slot -> Error (type_error ~write:true ix slot ~expected:Kint)

let read_queue t ix =
  match get t ix with
  | Some (Queue q) -> Ok q
  | slot -> Error (type_error ix slot ~expected:Kqueue)

module Std = struct
  let null = 0x00
  let free_queue = 0x01
  let free_count = 0x02
  let active_queue = 0x03
  let active_count = 0x04
  let inactive_queue = 0x05
  let inactive_count = 0x06
  let fault_va = 0x07
  let reclaim_target = 0x08
  let inactive_target = 0x09
  let free_target = 0x0A
  let page_reg = 0x0B
  let reserved_target = 0x0C
  let scratch0 = 0x0D
  let scratch1 = 0x0E
  let scratch2 = 0x0F
  let first_user = 0x10
end

type std_queues = {
  free : Page_queue.t;
  active : Page_queue.t;
  inactive : Page_queue.t;
}

let install_std t ~name ~free_target ~inactive_target ~reserved_target =
  let free = Page_queue.create (name ^ ".free") in
  let active = Page_queue.create (name ^ ".active") in
  let inactive = Page_queue.create (name ^ ".inactive") in
  set t Std.null (Int (ref 0));
  set t Std.free_queue (Queue free);
  set t Std.free_count (Count free);
  set t Std.active_queue (Queue active);
  set t Std.active_count (Count active);
  set t Std.inactive_queue (Queue inactive);
  set t Std.inactive_count (Count inactive);
  set t Std.fault_va (Int (ref 0));
  set t Std.reclaim_target (Int (ref 0));
  set t Std.inactive_target (Int (ref inactive_target));
  set t Std.free_target (Int (ref free_target));
  set t Std.page_reg (Page (ref None));
  set t Std.reserved_target (Int (ref reserved_target));
  set t Std.scratch0 (Int (ref 0));
  set t Std.scratch1 (Int (ref 0));
  set t Std.scratch2 (Int (ref 0));
  { free; active; inactive }
