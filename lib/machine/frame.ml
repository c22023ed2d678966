let page_size = 4096

(* The page layer keeps its frame -> page index in its table's [pages]
   slot; this layer cannot name pages, so the slot's type is open. *)
type pages = ..
type pages += No_pages

(* [holder] records who has the frame: [pooled] while it sits in the
   table's free pool, [unheld] between allocation and the page that
   claims it, and the holding page's id (always positive) after that.
   [checking] only ever appears inside [Table.check_conservation].
   [bits] packs the reference, modify and wired bits.  [table] points
   back at the frame's table, so frames are cyclic: compare them with
   [==] or by index. *)
type t = { index : int; mutable bits : int; mutable holder : int; table : table }

and table = {
  mutable frames : t array;  (* set once, right after the table is made *)
  mutable free_list : t list;
  mutable free_count : int;
  mutable pages : pages;
}

let pooled = -1
let unheld = 0
let checking = -2

let referenced_bit = 1
let modified_bit = 2
let wired_bit = 4
let bit t b = t.bits land b <> 0
let set_bit t b on = t.bits <- (if on then t.bits lor b else t.bits land lnot b)

let index t = t.index
let referenced t = bit t referenced_bit
let modified t = bit t modified_bit
let set_referenced t on = set_bit t referenced_bit on
let set_modified t on = set_bit t modified_bit on
let wired t = bit t wired_bit
let set_wired t on = set_bit t wired_bit on
let holder t = t.holder
let is_free t = t.holder = pooled
let table t = t.table

let describe_holder h =
  if h = pooled then "free" else if h = unheld then "held by no page"
  else Printf.sprintf "held by page %d" h

let claim t ~holder =
  if t.holder <> unheld then
    invalid_arg
      (Printf.sprintf "Frame.claim: frame %d is %s" t.index (describe_holder t.holder));
  t.holder <- holder

let pp fmt t =
  Format.fprintf fmt "frame#%d[%s%s%s%s]" t.index
    (if referenced t then "R" else "-")
    (if modified t then "M" else "-")
    (if wired t then "W" else "-")
    (if t.holder = pooled then "F" else "-")

module Table = struct
  type t = table

  let create ~total =
    if total <= 0 then invalid_arg "Frame.Table.create: total <= 0";
    let table = { frames = [||]; free_list = []; free_count = total; pages = No_pages } in
    table.frames <-
      Array.init total (fun i ->
          { index = i; bits = 0; holder = pooled; table });
    table.free_list <- Array.to_list table.frames;
    table

  let total t = Array.length t.frames
  let free_count t = t.free_count
  let pages t = t.pages
  let set_pages t p = t.pages <- p

  let get t i =
    if i < 0 || i >= Array.length t.frames then invalid_arg "Frame.Table.get: out of range";
    t.frames.(i)

  let alloc t =
    match t.free_list with
    | [] -> None
    | f :: rest ->
        t.free_list <- rest;
        t.free_count <- t.free_count - 1;
        f.holder <- unheld;
        f.bits <- 0;
        Some f

  let alloc_many t n =
    let rec loop k acc = if k = 0 then List.rev acc else
        match alloc t with None -> List.rev acc | Some f -> loop (k - 1) (f :: acc)
    in
    loop n []

  let free t f =
    if f.holder = pooled then invalid_arg "Frame.Table.free: already free";
    if wired f then invalid_arg "Frame.Table.free: frame is wired";
    f.holder <- pooled;
    f.bits <- 0;
    t.free_list <- f :: t.free_list;
    t.free_count <- t.free_count + 1

  (* Marking each free-list member [checking] catches a member that is
     not pooled or is listed twice; a pooled frame left unmarked
     afterwards is missing from the list.  The marks are then restored.
     The walks are top-level so that the check allocates nothing. *)
  let rec mark t n = function
    | [] -> n = t.free_count
    | f :: rest ->
        f.holder = pooled
        && begin
             f.holder <- checking;
             mark t (n + 1) rest
           end

  let rec stray t i =
    i < Array.length t.frames && (t.frames.(i).holder = pooled || stray t (i + 1))

  let rec unmark = function
    | [] -> ()
    | f :: rest ->
        if f.holder = checking then f.holder <- pooled;
        unmark rest

  let check_conservation t =
    let ok = mark t 0 t.free_list && not (stray t 0) in
    unmark t.free_list;
    ok
end
