let page_size = 4096

(* [holder] records who has the frame: [pooled] while it sits in the
   table's free pool, [unheld] between allocation and the page that
   claims it, and the holding page's id (always positive) after that.
   [checking] only ever appears inside [Table.check_conservation]. *)
type t = {
  index : int;
  mutable referenced : bool;
  mutable modified : bool;
  mutable wired : bool;
  mutable holder : int;
}

let pooled = -1
let unheld = 0
let checking = -2

let index t = t.index
let referenced t = t.referenced
let modified t = t.modified
let set_referenced t b = t.referenced <- b
let set_modified t b = t.modified <- b
let wired t = t.wired
let set_wired t b = t.wired <- b
let holder t = t.holder
let is_free t = t.holder = pooled

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
    (if t.referenced then "R" else "-")
    (if t.modified then "M" else "-")
    (if t.wired then "W" else "-")
    (if t.holder = pooled then "F" else "-")

module Table = struct
  type frame = t

  type t = { frames : frame array; mutable free_list : frame list; mutable free_count : int }

  let create ~total =
    if total <= 0 then invalid_arg "Frame.Table.create: total <= 0";
    let frames =
      Array.init total (fun i ->
          { index = i; referenced = false; modified = false; wired = false; holder = pooled })
    in
    { frames; free_list = Array.to_list frames; free_count = total }

  let total t = Array.length t.frames
  let free_count t = t.free_count

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
        f.referenced <- false;
        f.modified <- false;
        f.wired <- false;
        Some f

  let alloc_many t n =
    let rec loop k acc = if k = 0 then List.rev acc else
        match alloc t with None -> List.rev acc | Some f -> loop (k - 1) (f :: acc)
    in
    loop n []

  let free t f =
    if f.holder = pooled then invalid_arg "Frame.Table.free: already free";
    if f.wired then invalid_arg "Frame.Table.free: frame is wired";
    f.holder <- pooled;
    f.referenced <- false;
    f.modified <- false;
    t.free_list <- f :: t.free_list;
    t.free_count <- t.free_count + 1

  (* Allocation-free: marking each free-list member [checking] catches a
     member that is not pooled or is listed twice; a pooled frame left
     unmarked afterwards is missing from the list.  The marks are then
     restored. *)
  let check_conservation t =
    let rec mark n = function
      | [] -> n = t.free_count
      | f :: rest ->
          f.holder = pooled
          && begin
               f.holder <- checking;
               mark (n + 1) rest
             end
    in
    let rec stray i =
      i < Array.length t.frames && (t.frames.(i).holder = pooled || stray (i + 1))
    in
    let ok = mark 0 t.free_list && not (stray 0) in
    List.iter (fun f -> if f.holder = checking then f.holder <- pooled) t.free_list;
    ok
end
