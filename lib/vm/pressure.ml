type level = Normal | Elevated | Critical | Emergency

let severity = function Normal -> 0 | Elevated -> 1 | Critical -> 2 | Emergency -> 3

let level_name = function
  | Normal -> "normal"
  | Elevated -> "elevated"
  | Critical -> "critical"
  | Emergency -> "emergency"

let of_severity = function
  | 0 -> Normal
  | 1 -> Elevated
  | 2 -> Critical
  | _ -> Emergency

type t = {
  mutable level : level;
  mutable peak : level;
  mutable changes : int;
  mutable listeners : (prev:level -> next:level -> unit) list;  (* reversed *)
}

let create () = { level = Normal; peak = Normal; changes = 0; listeners = [] }
let subscribe t f = t.listeners <- f :: t.listeners

let evaluate t ~free ~free_target ~reserved =
  let raw =
    if free <= reserved then Emergency
    else if free <= free_target / 2 then Critical
    else if free < free_target then Elevated
    else Normal
  in
  let next =
    if severity raw > severity t.level then raw  (* escalate immediately *)
    else if severity raw < severity t.level then
      of_severity (severity t.level - 1)  (* recover one step at a time *)
    else t.level
  in
  if next <> t.level then begin
    let prev = t.level in
    t.level <- next;
    if severity next > severity t.peak then t.peak <- next;
    t.changes <- t.changes + 1;
    List.iter (fun f -> f ~prev ~next) (List.rev t.listeners)
  end;
  t.level

let level t = t.level
let peak t = t.peak
let changes t = t.changes
