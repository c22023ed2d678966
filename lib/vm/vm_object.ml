type backing = Zero_fill | File of { base_block : int }

let blocks_per_page = Hipec_machine.Frame.page_size / 512

module Vm_object_name = struct
  let copy_name base = base ^ "-copy"
end

type t = {
  id : int;
  name : string;
  size_pages : int;
  backing : backing;
  resident : (int, Vm_page.t) Hashtbl.t;  (* offset -> page *)
  swap_slots : (int, int) Hashtbl.t;  (* offset -> block, Zero_fill only *)
  mutable copy_parent : t option;
  mutable copy_children : t list;
}

let next_id = ref 0

let create ?name ~size_pages ~backing () =
  if size_pages <= 0 then invalid_arg "Vm_object.create: size_pages <= 0";
  incr next_id;
  let name = match name with Some n -> n | None -> Printf.sprintf "object-%d" !next_id in
  {
    id = !next_id;
    name;
    size_pages;
    backing;
    resident = Hashtbl.create 256;
    swap_slots = Hashtbl.create 16;
    copy_parent = None;
    copy_children = [];
  }

let id t = t.id
let name t = t.name
let size_pages t = t.size_pages
let backing t = t.backing
let find_resident t ~offset = Hashtbl.find_opt t.resident offset
let resident t ~offset = Hashtbl.find t.resident offset
let resident_count t = Hashtbl.length t.resident
let iter_resident f t = Hashtbl.iter (fun offset page -> f ~offset page) t.resident

let connect t page ~offset =
  if offset < 0 || offset >= t.size_pages then invalid_arg "Vm_object.connect: bad offset";
  if Hashtbl.mem t.resident offset then invalid_arg "Vm_object.connect: offset resident";
  Vm_page.bind page ~object_id:t.id ~offset;
  Hashtbl.replace t.resident offset page

let disconnect t page =
  match Vm_page.binding page with
  | Some (oid, offset) when oid = t.id ->
      Vm_page.unmap_all page;
      Vm_page.unbind page;
      Hashtbl.remove t.resident offset
  | Some _ | None -> invalid_arg "Vm_object.disconnect: page not bound to this object"

let disk_block t ~offset =
  match t.backing with
  | File { base_block } -> Some (base_block + (offset * blocks_per_page))
  | Zero_fill -> Hashtbl.find_opt t.swap_slots offset

let assign_swap t ~offset ~block =
  match t.backing with
  | File _ -> invalid_arg "Vm_object.assign_swap: file-backed object"
  | Zero_fill -> (
      match Hashtbl.find_opt t.swap_slots offset with
      | Some b when b <> block -> invalid_arg "Vm_object.assign_swap: slot already assigned"
      | Some _ -> ()
      | None -> Hashtbl.replace t.swap_slots offset block)

let remap_swap t ~offset ~block =
  match t.backing with
  | File _ -> invalid_arg "Vm_object.remap_swap: file-backed object"
  | Zero_fill ->
      if not (Hashtbl.mem t.swap_slots offset) then
        invalid_arg "Vm_object.remap_swap: no swap slot assigned"
      else Hashtbl.replace t.swap_slots offset block

let has_backing_data t ~offset =
  match t.backing with File _ -> true | Zero_fill -> Hashtbl.mem t.swap_slots offset

let create_copy ?name source =
  let name =
    match name with Some n -> n | None -> Vm_object_name.copy_name source.name
  in
  let child = create ~name ~size_pages:source.size_pages ~backing:Zero_fill () in
  child.copy_parent <- Some source;
  source.copy_children <- child :: source.copy_children;
  child

let copy_parent t = t.copy_parent
let children t = t.copy_children
let has_children t = t.copy_children <> []

let detach_copy t =
  match t.copy_parent with
  | None -> ()
  | Some parent ->
      parent.copy_children <- List.filter (fun c -> c.id <> t.id) parent.copy_children;
      t.copy_parent <- None

let rec copy_source t ~offset =
  match t.copy_parent with
  | None -> `Zero
  | Some parent -> (
      match Hashtbl.find_opt parent.resident offset with
      | Some page -> `Page page
      | None -> (
          match disk_block parent ~offset with
          | Some block when has_backing_data parent ~offset -> `Block block
          | Some _ | None -> copy_source parent ~offset))

let pp fmt t =
  let kind = match t.backing with Zero_fill -> "anon" | File _ -> "file" in
  Format.fprintf fmt "%s(#%d,%s,%dp,%d resident)" t.name t.id kind t.size_pages
    (resident_count t)
