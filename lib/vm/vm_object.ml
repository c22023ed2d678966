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
  (* indexed by offset: the page's preallocated [Vm_page.some], so a
     lookup allocates nothing *)
  resident : Vm_page.t option array;
  mutable resident_count : int;
  (* indexed by offset, [no_slot] where none is assigned; empty until a
     zero-fill object's first swap assignment *)
  mutable swap_slots : int array;
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
    resident = Array.make size_pages None;
    resident_count = 0;
    swap_slots = [||];
    copy_parent = None;
    copy_children = [];
  }

let id t = t.id
let name t = t.name
let size_pages t = t.size_pages
let backing t = t.backing
let find_resident t ~offset =
  if offset < 0 || offset >= t.size_pages then None else t.resident.(offset)

let resident_count t = t.resident_count

let iter_resident f t =
  for offset = 0 to t.size_pages - 1 do
    match t.resident.(offset) with Some page -> f ~offset page | None -> ()
  done

let connect t page ~offset =
  if offset < 0 || offset >= t.size_pages then invalid_arg "Vm_object.connect: bad offset";
  (match t.resident.(offset) with
  | Some _ -> invalid_arg "Vm_object.connect: offset resident"
  | None -> ());
  Vm_page.bind page ~object_id:t.id ~offset;
  t.resident.(offset) <- Vm_page.some page;
  t.resident_count <- t.resident_count + 1

let disconnect t page =
  match Vm_page.binding page with
  | Some (oid, offset) when oid = t.id ->
      Vm_page.unmap_all page;
      Vm_page.unbind page;
      t.resident.(offset) <- None;
      t.resident_count <- t.resident_count - 1
  | Some _ | None -> invalid_arg "Vm_object.disconnect: page not bound to this object"

let no_slot = -1

let swap_slot t offset =
  if offset >= 0 && offset < Array.length t.swap_slots then t.swap_slots.(offset)
  else no_slot

let disk_block t ~offset =
  match t.backing with
  | File { base_block } -> Some (base_block + (offset * blocks_per_page))
  | Zero_fill ->
      let block = swap_slot t offset in
      if block = no_slot then None else Some block

let assign_swap t ~offset ~block =
  match t.backing with
  | File _ -> invalid_arg "Vm_object.assign_swap: file-backed object"
  | Zero_fill ->
      let b = swap_slot t offset in
      if b = no_slot then begin
        if offset < 0 || offset >= t.size_pages then
          invalid_arg "Vm_object.assign_swap: bad offset";
        if Array.length t.swap_slots = 0 then t.swap_slots <- Array.make t.size_pages no_slot;
        t.swap_slots.(offset) <- block
      end
      else if b <> block then invalid_arg "Vm_object.assign_swap: slot already assigned"

let remap_swap t ~offset ~block =
  match t.backing with
  | File _ -> invalid_arg "Vm_object.remap_swap: file-backed object"
  | Zero_fill ->
      if swap_slot t offset = no_slot then
        invalid_arg "Vm_object.remap_swap: no swap slot assigned"
      else t.swap_slots.(offset) <- block

let has_backing_data t ~offset =
  match t.backing with File _ -> true | Zero_fill -> swap_slot t offset <> no_slot

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
      match find_resident parent ~offset with
      | Some page -> `Page page
      | None -> (
          match disk_block parent ~offset with
          | Some block when has_backing_data parent ~offset -> `Block block
          | Some _ | None -> copy_source parent ~offset))

let pp fmt t =
  let kind = match t.backing with Zero_fill -> "anon" | File _ -> "file" in
  Format.fprintf fmt "%s(#%d,%s,%dp,%d resident)" t.name t.id kind t.size_pages
    (resident_count t)
