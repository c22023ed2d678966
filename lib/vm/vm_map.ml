open Hipec_machine

type region = {
  region_id : int;
  start_vpn : int;
  npages : int;
  obj : Vm_object.t;
  obj_offset : int;
  mutable prot : Pmap.protection;
  mutable wired : bool;
  mutable command_buffer : bool;
}

let region_end_vpn r = r.start_vpn + r.npages

let offset_of_vpn r vpn =
  if vpn < r.start_vpn || vpn >= region_end_vpn r then
    invalid_arg "Vm_map.offset_of_vpn: vpn outside region";
  r.obj_offset + (vpn - r.start_vpn)

(* regions kept sorted by start_vpn *)
type t = { mutable regions : region list }

let next_region_id = ref 0

(* First user page: 64 KB above zero, like traditional Unix layouts. *)
let user_base_vpn = 16

let create () = { regions = [] }

let overlaps a_start a_n b_start b_n = a_start < b_start + b_n && b_start < a_start + a_n

let add t ~start_vpn ~npages ~obj ~obj_offset ~prot =
  if npages <= 0 then invalid_arg "Vm_map.add: npages <= 0";
  if start_vpn < 0 then invalid_arg "Vm_map.add: negative address";
  if obj_offset < 0 || obj_offset + npages > Vm_object.size_pages obj then
    invalid_arg "Vm_map.add: object range does not fit";
  if List.exists (fun r -> overlaps start_vpn npages r.start_vpn r.npages) t.regions then
    invalid_arg "Vm_map.add: overlapping region";
  incr next_region_id;
  let region =
    {
      region_id = !next_region_id;
      start_vpn;
      npages;
      obj;
      obj_offset;
      prot;
      wired = false;
      command_buffer = false;
    }
  in
  t.regions <-
    List.sort (fun a b -> compare a.start_vpn b.start_vpn) (region :: t.regions);
  region

let allocate_anywhere t ~npages ~obj ~obj_offset ~prot =
  let rec find_gap candidate = function
    | [] -> candidate
    | r :: rest ->
        if candidate + npages <= r.start_vpn then candidate
        else find_gap (max candidate (region_end_vpn r)) rest
  in
  let start_vpn = find_gap user_base_vpn t.regions in
  add t ~start_vpn ~npages ~obj ~obj_offset ~prot

let remove t region =
  let n = List.length t.regions in
  t.regions <- List.filter (fun r -> r.region_id <> region.region_id) t.regions;
  if List.length t.regions = n then invalid_arg "Vm_map.remove: region not in map"

let rec region_in vpn = function
  | [] -> raise Not_found
  | r :: rest ->
      if vpn >= r.start_vpn && vpn < region_end_vpn r then r else region_in vpn rest

let region_at t ~vpn = region_in vpn t.regions
let find t ~vpn = match region_at t ~vpn with r -> Some r | exception Not_found -> None

let regions t = t.regions
