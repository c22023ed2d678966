open Hipec_sim

type protection = Read_only | Read_write

type entry = { frame : Frame.t; mutable prot : protection }

(* The layer above records who owns the pmap here; this layer cannot
   name tasks, so the slot's type is open. *)
type owner = ..
type owner += Unowned

type t = { entries : entry Int_table.t; mutable owner : owner }

(* Small to start: every task has a pmap and most map few pages.  Only
   [iter] (the auditor's sweep) sees the slot order, so the size moves
   no simulated result. *)
let create () = { entries = Int_table.create 8; owner = Unowned }
let owner t = t.owner
let set_owner t o = t.owner <- o

let enter t ~vpn ~frame ~prot =
  Hipec_trace.Trace.map_op ~vpn ~enter:true;
  Int_table.replace t.entries vpn { frame; prot }

let remove t ~vpn =
  if Hipec_trace.Trace.takes Hipec_trace.Event.Cat.map && Int_table.mem t.entries vpn then
    Hipec_trace.Trace.map_op ~vpn ~enter:false;
  Int_table.remove t.entries vpn
let remove_all t = Int_table.reset t.entries

let protect t ~vpn ~prot =
  match Int_table.find_opt t.entries vpn with
  | None -> invalid_arg "Pmap.protect: page not mapped"
  | Some e -> e.prot <- prot

let lookup t ~vpn =
  match Int_table.find_opt t.entries vpn with
  | None -> None
  | Some e -> Some (e.frame, e.prot)

let miss = -1
let protection_violation = -2

let frame_at t ~vpn =
  match Int_table.find_opt t.entries vpn with
  | None -> miss
  | Some e -> Frame.index e.frame

let access t ~vpn ~write =
  match Int_table.find_opt t.entries vpn with
  | None -> miss
  | Some e ->
      if write && e.prot = Read_only then protection_violation
      else begin
        Frame.set_referenced e.frame true;
        if write then Frame.set_modified e.frame true;
        Frame.index e.frame
      end

let resident_count t = Int_table.length t.entries
let iter t f = Int_table.iter (fun vpn e -> f ~vpn ~frame:e.frame ~prot:e.prot) t.entries
let vpn_of_va va = va / Frame.page_size
let va_of_vpn vpn = vpn * Frame.page_size
