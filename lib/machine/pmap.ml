type protection = Read_only | Read_write

type access_result = Hit of Frame.t | Miss | Protection_violation of Frame.t

type entry = { frame : Frame.t; mutable prot : protection }

type t = { entries : (int, entry) Hashtbl.t }

(* Small to start: every task has a pmap and most map few pages.  Only
   [iter] (the auditor's sweep) sees the bucket order, so the size moves
   no simulated result. *)
let create () = { entries = Hashtbl.create 16 }

let enter t ~vpn ~frame ~prot =
  Hipec_trace.Trace.map_op ~vpn ~enter:true;
  Hashtbl.replace t.entries vpn { frame; prot }

let remove t ~vpn =
  if Hipec_trace.Trace.on () && Hashtbl.mem t.entries vpn then
    Hipec_trace.Trace.map_op ~vpn ~enter:false;
  Hashtbl.remove t.entries vpn
let remove_all t = Hashtbl.reset t.entries

let protect t ~vpn ~prot =
  match Hashtbl.find_opt t.entries vpn with
  | None -> invalid_arg "Pmap.protect: page not mapped"
  | Some e -> e.prot <- prot

let lookup t ~vpn =
  match Hashtbl.find_opt t.entries vpn with
  | None -> None
  | Some e -> Some (e.frame, e.prot)

let access t ~vpn ~write =
  match Hashtbl.find_opt t.entries vpn with
  | None -> Miss
  | Some e ->
      if write && e.prot = Read_only then Protection_violation e.frame
      else begin
        Frame.set_referenced e.frame true;
        if write then Frame.set_modified e.frame true;
        Hit e.frame
      end

let resident_count t = Hashtbl.length t.entries
let iter t f = Hashtbl.iter (fun vpn e -> f ~vpn ~frame:e.frame ~prot:e.prot) t.entries
let vpn_of_va va = va / Frame.page_size
let va_of_vpn vpn = vpn * Frame.page_size
