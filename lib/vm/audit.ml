open Hipec_sim
open Hipec_machine

let log = Logs.Src.create "hipec.audit" ~doc:"kernel auditor"

module Log = (val Logs.src_log log : Logs.LOG)

type violation = { check : string; detail : string }

let pp_violation fmt v = Format.fprintf fmt "%s: %s" v.check v.detail

exception Violation of violation list

type t = {
  kernel : Kernel.t;
  period : Sim_time.t;
  raise_on_violation : bool;
  mutable extra_queues : Page_queue.t Queue.t;  (* in registration order *)
  registered : (int, unit) Hashtbl.t;  (* ids of [extra_queues] *)
  mutable extra_checks : (string * (unit -> (string * string) list)) list;
  mutable running : bool;
  mutable pending : Engine.handle option;
  mutable sweeps : int;
  mutable violations_found : int;
  mutable first_violation : violation option;
}

let create ?(period = Sim_time.ms 500) ?(raise_on_violation = true) kernel =
  {
    kernel;
    period;
    raise_on_violation;
    extra_queues = Queue.create ();
    registered = Hashtbl.create 16;
    extra_checks = [];
    running = false;
    pending = None;
    sweeps = 0;
    violations_found = 0;
    first_violation = None;
  }

let register_queue t q =
  if not (Hashtbl.mem t.registered (Page_queue.id q)) then begin
    Hashtbl.replace t.registered (Page_queue.id q) ();
    Queue.add q t.extra_queues
  end

let unregister_queue t q =
  if Hashtbl.mem t.registered (Page_queue.id q) then begin
    Hashtbl.remove t.registered (Page_queue.id q);
    let kept = Queue.create () in
    Queue.iter
      (fun q' -> if Page_queue.id q' <> Page_queue.id q then Queue.add q' kept)
      t.extra_queues;
    t.extra_queues <- kept
  end

(* Layered invariants: the VM auditor cannot see HiPEC containers (the
   dependency points the other way), so the hipec layer registers a
   closure that re-derives its own invariants — e.g. "a throttled
   container still owns its minimum frames" — and reports violations
   naming the offending container. *)
let register_check t ~name f =
  if not (List.mem_assoc name t.extra_checks) then
    t.extra_checks <- t.extra_checks @ [ (name, f) ]

let unregister_check t ~name =
  t.extra_checks <- List.filter (fun (n, _) -> n <> name) t.extra_checks

(* One full consistency sweep.  Checks, in order:
   - the frame table's free-list conservation;
   - every audited queue's link invariants, each member's [on_queue],
     and that each unbound member still holds its frame;
   - every object's resident table: bindings point back at (object,
     offset) and each page holds its frame;
   - every live task's pmap: translations target allocated frames and
     agree with the resident page at that address.
   A page that does not hold its frame reports [free-frame-on-queue] or
   [resident-free-frame] when the frame is in the pool, and
   [frame-aliasing] when it is held by another page (or by none).  A
   clean sweep allocates no per-page memory: text is formatted only for
   a violation. *)
let sweep t =
  let k = t.kernel in
  let out = ref [] in
  let add check detail =
    let v = { check; detail } in
    if Option.is_none t.first_violation then t.first_violation <- Some v;
    out := v :: !out
  in
  let aliasing page ~where =
    add "frame-aliasing"
      (Printf.sprintf "frame %d backs %s but is %s" (Frame.index (Vm_page.frame page)) where
         (Frame.describe_holder (Frame.holder (Vm_page.frame page))))
  in
  let tbl = Kernel.frame_table k in
  if not (Frame.Table.check_conservation tbl) then
    add "frame-conservation" "frame table free list is inconsistent";
  (* queues *)
  let audit_queue q =
    if not (Page_queue.check_invariants q) then
      add "queue-invariants" (Printf.sprintf "queue %s links broken" (Page_queue.name q));
    Page_queue.iter
      (fun page ->
        (match Vm_page.on_queue page with
        | Some id when id = Page_queue.id q -> ()
        | Some _ | None ->
            add "queue-membership"
              (Printf.sprintf "page on queue %s whose on_queue disagrees" (Page_queue.name q)));
        if not (Vm_page.holds_frame page) then
          if Frame.is_free (Vm_page.frame page) then
            add "free-frame-on-queue"
              (Printf.sprintf "queue %s holds a page whose frame %d is in the free pool"
                 (Page_queue.name q)
                 (Frame.index (Vm_page.frame page)))
          else if not (Vm_page.is_bound page) then
            (* a bound page is checked below, through its object *)
            aliasing page
              ~where:(Printf.sprintf "page %d on queue %s" (Vm_page.id page) (Page_queue.name q)))
      q
  in
  List.iter audit_queue (Pageout.queues (Kernel.pageout k));
  Queue.iter audit_queue t.extra_queues;
  (* objects *)
  Kernel.iter_objects k (fun obj ->
      Vm_object.iter_resident
        (fun ~offset page ->
          (match Vm_page.binding page with
          | Some (oid, off) when oid = Vm_object.id obj && off = offset -> ()
          | Some _ | None ->
              add "binding"
                (Printf.sprintf "resident page of %s offset %d has a foreign binding"
                   (Vm_object.name obj) offset));
          if not (Vm_page.holds_frame page) then
            if Frame.is_free (Vm_page.frame page) then
              add "resident-free-frame"
                (Printf.sprintf "%s offset %d is resident on free frame %d"
                   (Vm_object.name obj) offset
                   (Frame.index (Vm_page.frame page)))
            else
              aliasing page
                ~where:(Printf.sprintf "%s offset %d (page %d)" (Vm_object.name obj) offset
                          (Vm_page.id page)))
        obj);
  (* pmaps *)
  List.iter
    (fun task ->
      if Task.alive task then
        Pmap.iter (Task.pmap task) (fun ~vpn ~frame ~prot:_ ->
            if Frame.is_free frame then
              add "pmap-free-frame"
                (Printf.sprintf "%s maps vpn %d to free frame %d" (Task.name task) vpn
                   (Frame.index frame));
            match Vm_map.region_at (Task.vm_map task) ~vpn with
            | exception Not_found ->
                add "pmap-unmapped-vpn"
                  (Printf.sprintf "%s maps vpn %d outside every region" (Task.name task)
                     vpn)
            | region -> (
                let offset = Vm_map.offset_of_vpn region vpn in
                match Vm_object.resident region.Vm_map.obj ~offset with
                | exception Not_found ->
                    add "pmap-stale"
                      (Printf.sprintf "%s vpn %d translated but no page is resident"
                         (Task.name task) vpn)
                | page ->
                    if Frame.index (Vm_page.frame page) <> Frame.index frame then
                      add "pmap-wrong-frame"
                        (Printf.sprintf "%s vpn %d maps frame %d but the page is on %d"
                           (Task.name task) vpn (Frame.index frame)
                           (Frame.index (Vm_page.frame page))))))
    (Kernel.tasks k);
  (* registered external checks (HiPEC isolation invariants) *)
  List.iter
    (fun (_, f) -> List.iter (fun (check, detail) -> add check detail) (f ()))
    t.extra_checks;
  let violations = List.rev !out in
  t.sweeps <- t.sweeps + 1;
  t.violations_found <- t.violations_found + List.length violations;
  if violations <> [] then begin
    List.iter (fun v -> Log.err (fun m -> m "audit: %a" pp_violation v)) violations;
    if t.raise_on_violation then raise (Violation violations)
  end;
  violations

let rec arm t =
  if t.running then
    t.pending <-
      Some
        (Engine.schedule (Kernel.engine t.kernel) ~daemon:true ~after:t.period (fun _ ->
             ignore (sweep t);
             arm t))

let start t =
  if not t.running then begin
    t.running <- true;
    arm t
  end

let stop t =
  t.running <- false;
  match t.pending with
  | Some h ->
      Engine.cancel (Kernel.engine t.kernel) h;
      t.pending <- None
  | None -> ()

let sweeps t = t.sweeps
let violations_found t = t.violations_found
let first_violation t = t.first_violation
