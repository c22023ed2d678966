open Hipec_sim
open Hipec_machine

let log = Logs.Src.create "hipec.audit" ~doc:"kernel auditor"

module Log = (val Logs.src_log log : Logs.LOG)

type violation = { check : string; detail : string }

let pp_violation fmt v = Format.fprintf fmt "%s: %s" v.check v.detail

let periods_per_pass = 8

(* What one {!watch} call handed the auditor. *)
type source = {
  queues : (Page_queue.t -> unit) -> unit;
  check : unit -> (string * string) list;
}

type t = {
  kernel : Kernel.t;
  period : Sim_time.t;
  kernel_queues : Page_queue.t list;  (* the pageout daemon's, fixed per kernel *)
  mutable sources : source list;  (* in watch order *)
  pages : Vm_page.index;
  mutable cursor : int;  (* the first frame the next period checks *)
  mutable running : bool;
  mutable pending : Engine.handle option;
  mutable sweeps : int;
  mutable violations_found : int;
  mutable first_violation : violation option;
}

let create ?(period = Sim_time.ms 500) kernel =
  {
    kernel;
    period;
    kernel_queues = Pageout.queues (Kernel.pageout kernel);
    sources = [];
    pages = Vm_page.index (Kernel.frame_table kernel);
    cursor = 0;
    running = false;
    pending = None;
    sweeps = 0;
    violations_found = 0;
    first_violation = None;
  }

(* Layered invariants: the VM auditor cannot see HiPEC containers (the
   dependency points the other way), so the hipec layer hands over an
   iterator over its queues and a closure that re-derives its own
   invariants, e.g. "a throttled container still owns its minimum
   frames".  Watched once per run, so appending is cheap. *)
let watch t ~queues ~check = t.sources <- t.sources @ [ { queues; check } ]

(* One full consistency sweep.  Checks, in order:
   - the frame table's free-list conservation;
   - the link invariants of the kernel's queues and of every watched
     queue, each member's [on_queue], and that each unbound member still
     holds its frame;
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
  List.iter audit_queue t.kernel_queues;
  List.iter (fun s -> s.queues audit_queue) t.sources;
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
                match Vm_object.find_resident region.Vm_map.obj ~offset with
                | None ->
                    add "pmap-stale"
                      (Printf.sprintf "%s vpn %d translated but no page is resident"
                         (Task.name task) vpn)
                | Some page ->
                    if Frame.index (Vm_page.frame page) <> Frame.index frame then
                      add "pmap-wrong-frame"
                        (Printf.sprintf "%s vpn %d maps frame %d but the page is on %d"
                           (Task.name task) vpn (Frame.index frame)
                           (Frame.index (Vm_page.frame page))))))
    (Kernel.tasks k);
  (* watched checks (HiPEC isolation invariants) *)
  List.iter (fun s -> List.iter (fun (check, detail) -> add check detail) (s.check ())) t.sources;
  let violations = List.rev !out in
  t.sweeps <- t.sweeps + 1;
  t.violations_found <- t.violations_found + List.length violations;
  List.iter (fun v -> Log.err (fun m -> m "audit: %a" pp_violation v)) violations;
  violations

(* ------------------------------------------------------------------ *)
(* One daemon period                                                   *)
(* ------------------------------------------------------------------ *)

(* The period's checks are the sweep's invariants read from the frame
   side, so a clean period visits no hash-table buckets and allocates
   nothing.  Every function below is top-level (no closures) and
   answers [true] when what it checks is clean. *)

(* The page sits in its object's resident table at its binding. *)
let resident k page =
  match Vm_page.binding page with
  | None -> false
  | Some (oid, offset) -> (
      match Kernel.resolve_object k oid with
      | exception Not_found -> false
      | obj -> (
          match Vm_object.find_resident obj ~offset with
          | Some r -> r == page
          | None -> false))

(* Bound to an object the kernel does not know: the sweep never sees
   such a page through an object. *)
let unknown_object k page =
  match Vm_page.binding page with
  | None -> true
  | Some (oid, _) -> (
      match Kernel.resolve_object k oid with exception Not_found -> true | _ -> false)

(* A translation the page lists is present, targets the page's frame,
   and lies in a region that maps the page's binding. *)
let translation_ok page frame pmap vpn =
  match Task.of_pmap pmap with
  | exception Not_found -> true  (* no task's pmap: the sweep does not see it *)
  | task when not (Task.alive task) -> true
  | task -> (
      Pmap.frame_at pmap ~vpn = frame
      &&
      match Vm_map.region_at (Task.vm_map task) ~vpn with
      | exception Not_found -> false
      | region -> (
          match Vm_page.binding page with
          | None -> false
          | Some (oid, offset) ->
              Vm_object.id region.Vm_map.obj = oid
              && Vm_map.offset_of_vpn region vpn = offset))

let rec mappings_ok page frame = function
  | [] -> true
  | (pmap, vpn) :: rest -> translation_ok page frame pmap vpn && mappings_ok page frame rest

(* The page the index holds for one frame: it holds the frame (unless
   it is neither queued nor resident), its queue links agree, its
   binding reads back through its object, and its translations check
   out. *)
let page_ok t page =
  let k = t.kernel in
  let queued = match Vm_page.on_queue page with Some _ -> true | None -> false in
  let resident = resident k page in
  (Vm_page.holds_frame page || not (queued || resident))
  && ((not queued) || Vm_page.links_ok page)
  && (resident || (not (Vm_page.is_bound page)) || unknown_object k page)
  && mappings_ok page (Frame.index (Vm_page.frame page)) (Vm_page.mappings page)

let rec frames_ok t i last =
  i >= last
  || (match Vm_page.holding t.pages i with None -> true | Some page -> page_ok t page)
     && frames_ok t (i + 1) last

let rec translations acc = function
  | [] -> acc
  | task :: rest ->
      translations
        (if Task.alive task then acc + Pmap.resident_count (Task.pmap task) else acc)
        rest

(* Counts kept exactly, checked whole every period: every frame is in
   the pool or held by a page the index knows, and every live
   translation is one page mapping entry. *)
let counts_ok t tbl =
  Frame.Table.free_count tbl + Vm_page.holding_count t.pages = Frame.Table.total tbl
  && translations 0 (Kernel.tasks t.kernel) = Vm_page.mapping_count t.pages

let rec checks_ok = function
  | [] -> true
  | s :: rest -> (match s.check () with [] -> true | _ :: _ -> false) && checks_ok rest

let tick t =
  let tbl = Kernel.frame_table t.kernel in
  let total = Frame.Table.total tbl in
  let first = t.cursor in
  let last = min total (first + ((total + periods_per_pass - 1) / periods_per_pass)) in
  t.cursor <- (if last >= total then 0 else last);
  if
    ((first > 0 || Frame.Table.check_conservation tbl)
    && counts_ok t tbl && frames_ok t first last
    && checks_ok t.sources)
  then t.sweeps <- t.sweeps + 1
  else begin
    Log.debug (fun m -> m "audit: period escalates to a full sweep");
    ignore (sweep t)
  end

let rec arm t =
  if t.running then
    t.pending <-
      Some
        (Engine.schedule (Kernel.engine t.kernel) ~daemon:true ~after:t.period (fun _ ->
             tick t;
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
