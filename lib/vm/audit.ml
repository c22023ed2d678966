open Hipec_sim
open Hipec_machine

let log = Logs.Src.create "hipec.audit" ~doc:"kernel auditor"

module Log = (val Logs.src_log log : Logs.LOG)

type violation = { check : string; detail : string }

let pp_violation fmt v = Format.fprintf fmt "%s: %s" v.check v.detail

exception Violation of violation list

let periods_per_pass = 8

(* Registration order with O(1) removal: entries sit in an array in the
   order they came and a removal leaves a hole.  A full array first
   squeezes its holes out, and grows only if that freed less than half.
   [slot] finds an entry's position by key. *)
module Registry (Slot : sig
  type key
  type 'a t

  val create : int -> 'a t
  val mem : 'a t -> key -> bool
  val find : 'a t -> key -> 'a
  val replace : 'a t -> key -> 'a -> unit
  val remove : 'a t -> key -> unit
end) =
struct
  type 'v t = {
    slot : int Slot.t;
    mutable entries : (Slot.key * 'v) option array;
    mutable used : int;  (* entries past [used] are empty *)
  }

  let create () = { slot = Slot.create 16; entries = Array.make 16 None; used = 0 }
  let mem r key = Slot.mem r.slot key

  let squeeze r =
    let live = ref 0 in
    for i = 0 to r.used - 1 do
      match r.entries.(i) with
      | None -> ()
      | Some (key, _) as e ->
          r.entries.(i) <- None;
          r.entries.(!live) <- e;
          Slot.replace r.slot key !live;
          incr live
    done;
    r.used <- !live

  let add r key v =
    if not (mem r key) then begin
      if r.used = Array.length r.entries then begin
        squeeze r;
        if 2 * r.used >= Array.length r.entries then begin
          let grown = Array.make (2 * Array.length r.entries) None in
          Array.blit r.entries 0 grown 0 r.used;
          r.entries <- grown
        end
      end;
      r.entries.(r.used) <- Some (key, v);
      Slot.replace r.slot key r.used;
      r.used <- r.used + 1
    end

  let remove r key =
    match Slot.find r.slot key with
    | exception Not_found -> ()
    | i ->
        r.entries.(i) <- None;
        Slot.remove r.slot key

  let iter f r =
    for i = 0 to r.used - 1 do
      match r.entries.(i) with Some (_, v) -> f v | None -> ()
    done
end

(* Keyed by queue id: the daemon asks for every queued page whether its
   queue is audited. *)
module Queues = Registry (struct
  type key = int

  include Int_table
end)

module Checks = Registry (Hashtbl.Make (String))

type t = {
  kernel : Kernel.t;
  period : Sim_time.t;
  raise_on_violation : bool;
  kernel_queues : Page_queue.t list;  (* the pageout daemon's, fixed per kernel *)
  queues : Page_queue.t Queues.t;  (* keyed by queue id *)
  checks : (unit -> (string * string) list) Checks.t;
  pages : Vm_page.index;
  mutable cursor : int;  (* the first frame the next period checks *)
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
    kernel_queues = Pageout.queues (Kernel.pageout kernel);
    queues = Queues.create ();
    checks = Checks.create ();
    pages = Vm_page.index (Kernel.frame_table kernel);
    cursor = 0;
    running = false;
    pending = None;
    sweeps = 0;
    violations_found = 0;
    first_violation = None;
  }

let register_queue t q = Queues.add t.queues (Page_queue.id q) q
let unregister_queue t q = Queues.remove t.queues (Page_queue.id q)

(* Layered invariants: the VM auditor cannot see HiPEC containers (the
   dependency points the other way), so the hipec layer registers a
   closure that re-derives its own invariants — e.g. "a throttled
   container still owns its minimum frames" — and reports violations
   naming the offending container. *)
let register_check t ~name f = Checks.add t.checks name f
let unregister_check t ~name = Checks.remove t.checks name

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
  List.iter audit_queue t.kernel_queues;
  Queues.iter audit_queue t.queues;
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
  (* registered external checks (HiPEC isolation invariants) *)
  Checks.iter (fun f -> List.iter (fun (check, detail) -> add check detail) (f ())) t.checks;
  let violations = List.rev !out in
  t.sweeps <- t.sweeps + 1;
  t.violations_found <- t.violations_found + List.length violations;
  if violations <> [] then begin
    List.iter (fun v -> Log.err (fun m -> m "audit: %a" pp_violation v)) violations;
    if t.raise_on_violation then raise (Violation violations)
  end;
  violations

(* ------------------------------------------------------------------ *)
(* One daemon period                                                   *)
(* ------------------------------------------------------------------ *)

(* The period's checks are the sweep's invariants read from the frame
   side, so a clean period visits no hash-table buckets and allocates
   nothing.  Every function below is top-level (no closures) and
   answers [true] when what it checks is clean. *)

let rec mem_queue qid = function
  | [] -> false
  | q :: rest -> Page_queue.id q = qid || mem_queue qid rest

let audited t qid = mem_queue qid t.kernel_queues || Queues.mem t.queues qid

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
   the sweep cannot reach it: neither on an audited queue nor
   resident), its queue links agree, its binding reads back through its
   object, and its translations check out. *)
let page_ok t page =
  let k = t.kernel in
  let queued =
    match Vm_page.on_queue page with Some qid -> audited t qid | None -> false
  in
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

let rec checks_ok entries i used =
  i >= used
  || (match entries.(i) with
     | Some (_, f) -> ( match f () with [] -> true | _ :: _ -> false)
     | None -> true)
     && checks_ok entries (i + 1) used

let tick t =
  let tbl = Kernel.frame_table t.kernel in
  let total = Frame.Table.total tbl in
  let first = t.cursor in
  let last = min total (first + ((total + periods_per_pass - 1) / periods_per_pass)) in
  t.cursor <- (if last >= total then 0 else last);
  if
    ((first > 0 || Frame.Table.check_conservation tbl)
    && counts_ok t tbl && frames_ok t first last
    && checks_ok t.checks.entries 0 t.checks.used)
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
