open Hipec_sim
open Hipec_machine

type ctx = {
  frame_table : Frame.Table.t;
  disk : Disk.t;
  engine : Engine.t;
  costs : Costs.t;
  resolve_object : int -> Vm_object.t;
  alloc_swap : unit -> int;
  io_policy : Io_retry.policy;
  io_stats : Io_retry.stats;
}

type t = {
  active : Page_queue.t;
  inactive : Page_queue.t;
  mutable free_target : int;
  mutable reserved : int;
  mutable laundry : int;
  mutable evictions : int;
  mutable reactivations : int;
  mutable pageout_writes : int;
  mutable urgency : int;  (* 0..3, scaled from Pressure.severity *)
}

let create ~total_frames =
  if total_frames <= 0 then invalid_arg "Pageout.create: total_frames <= 0";
  {
    active = Page_queue.create "vm_active";
    inactive = Page_queue.create "vm_inactive";
    free_target = max 4 (total_frames / 25);
    reserved = max 2 (total_frames / 200);
    laundry = 0;
    evictions = 0;
    reactivations = 0;
    pageout_writes = 0;
    urgency = 0;
  }

let free_target t = t.free_target
let reserved t = t.reserved
let urgency t = t.urgency
let set_urgency t v = t.urgency <- max 0 (min 3 v)

let set_targets t ?free_target ?reserved () =
  (match free_target with Some v -> t.free_target <- v | None -> ());
  match reserved with Some v -> t.reserved <- v | None -> ()

let active_count t = Page_queue.length t.active
let inactive_count t = Page_queue.length t.inactive
let laundry_count t = t.laundry

let note_new_resident t page =
  if not (Vm_page.wired page) then Page_queue.enqueue_tail t.active page

let note_prefetched t page =
  if not (Vm_page.wired page) then Page_queue.enqueue_tail t.inactive page

let forget t page =
  match Vm_page.on_queue page with
  | Some q when q = Page_queue.id t.active -> Page_queue.remove t.active page
  | Some q when q = Page_queue.id t.inactive -> Page_queue.remove t.inactive page
  | Some _ | None -> ()

let object_of ctx page =
  match Vm_page.binding page with
  | Some (oid, _) -> ctx.resolve_object oid
  | None -> invalid_arg "Pageout: unbound page on a daemon queue"

(* Write a dirty page's frame to backing store asynchronously; the frame
   reaches the free pool when the transfer completes (the "laundry").
   Transient errors retry with backoff; a bad swap block is remapped to
   a fresh slot.  When every retry is exhausted the frame is freed
   anyway — the data is lost, which is what EIO on pageout amounts to —
   so memory is never leaked to a broken device. *)
let launder t ctx page =
  let obj = object_of ctx page in
  let offset = match Vm_page.binding page with Some (_, o) -> o | None -> assert false in
  let block =
    match Vm_object.disk_block obj ~offset with
    | Some b -> b
    | None ->
        let b = ctx.alloc_swap () in
        Vm_object.assign_swap obj ~offset ~block:b;
        b
  in
  (* Pageout closes the reclaim-scan work that selected this page: Span
     attributes the interval ending here as [Reclaim] *)
  Hipec_trace.Trace.pageout ~obj:(Vm_object.id obj) ~offset ~block;
  Vm_object.disconnect obj page;
  t.laundry <- t.laundry + 1;
  t.pageout_writes <- t.pageout_writes + 1;
  (* direct: policy flushes emit Pageout too, and no event carries the
     laundry depth *)
  if Hipec_metrics.Metrics.on () then begin
    Hipec_metrics.Metrics.incr "vm.pageout.laundered";
    Hipec_metrics.Metrics.gauge_set "vm.pageout.laundry" t.laundry
  end;
  let remap = function
    | Disk.Bad_block _ when (match Vm_object.backing obj with
                            | Vm_object.Zero_fill -> true
                            | Vm_object.File _ -> false) ->
        let b = ctx.alloc_swap () in
        Vm_object.remap_swap obj ~offset ~block:b;
        Some b
    | _ -> None
  in
  Io_retry.submit_write ~policy:ctx.io_policy ctx.io_stats ctx.disk ~remap ~block
    ~nblocks:Vm_object.blocks_per_page (fun _engine _result ->
      Vm_page.release_frame ctx.frame_table page;
      t.laundry <- t.laundry - 1)

let evict_clean ctx page =
  Vm_object.disconnect (object_of ctx page) page;
  Vm_page.release_frame ctx.frame_table page

(* One reclaim attempt from the head of the inactive queue.  Returns
   [`Progress] when a page moved (evicted or reactivated), [`Empty] when
   the inactive queue is drained. *)
let reclaim_step t ctx =
  Engine.advance ctx.engine ctx.costs.Costs.queue_op;
  (* direct: no event marks a scan step or carries the inactive depth *)
  if Hipec_metrics.Metrics.on () then begin
    Hipec_metrics.Metrics.incr "vm.pageout.scans";
    Hipec_metrics.Metrics.sample "vm.pageout.inactive_depth.ts"
      (Page_queue.length t.inactive)
  end;
  match Page_queue.dequeue_head t.inactive with
  | None -> `Empty
  | Some page ->
      if Vm_page.referenced page then begin
        (* second chance *)
        Vm_page.clear_referenced page;
        Page_queue.enqueue_tail t.active page;
        t.reactivations <- t.reactivations + 1;
        (* direct: no event marks a second chance *)
        if Hipec_metrics.Metrics.on () then
          Hipec_metrics.Metrics.incr "vm.pageout.reactivations";
        `Progress
      end
      else begin
        t.evictions <- t.evictions + 1;
        (* direct: a daemon Evict is emitted only for bound pages, and
           also by the frame manager's default-policy take *)
        if Hipec_metrics.Metrics.on () then
          Hipec_metrics.Metrics.incr "vm.pageout.evictions";
        (if Hipec_trace.Trace.takes Hipec_trace.Event.Cat.evict then
           match Vm_page.binding page with
           | Some (oid, offset) ->
               Hipec_trace.Trace.evict ~source:Hipec_trace.Event.Daemon ~obj:oid
                 ~offset ~dirty:(Vm_page.dirty page)
           | None -> ());
        if Vm_page.dirty page then launder t ctx page else evict_clean ctx page;
        `Progress
      end

let refill_inactive t ctx ~target =
  while Page_queue.length t.inactive < target && not (Page_queue.is_empty t.active) do
    Engine.advance ctx.engine ctx.costs.Costs.queue_op;
    match Page_queue.dequeue_head t.active with
    | None -> ()
    | Some page ->
        Vm_page.clear_referenced page;
        Page_queue.enqueue_tail t.inactive page
  done

(* Pressure urgency widens both targets: under load the daemon launders
   and evicts in bigger batches instead of trickling one free_target's
   worth per wakeup.  Urgency 0 (the default, and the only value ever
   seen unless a Pressure controller is engaged) reproduces the
   historical targets exactly. *)
let balance_target t = t.free_target * (1 + t.urgency)

let inactive_target t =
  let queued = Page_queue.length t.active + Page_queue.length t.inactive in
  max ((2 + t.urgency) * t.free_target) (queued / 3)

let needs_balance t tbl = Frame.Table.free_count tbl <= t.reserved

let balance t ctx =
  let continue = ref true in
  (* laundry frames count toward the target: their writebacks are already
     in flight, so evicting more pages would not speed anything up *)
  while !continue && Frame.Table.free_count ctx.frame_table + t.laundry < balance_target t do
    refill_inactive t ctx ~target:(inactive_target t);
    match reclaim_step t ctx with
    | `Progress -> ()
    | `Empty ->
        (* nothing inactive; if active is also empty we are out of pages *)
        if Page_queue.is_empty t.active then continue := false
        else refill_inactive t ctx ~target:(max 1 (inactive_target t))
  done

let reclaim_one t ctx =
  (* The budget counts reclaimed work (a laundered or evicted frame),
     not scan iterations: a pass over the inactive queue that only
     reactivates referenced pages used to burn its whole budget and
     report failure — even though the pages it pushed back to the
     active queue become evictable the moment a refill clears their
     reference bits.  So: scan one pass; if it produced no frame but
     did move pages, refill and scan once more.  The second pass either
     reclaims (the refilled pages arrive reference-clear) or proves the
     queues are truly empty. *)
  let one_pass () =
    let before = t.evictions in
    let rec scan budget =
      if budget <= 0 then `No_work
      else
        match reclaim_step t ctx with
        | `Empty -> `No_work
        | `Progress -> if t.evictions > before then `Worked else scan (budget - 1)
    in
    scan (Page_queue.length t.inactive + 1)
  in
  refill_inactive t ctx ~target:(max 1 (inactive_target t));
  match one_pass () with
  | `Worked -> true
  | `No_work ->
      if Page_queue.is_empty t.active then false
      else begin
        refill_inactive t ctx ~target:(max 1 (inactive_target t));
        match one_pass () with `Worked -> true | `No_work -> false
      end

let evictions t = t.evictions
let reactivations t = t.reactivations
let pageout_writes t = t.pageout_writes
let queues t = [ t.active; t.inactive ]
