open Hipec_sim
open Hipec_machine

let log = Logs.Src.create "hipec.kernel" ~doc:"simulated kernel"

module Log = (val Logs.src_log log : Logs.LOG)
module Tr = Hipec_trace.Trace
module Mx = Hipec_metrics.Metrics

exception Task_terminated of Task.t * string

type config = {
  total_frames : int;
  costs : Costs.t;
  disk_params : Disk.params option;
  disk_faults : Disk.Faults.config option;
  seed : int;
  hipec_kernel : bool;
  readahead : int;
  io_retry : Io_retry.policy;
}

let default_config =
  { total_frames = 16_384; costs = Costs.default; disk_params = None;
    disk_faults = None; seed = 1; hipec_kernel = false; readahead = 0;
    io_retry = Io_retry.default_policy }

type fault_grant = Grant_page of Vm_page.t | Deny of string | Fallback of string

type manager = {
  on_fault : task:Task.t -> obj:Vm_object.t -> offset:int -> write:bool -> fault_grant;
  on_resolved : task:Task.t -> page:Vm_page.t -> unit;
  on_task_terminated : task:Task.t -> unit;
}

type stats = {
  mutable faults : int;
  mutable fast_refaults : int;
  mutable zero_fill_faults : int;
  mutable pagein_faults : int;
  mutable hipec_faults : int;
  mutable protection_faults : int;
  mutable prefetched_pages : int;
  mutable cow_copies : int;  (* pages materialized into a copy object *)
  mutable cow_pushes : int;  (* copies pushed down before a source write *)
}

type t = {
  engine : Engine.t;
  costs : Costs.t;
  disk : Disk.t;
  frame_table : Frame.Table.t;
  pageout : Pageout.t;
  rng : Rng.t;
  hipec_kernel : bool;
  readahead : int;
  mutable task_list : Task.t list;
  (* by object id: the auditor resolves the object of every held frame
     it checks, and every fault asks for its object's manager *)
  objects : Vm_object.t Int_table.t;
  managers : manager Int_table.t;
  next_disk_block : int ref;
  stats : stats;
  (* the frame table's frame -> page index: the access hot path finds
     the page a translation hit lands on there, so kernel-visible access
     recency (Vm_page.last_access) is kept on hits as well as faults.
     The LRU/MRU complex commands read it. *)
  pages : Vm_page.index;
  mutable access_recorder : (Task.t -> vpn:int -> write:bool -> unit) option;
  io_policy : Io_retry.policy;
  io_stats : Io_retry.stats;
  (* built once: the fault path hands these to pageout and to the
     synchronous pagein without allocating *)
  pageout_ctx : Pageout.ctx;
  charge_fn : Sim_time.t -> unit;
  (* overload protection: absent unless [enable_pressure] engages it, so
     a plain kernel behaves — and traces — exactly as before *)
  mutable pressure : Pressure.t option;
}

let charge_engine engine d =
  Engine.advance engine d;
  (* deliver completions (disk interrupts, timers) that have come due *)
  Engine.run_until engine (Engine.now engine)

let alloc_extent disk next_block ~npages =
  let nblocks = npages * Vm_object.blocks_per_page in
  let base = !next_block in
  if base + nblocks > Disk.capacity_blocks disk then failwith "Kernel: disk full";
  next_block := base + nblocks;
  base

let create ?(config = default_config) () =
  let engine = Engine.create () in
  (* events and metric series are stamped with this kernel's clock *)
  Tr.set_clock (fun () -> Engine.now engine);
  let rng = Rng.create ~seed:config.seed in
  let disk =
    Disk.create ?params:config.disk_params ?faults:config.disk_faults ~engine
      ~rng:(Rng.split rng) ()
  in
  let frame_table = Frame.Table.create ~total:config.total_frames in
  let objects = Int_table.create 64 and next_disk_block = ref 0 in
  let io_stats = Io_retry.create_stats () in
  {
    engine;
    costs = config.costs;
    disk;
    frame_table;
    pageout = Pageout.create ~total_frames:config.total_frames;
    rng;
    hipec_kernel = config.hipec_kernel;
    readahead = config.readahead;
    task_list = [];
    objects;
    managers = Int_table.create 16;
    next_disk_block;
    pages = Vm_page.index frame_table;
    access_recorder = None;
    io_policy = config.io_retry;
    io_stats;
    pageout_ctx =
      {
        Pageout.frame_table;
        disk;
        engine;
        costs = config.costs;
        resolve_object = Int_table.find objects;
        alloc_swap = (fun () -> alloc_extent disk next_disk_block ~npages:1);
        io_policy = config.io_retry;
        io_stats;
      };
    charge_fn = charge_engine engine;
    pressure = None;
    stats =
      {
        faults = 0;
        fast_refaults = 0;
        zero_fill_faults = 0;
        pagein_faults = 0;
        hipec_faults = 0;
        protection_faults = 0;
        prefetched_pages = 0;
        cow_copies = 0;
        cow_pushes = 0;
      };
  }

let engine t = t.engine
let costs t = t.costs
let disk t = t.disk
let frame_table t = t.frame_table
let pageout t = t.pageout
let rng t = t.rng
let now t = Engine.now t.engine

let charge t d = charge_engine t.engine d

let drain_io t = Engine.run t.engine

let resolve_object t oid = Int_table.find t.objects oid
let register_object t obj = Int_table.replace t.objects (Vm_object.id obj) obj

let alloc_disk_extent t ~npages = alloc_extent t.disk t.next_disk_block ~npages
let pageout_ctx t = t.pageout_ctx

let stats t = t.stats
let io_stats t = t.io_stats
let io_policy t = t.io_policy
let iter_objects t f = Int_table.iter (fun _ obj -> f obj) t.objects

(* ------------------------------------------------------------------ *)
(* Memory pressure (overload protection)                               *)
(* ------------------------------------------------------------------ *)

let pressure t = t.pressure
let pressure_level t = match t.pressure with Some p -> Pressure.level p | None -> Pressure.Normal

let check_pressure t =
  match t.pressure with
  | None -> ()
  | Some p ->
      let free = Frame.Table.free_count t.frame_table in
      ignore
        (Pressure.evaluate p ~free ~free_target:(Pageout.free_target t.pageout)
           ~reserved:(Pageout.reserved t.pageout));
      (* direct: a series samples the level at every check, not only on
         a change *)
      if Mx.on () then Mx.sample "vm.pressure.level.ts" (Pressure.severity (Pressure.level p))

let enable_pressure t =
  match t.pressure with
  | Some p -> p
  | None ->
      let p = Pressure.create () in
      (* the kernel's own listener runs before any later subscriber
         (frame-manager seizure hooks): pageout urgency, then the trace
         event the metrics registry also counts *)
      Pressure.subscribe p (fun ~prev:_ ~next ->
          Pageout.set_urgency t.pageout (Pressure.severity next);
          Tr.pressure ~level:(Pressure.severity next)
            ~free:(Frame.Table.free_count t.frame_table));
      t.pressure <- Some p;
      p

(* ------------------------------------------------------------------ *)
(* Tasks                                                               *)
(* ------------------------------------------------------------------ *)

let create_task t ?name () =
  let task = Task.create ?name () in
  t.task_list <- task :: t.task_list;
  task

let tasks t = t.task_list

let release_region_pages t task region =
  let obj = region.Vm_map.obj in
  if not (Int_table.mem t.managers (Vm_object.id obj)) then begin
    let first = region.Vm_map.obj_offset in
    for offset = first to first + region.Vm_map.npages - 1 do
      match Vm_object.find_resident obj ~offset with
      | Some page ->
          Pageout.forget t.pageout page;
          Vm_object.disconnect obj page;
          Vm_page.release_frame t.frame_table page
      | None -> ()
    done
  end;
  Vm_object.detach_copy obj;
  (* drop this task's translations for the region, and their entries in
     the mapped pages (a managed object's pages stay resident) *)
  let pmap = Task.pmap task in
  for vpn = region.Vm_map.start_vpn to Vm_map.region_end_vpn region - 1 do
    let frame = Pmap.frame_at pmap ~vpn in
    if frame <> Pmap.miss then begin
      (match Vm_page.holding t.pages frame with
      | Some page -> Vm_page.remove_mapping page pmap ~vpn
      | None -> ());
      Pmap.remove pmap ~vpn
    end
  done

let terminate_task t task ~reason =
  if Task.alive task then begin
    Log.warn (fun m -> m "terminating %s: %s" (Task.name task) reason);
    Tr.kill ~task:(Task.id task) ~reason;
    Task.kill task ~reason;
    let regions = Vm_map.regions (Task.vm_map task) in
    List.iter (fun r -> release_region_pages t task r) regions;
    Pmap.remove_all (Task.pmap task);
    (* notify the managers of the task's own regions so HiPEC containers
       can tear down *)
    List.iter
      (fun r ->
        match Int_table.find_opt t.managers (Vm_object.id r.Vm_map.obj) with
        | Some m -> m.on_task_terminated ~task
        | None -> ())
      regions
  end

(* ------------------------------------------------------------------ *)
(* Memory syscalls                                                     *)
(* ------------------------------------------------------------------ *)

let vm_allocate t task ~npages =
  charge t t.costs.Costs.null_syscall;
  let obj = Vm_object.create ~size_pages:npages ~backing:Vm_object.Zero_fill () in
  register_object t obj;
  Vm_map.allocate_anywhere (Task.vm_map task) ~npages ~obj ~obj_offset:0
    ~prot:Pmap.Read_write

let vm_map_file t task ?name ~npages () =
  charge t t.costs.Costs.null_syscall;
  let base_block = alloc_disk_extent t ~npages in
  let obj =
    Vm_object.create ?name ~size_pages:npages ~backing:(Vm_object.File { base_block }) ()
  in
  register_object t obj;
  Vm_map.allocate_anywhere (Task.vm_map task) ~npages ~obj ~obj_offset:0
    ~prot:Pmap.Read_write

let vm_map_object t task ~obj ~obj_offset ~npages ~prot =
  charge t t.costs.Costs.null_syscall;
  register_object t obj;
  Vm_map.allocate_anywhere (Task.vm_map task) ~npages ~obj ~obj_offset ~prot

let vm_deallocate t task region =
  charge t t.costs.Costs.null_syscall;
  release_region_pages t task region;
  Vm_map.remove (Task.vm_map task) region

let protect_region t task region ~prot =
  charge t t.costs.Costs.null_syscall;
  region.Vm_map.prot <- prot;
  for vpn = region.Vm_map.start_vpn to Vm_map.region_end_vpn region - 1 do
    match Pmap.lookup (Task.pmap task) ~vpn with
    | Some _ -> Pmap.protect (Task.pmap task) ~vpn ~prot
    | None -> ()
  done

(* vm_copy: map a lazy copy of [region]'s object.  The source's resident
   pages are write-protected; a later source write pushes copies down to
   the children first (see the protection-fault path), so the copy is a
   consistent snapshot. *)
let vm_copy t task region =
  charge t t.costs.Costs.null_syscall;
  let src = region.Vm_map.obj in
  if Int_table.mem t.managers (Vm_object.id src) then
    invalid_arg "Kernel.vm_copy: cannot copy a HiPEC-managed object";
  let child = Vm_object.create_copy src in
  register_object t child;
  Vm_object.iter_resident
    (fun ~offset:_ page ->
      List.iter (fun (pmap, vpn) -> Pmap.protect pmap ~vpn ~prot:Pmap.Read_only)
        (Vm_page.mappings page))
    src;
  Vm_map.allocate_anywhere (Task.vm_map task) ~npages:region.Vm_map.npages ~obj:child
    ~obj_offset:region.Vm_map.obj_offset ~prot:region.Vm_map.prot

(* ------------------------------------------------------------------ *)
(* The page-fault path                                                 *)
(* ------------------------------------------------------------------ *)

let kill_and_raise t task reason =
  t.stats.protection_faults <- t.stats.protection_faults + 1;
  terminate_task t task ~reason;
  raise (Task_terminated (task, reason))

(* Synchronous pagein with the retry path: transient errors back off and
   retry; only exhausted retries (or a bad backing block, which no retry
   can read around) terminate the task. *)
let pagein t task ~block =
  match
    Io_retry.sync_read ~policy:t.io_policy t.io_stats ~charge:t.charge_fn t.disk ~block
      ~nblocks:Vm_object.blocks_per_page
  with
  | Ok () -> Tr.pagein ~task:(Task.id task) ~block
  | Error err ->
      let reason = "unrecoverable paging I/O error: " ^ Disk.io_error_to_string err in
      terminate_task t task ~reason;
      raise (Task_terminated (task, reason))

(* Bind [slot] to the faulted offset, fill it (pagein or zero-fill) and
   install the translation. *)
let install_page t task region ~obj ~offset ~vpn slot =
  Vm_object.connect obj slot ~offset;
  (if Vm_object.has_backing_data obj ~offset then begin
     let block = Option.get (Vm_object.disk_block obj ~offset) in
     pagein t task ~block;
     Task.count_pagein task;
     t.stats.pagein_faults <- t.stats.pagein_faults + 1
   end
   else
     match Vm_object.copy_source obj ~offset with
     | `Page _ ->
         (* materialize from the resident source page *)
         charge t t.costs.Costs.page_copy;
         t.stats.cow_copies <- t.stats.cow_copies + 1
     | `Block block ->
         pagein t task ~block;
         Task.count_pagein task;
         t.stats.pagein_faults <- t.stats.pagein_faults + 1;
         t.stats.cow_copies <- t.stats.cow_copies + 1
     | `Zero ->
         Task.count_zero_fill task;
         t.stats.zero_fill_faults <- t.stats.zero_fill_faults + 1);
  charge t t.costs.Costs.pmap_enter;
  (* an object with live copies keeps write-protected translations so a
     write always enters the push-down path first *)
  let prot =
    if Vm_object.has_children obj then Pmap.Read_only else region.Vm_map.prot
  in
  Pmap.enter (Task.pmap task) ~vpn ~frame:(Vm_page.frame slot) ~prot;
  Vm_page.add_mapping slot (Task.pmap task) ~vpn;
  Vm_page.touch slot (now t);
  if region.Vm_map.wired then Vm_page.set_wired slot true;
  slot

let rec take_frame t task attempts =
  match Frame.Table.alloc t.frame_table with
  | Some frame -> frame
  | None ->
      if Pageout.laundry_count t.pageout > 0 then begin
        (* block until a writeback completes and retry *)
        if not (Engine.step t.engine) then
          kill_and_raise t task "out of memory: laundry stuck";
        take_frame t task attempts
      end
      else if attempts > 0 && Pageout.reclaim_one t.pageout t.pageout_ctx then
        take_frame t task (attempts - 1)
      else kill_and_raise t task "out of memory"

(* Allocate a frame from the default pool, running the pageout daemon
   when the pool is low and waiting on laundry writebacks if it runs
   completely dry. *)
let default_pool_frame t task =
  if Pageout.needs_balance t.pageout t.frame_table then Pageout.balance t.pageout t.pageout_ctx;
  take_frame t task 8

(* Clustered pagein: after a default-pool file fault, pull the next
   [readahead] contiguous backed pages in with the same transfer (only
   the marginal per-block cost, the head is already positioned).  They
   arrive unmapped on the inactive queue; a wrong guess is the first
   thing evicted, a right one reactivates on its soft fault. *)
let prefetch t obj ~offset =
  let reserve = Pageout.reserved t.pageout in
  let rec loop i =
    if i <= t.readahead then
      let off = offset + i in
      (* stop at the first ineligible page: clusters are contiguous *)
      if
        off < Vm_object.size_pages obj
        && Vm_object.has_backing_data obj ~offset:off
        && Vm_object.find_resident obj ~offset:off = None
        && Frame.Table.free_count t.frame_table > reserve
      then begin
        match Frame.Table.alloc t.frame_table with
        | None -> ()
        | Some frame ->
            let page = Vm_page.create ~frame in
            Vm_object.connect obj page ~offset:off;
            charge t
              (Disk.sequential_transfer_time t.disk ~nblocks:Vm_object.blocks_per_page);
            t.stats.prefetched_pages <- t.stats.prefetched_pages + 1;
            Pageout.note_prefetched t.pageout page;
            loop (i + 1)
      end
  in
  loop 1

let fault t task region ~vpn ~write =
  Task.count_fault task;
  t.stats.faults <- t.stats.faults + 1;
  let t0 = now t in
  let emit kind =
    (* the Fault must be the last event of its service window and its
       latency must span back exactly to t0: Span tiles the window
       [time - latency, time] from the events between the two *)
    Tr.fault ~task:(Task.id task) ~vpn ~kind
      ~latency_ns:(Sim_time.to_ns (Sim_time.sub (now t) t0));
    (* direct: no event carries the free-frame count *)
    if Mx.on () then begin
      let free = Frame.Table.free_count t.frame_table in
      Mx.gauge_set "vm.free_frames" free;
      Mx.sample "vm.free_frames.ts" free
    end
  in
  charge t t.costs.Costs.fault_trap;
  if t.hipec_kernel then charge t t.costs.Costs.hipec_region_check;
  let obj = region.Vm_map.obj in
  let offset = Vm_map.offset_of_vpn region vpn in
  match Vm_object.find_resident obj ~offset with
  | Some page ->
      (* data already resident: translation fault only *)
      t.stats.fast_refaults <- t.stats.fast_refaults + 1;
      charge t t.costs.Costs.pmap_enter;
      Pmap.enter (Task.pmap task) ~vpn ~frame:(Vm_page.frame page) ~prot:region.Vm_map.prot;
      Vm_page.add_mapping page (Task.pmap task) ~vpn;
      Vm_page.touch page (now t);
      Frame.set_referenced (Vm_page.frame page) true;
      if write then Frame.set_modified (Vm_page.frame page) true;
      emit Hipec_trace.Event.Soft
  | None -> (
      charge t t.costs.Costs.fault_service;
      let default_path () =
        (* classify by which stat the install bumps: a lazy copy beats
           the pagein it may also perform *)
        let zf = t.stats.zero_fill_faults
        and pi = t.stats.pagein_faults
        and cc = t.stats.cow_copies in
        let frame = default_pool_frame t task in
        let slot = Vm_page.create ~frame in
        let page = install_page t task region ~obj ~offset ~vpn slot in
        Frame.set_referenced (Vm_page.frame page) true;
        if write then Frame.set_modified (Vm_page.frame page) true;
        Pageout.note_new_resident t.pageout page;
        if t.readahead > 0 && Vm_object.has_backing_data obj ~offset then
          prefetch t obj ~offset;
        emit
          (if t.stats.cow_copies > cc then Hipec_trace.Event.Cow
           else if t.stats.zero_fill_faults > zf then Hipec_trace.Event.Zero_fill
           else if t.stats.pagein_faults > pi then Hipec_trace.Event.File_pagein
           else Hipec_trace.Event.Soft)
      in
      match Int_table.find_opt t.managers (Vm_object.id obj) with
      | Some manager -> (
          t.stats.hipec_faults <- t.stats.hipec_faults + 1;
          match manager.on_fault ~task ~obj ~offset ~write with
          | Deny reason -> kill_and_raise t task reason
          | Fallback reason ->
              (* the manager demoted itself: this fault (and, once the
                 hook is cleared, every later one) resolves through the
                 default pool instead of killing the task *)
              Log.warn (fun m ->
                  m "manager fallback for %s: %s" (Vm_object.name obj) reason);
              default_path ()
          | Grant_page slot ->
              let page = install_page t task region ~obj ~offset ~vpn slot in
              Frame.set_referenced (Vm_page.frame page) true;
              if write then Frame.set_modified (Vm_page.frame page) true;
              manager.on_resolved ~task ~page;
              emit Hipec_trace.Event.Hipec)
      | None -> default_path ())

(* A write hit a write-protected translation in a writable region: the
   page belongs to an object with live lazy copies.  Push a copy down to
   every child missing the page, then upgrade the writer's mapping. *)
let resolve_cow_write t task region ~vpn =
  Task.count_fault task;
  t.stats.faults <- t.stats.faults + 1;
  let t0 = now t in
  charge t t.costs.Costs.fault_trap;
  let obj = region.Vm_map.obj in
  let offset = Vm_map.offset_of_vpn region vpn in
  (match Vm_object.find_resident obj ~offset with
  | Some page ->
      List.iter
        (fun child ->
          if
            offset < Vm_object.size_pages child
            && Vm_object.find_resident child ~offset = None
          then begin
            let frame = default_pool_frame t task in
            let slot = Vm_page.create ~frame in
            Vm_object.connect child slot ~offset;
            charge t t.costs.Costs.page_copy;
            t.stats.cow_pushes <- t.stats.cow_pushes + 1;
            Pageout.note_new_resident t.pageout slot
          end)
        (Vm_object.children obj);
      Frame.set_referenced (Vm_page.frame page) true;
      Frame.set_modified (Vm_page.frame page) true
  | None -> ());
  charge t t.costs.Costs.pmap_enter;
  Pmap.protect (Task.pmap task) ~vpn ~prot:region.Vm_map.prot;
  Tr.fault ~task:(Task.id task) ~vpn ~kind:Hipec_trace.Event.Cow
    ~latency_ns:(Sim_time.to_ns (Sim_time.sub (now t) t0))

let set_access_recorder t tap = t.access_recorder <- tap

(* One reference, with whatever fault service it triggers. *)
let reference t task ~vpn ~write =
  charge t t.costs.Costs.mem_access;
  let frame = Pmap.access (Task.pmap task) ~vpn ~write in
  if frame >= 0 then begin
    match Vm_page.holding t.pages frame with
    | Some page -> Vm_page.touch page (now t)
    | None -> ()
  end
  else
    match Vm_map.region_at (Task.vm_map task) ~vpn with
    | exception Not_found ->
        if frame = Pmap.miss then
          kill_and_raise t task (Printf.sprintf "segmentation fault at vpn %d" vpn)
        else kill_and_raise t task "protection violation"
    | region ->
        if frame = Pmap.protection_violation then begin
          if region.Vm_map.command_buffer then
            kill_and_raise t task "attempt to modify a HiPEC command buffer"
          else if region.Vm_map.prot = Pmap.Read_write then
            resolve_cow_write t task region ~vpn
          else kill_and_raise t task "protection violation"
        end
        else begin
          if write && region.Vm_map.prot = Pmap.Read_only then begin
            if region.Vm_map.command_buffer then
              kill_and_raise t task "attempt to modify a HiPEC command buffer"
            else kill_and_raise t task "protection violation"
          end;
          fault t task region ~vpn ~write;
          (* post-service re-evaluation: the fault may have drained (or a
             seizure may have refilled) the free pool; a no-op unless a
             pressure controller is engaged *)
          check_pressure t
        end

let access_vpn t task ~vpn ~write =
  if not (Task.alive task) then
    invalid_arg (Printf.sprintf "Kernel.access: task %s is dead" (Task.name task));
  (match t.access_recorder with Some tap -> tap task ~vpn ~write | None -> ());
  Tr.access ~task:(Task.id task) ~vpn ~write;
  let t0 = Engine.now t.engine in
  (* the reference plus whatever fault service it triggered is this
     task's CPU time, also when it raises (the task was killed) *)
  match reference t task ~vpn ~write with
  | () -> Task.charge_cpu task (Sim_time.sub (Engine.now t.engine) t0)
  | exception e ->
      Task.charge_cpu task (Sim_time.sub (Engine.now t.engine) t0);
      raise e

let access t task ~va ~write = access_vpn t task ~vpn:(Pmap.vpn_of_va va) ~write

let touch_region t task region ~write =
  for vpn = region.Vm_map.start_vpn to Vm_map.region_end_vpn region - 1 do
    access_vpn t task ~vpn ~write
  done

let wire_region t task region =
  charge t t.costs.Costs.null_syscall;
  region.Vm_map.wired <- true;
  for vpn = region.Vm_map.start_vpn to Vm_map.region_end_vpn region - 1 do
    access_vpn t task ~vpn ~write:false;
    let offset = Vm_map.offset_of_vpn region vpn in
    match Vm_object.find_resident region.Vm_map.obj ~offset with
    | Some page ->
        if not (Vm_page.wired page) then begin
          Pageout.forget t.pageout page;
          Vm_page.set_wired page true
        end
    | None -> ()
  done

(* ------------------------------------------------------------------ *)
(* External managers and mechanism micro-ops                           *)
(* ------------------------------------------------------------------ *)

let set_manager t obj manager =
  register_object t obj;
  Int_table.replace t.managers (Vm_object.id obj) manager

let clear_manager t obj = Int_table.remove t.managers (Vm_object.id obj)
let managed t obj = Int_table.mem t.managers (Vm_object.id obj)
let null_syscall t = charge t t.costs.Costs.null_syscall
let null_ipc t = charge t t.costs.Costs.null_ipc
