open Hipec_machine
open Hipec_vm

let log = Logs.Src.create "hipec.manager" ~doc:"global frame manager"

module Log = (val Logs.src_log log : Logs.LOG)
module Tr = Hipec_trace.Trace
module T = Hipec_sim.Sim_time

type stats = {
  mutable requests_granted : int;
  mutable requests_rejected : int;
  mutable frames_granted : int;
  mutable frames_reclaimed : int;
  mutable reclaim_events : int;
  mutable forced_seizures : int;
  mutable flush_writes : int;
  mutable demotions : int;
  mutable admissions_rejected : int;
  mutable throttles_entered : int;
  mutable throttles_exited : int;
  mutable emergency_seizures : int;
  mutable emergency_frames : int;
}

type admission_error =
  | Overloaded of Pressure.level
  | No_memory of string

let admission_error_message = function
  | Overloaded level ->
      Printf.sprintf "frame manager: admission shed (pressure %s)"
        (Pressure.level_name level)
  | No_memory msg -> msg

type t = {
  kernel : Kernel.t;
  mutable executor : Executor.t option;  (* wired right after creation *)
  (* the FAFR ledger, oldest first: exactly the containers whose
     [Container.admitted] flag is set *)
  ledger : Container.t Queue.t;
  mutable partition_burst : int;
  mutable specific_total : int;
  (* the fuel ledger's command budget per window; 0 disables the whole
     mechanism so pre-existing runs are byte-identical *)
  mutable fuel_quota : int;
  stats : stats;
}

module Mx = Hipec_metrics.Metrics

let kernel t = t.kernel
let executor t = Option.get t.executor
let partition_burst t = t.partition_burst
let set_partition_burst t v = t.partition_burst <- v
let specific_total t = t.specific_total
let fold_containers f acc t = Queue.fold f acc t.ledger

(* The admitted containers that satisfy [p], FAFR: the snapshot a walk
   keeps while policies run or frames move under it. *)
let snapshot t p = List.rev (fold_containers (fun acc c -> if p c then c :: acc else acc) [] t)

let containers t = snapshot t (fun _ -> true)
let stats t = t.stats
let fuel_quota t = t.fuel_quota
let set_fuel_quota t q = t.fuel_quota <- max 0 q
let fuel_window = T.ms 10
let fuel_cooldown = T.ms 50

let pressure_level t = Kernel.pressure_level t.kernel

(* Pressure-scaled burst watermark: under load the specific partition
   shrinks, so greedy [Request] bursts hit the wall sooner.  Identical
   to [partition_burst] while the controller is disengaged (Normal). *)
let burst_limit t =
  match pressure_level t with
  | Pressure.Normal -> t.partition_burst
  | Pressure.Elevated -> t.partition_burst * 3 / 4
  | Pressure.Critical -> t.partition_burst / 2
  | Pressure.Emergency -> t.partition_burst / 4

(* Partition accounting gauges: the container's free-list depth and the
   manager's remaining partition_burst headroom, refreshed wherever
   frames change hands.  Off the per-instruction hot path, so building
   the per-container name on each (enabled) emit is fine.  Direct: no
   event carries a queue depth or the partition totals. *)
let note_gauges t container =
  if Mx.on () then begin
    Mx.gauge_set
      ("hipec.c"
      ^ string_of_int (Mx.container_id (Container.id container))
      ^ ".free_depth")
      (Page_queue.length (Container.free_queue container));
    Mx.gauge_set "hipec.manager.specific_total" t.specific_total;
    Mx.gauge_set "hipec.manager.headroom" (t.partition_burst - t.specific_total);
    Mx.sample "hipec.manager.headroom.ts" (t.partition_burst - t.specific_total)
  end

(* ------------------------------------------------------------------ *)
(* Frame movement primitives                                           *)
(* ------------------------------------------------------------------ *)

(* Asynchronous writeback of a bound dirty page; the modify bit clears
   immediately (the manager owns a stable copy), so the frame is at once
   reusable and the executor never waits on the disk (paper §4.3.1,
   I/O Handling).  Errors retry through the shared paging-I/O path; a
   bad swap block remaps to a fresh slot. *)
let flush_bound_page t page =
  match Vm_page.binding page with
  | None -> Error "Flush: page is not bound to an object"
  | Some (oid, offset) -> (
      match Kernel.resolve_object t.kernel oid with
      | exception Not_found -> Error (Printf.sprintf "Flush: unknown object %d" oid)
      | obj ->
          if Vm_page.dirty page then begin
            let block =
              match Vm_object.disk_block obj ~offset with
              | Some b -> b
              | None ->
                  let b = Kernel.alloc_disk_extent t.kernel ~npages:1 in
                  Vm_object.assign_swap obj ~offset ~block:b;
                  b
            in
            Vm_page.clear_modified page;
            t.stats.flush_writes <- t.stats.flush_writes + 1;
            Tr.pageout ~obj:(Vm_object.id obj) ~offset ~block;
            let remap = function
              | Disk.Bad_block _
                when (match Vm_object.backing obj with
                     | Vm_object.Zero_fill -> true
                     | Vm_object.File _ -> false) ->
                  let b = Kernel.alloc_disk_extent t.kernel ~npages:1 in
                  Vm_object.remap_swap obj ~offset ~block:b;
                  Some b
              | _ -> None
            in
            Io_retry.submit_write ~policy:(Kernel.io_policy t.kernel)
              (Kernel.io_stats t.kernel) (Kernel.disk t.kernel) ~remap ~block
              ~nblocks:Vm_object.blocks_per_page
              (fun _ _result -> ())
          end;
          Ok ())

(* Grant [n] frames from the machine free pool onto the container's
   free queue as unbound slots.  All-or-nothing: the pool can shrink
   between the caller's headroom check and the allocation (the pageout
   reserve, a daemon waking up), and a partial grant used to trip the
   callers' accounting asserts.  On a short allocation the frames go
   straight back and the caller sees 0, rejecting gracefully. *)
let grant_frames t container n =
  let tbl = Kernel.frame_table t.kernel in
  let frames = Frame.Table.alloc_many tbl n in
  let got = List.length frames in
  if got < n then begin
    List.iter (Frame.Table.free tbl) frames;
    0
  end
  else begin
    List.iter
      (fun frame ->
        Page_queue.enqueue_tail (Container.free_queue container) (Vm_page.create ~frame))
      frames;
    Container.add_frames container got;
    t.specific_total <- t.specific_total + got;
    t.stats.frames_granted <- t.stats.frames_granted + got;
    if got > 0 then Tr.grant ~container:(Container.id container) ~frames:got;
    note_gauges t container;
    got
  end

(* Take up to [n] unbound slots back from the container's free queue. *)
let take_free_slots t container n =
  let tbl = Kernel.frame_table t.kernel in
  let rec loop k =
    if k = 0 then n
    else
      match Page_queue.dequeue_head (Container.free_queue container) with
      | None -> n - k
      | Some slot ->
          Vm_page.release_frame tbl slot;
          loop (k - 1)
  in
  let got = loop n in
  Container.remove_frames container got;
  t.specific_total <- t.specific_total - got;
  t.stats.frames_reclaimed <- t.stats.frames_reclaimed + got;
  if got > 0 then Tr.reclaim ~container:(Container.id container) ~frames:got ~forced:false;
  note_gauges t container;
  got

(* Seize one frame from the container: a free slot if any, otherwise a
   resident page (inactive, then active queue, then anything bound). *)
let seize_one t container ~flush_dirty =
  let tbl = Kernel.frame_table t.kernel in
  let free_page page =
    if Vm_page.is_bound page then begin
      (if flush_dirty && Vm_page.dirty page then
         match flush_bound_page t page with Ok () | Error _ -> ());
      let oid = match Vm_page.binding page with Some (o, _) -> o | None -> assert false in
      (match Kernel.resolve_object t.kernel oid with
      | obj -> Vm_object.disconnect obj page
      | exception Not_found -> Vm_page.unbind page)
    end;
    Vm_page.release_frame tbl page;
    Container.remove_frames container 1;
    t.specific_total <- t.specific_total - 1;
    t.stats.frames_reclaimed <- t.stats.frames_reclaimed + 1;
    t.stats.forced_seizures <- t.stats.forced_seizures + 1;
    Tr.reclaim ~container:(Container.id container) ~frames:1 ~forced:true;
    note_gauges t container
  in
  match Page_queue.dequeue_head (Container.free_queue container) with
  | Some slot ->
      free_page slot;
      true
  | None -> (
      match Page_queue.dequeue_head (Container.inactive_queue container) with
      | Some page ->
          free_page page;
          true
      | None -> (
          match Page_queue.dequeue_head (Container.active_queue container) with
          | Some page ->
              free_page page;
              true
          | None -> (
              (* a resident page held off-queue (e.g. in the page register) *)
              let found = ref None in
              Vm_object.iter_resident
                (fun ~offset:_ page ->
                  if !found = None && not (Vm_page.wired page) then found := Some page)
                (Container.obj container);
              match !found with
              | Some page ->
                  (* The container queues were drained above, so the page
                     should be off-queue — but never free a frame while a
                     queue node still points at it: unlink defensively. *)
                  (match Container.queue_of_page container page with
                  | q -> Page_queue.remove q page
                  | exception Not_found -> ());
                  free_page page;
                  true
              | None -> false)))

(* The one seizure loop: take frames from [c] one at a time while fewer
   than [limit] are taken, the pool holds fewer than [until_free] frames
   and, with [floor], [c] holds more than its minimum, until
   {!seize_one} finds nothing left.  Returns how many it took. *)
let seize t c ~flush_dirty ~floor ~limit ~until_free =
  let tbl = Kernel.frame_table t.kernel in
  let rec take n =
    if
      n < limit
      && Frame.Table.free_count tbl < until_free
      && ((not floor) || Container.frames_held c > Container.min_frames c)
      && seize_one t c ~flush_dirty
    then take (n + 1)
    else n
  in
  take 0

(* ------------------------------------------------------------------ *)
(* Fuel ledger (per-tenant windowed command budget)                    *)
(* ------------------------------------------------------------------ *)

let fuel_enabled t = t.fuel_quota > 0

(* Over-quota: bypass the tenant's policy for a cooldown.  The cooldown
   doubles on every rapid re-offence (hysteresis, capped at 16x) and the
   level decays one notch per clean window.  The tenant keeps its frames
   and its admission — unlike demotion this is temporary.  We top its
   list back up to [min_frames] first so the isolation invariant (a
   throttled tenant still owns its guaranteed floor) holds even if its
   policy had voluntarily released below the minimum. *)
let enter_throttle t container =
  let now = Kernel.now t.kernel in
  let level = Container.cooldown_level container in
  let cooldown = T.mul fuel_cooldown (1 lsl min 4 level) in
  let deficit = Container.min_frames container - Container.frames_held container in
  if deficit > 0 then ignore (grant_frames t container deficit);
  if Container.frames_held container >= Container.min_frames container then begin
    Container.set_cooldown_level container (level + 1);
    Container.set_throttled container ~since:now ~until:(T.add now cooldown);
    t.stats.throttles_entered <- t.stats.throttles_entered + 1;
    Log.info (fun m ->
        m "throttling %a: %d commands in window (quota %d), cooldown %a"
          Container.pp container (Container.fuel_used container) t.fuel_quota T.pp
          cooldown);
    Tr.throttle ~container:(Container.id container) ~entered:true
      ~fuel:(Container.fuel_used container)
  end
  (* could not restore the floor: leave the tenant active and retry on
     the next charge rather than enter an invariant-violating throttle *)

let exit_throttle t container =
  Container.clear_throttled container;
  Container.reset_fuel_window container ~at:(Kernel.now t.kernel);
  t.stats.throttles_exited <- t.stats.throttles_exited + 1;
  Tr.throttle ~container:(Container.id container) ~entered:false ~fuel:0

(* A throttle recovers by elapsed simulated time, checked wherever the
   manager is about to act on the container. *)
let maybe_recover t container =
  match Container.throttled_until container with
  | Some until when T.( >= ) (Kernel.now t.kernel) until -> exit_throttle t container
  | Some _ | None -> ()

let charge_fuel t container ~delta =
  if fuel_enabled t && not (Container.degraded container) then begin
    let now = Kernel.now t.kernel in
    if T.( >= ) now (T.add (Container.fuel_window_start container) fuel_window)
    then begin
      (* window rotation; a clean window (under half quota) decays the
         cooldown hysteresis *)
      if Container.fuel_used container * 2 < t.fuel_quota then
        Container.set_cooldown_level container (Container.cooldown_level container - 1);
      Container.reset_fuel_window container ~at:now
    end;
    Container.burn_fuel container delta;
    (* direct: Policy_run carries no backend, and is also emitted for
       runs no fuel is charged for *)
    if Mx.on () && delta > 0 then
      Mx.add
        ("hipec.fuel." ^ Executor.backend_name (Executor.backend (executor t))
       ^ ".commands")
        delta;
    if (not (Container.throttled container))
       && Container.fuel_used container > t.fuel_quota
    then enter_throttle t container
  end

(* Take the container off the FAFR ledger.  Demotion and removal both
   retire a container first, before any of its frames move. *)
let retire t container =
  Container.set_admitted container false;
  let kept = Queue.create () in
  Queue.iter (fun c -> if c != container then Queue.add c kept) t.ledger;
  Queue.clear t.ledger;
  Queue.transfer kept t.ledger

(* Policy fallback (graceful degradation): strip the container of its
   private lists and hand the region back to the kernel's default
   pageout policy.  Resident pages migrate onto the central queues;
   unbound slots return to the machine free pool.  The specific
   application keeps running — only its policy dies. *)
let demote t container ~reason =
  if not (Container.degraded container) then begin
    Log.warn (fun m -> m "demoting %a: %s" Container.pp container reason);
    if Container.admitted container then retire t container;
    let tbl = Kernel.frame_table t.kernel in
    let daemon = Kernel.pageout t.kernel in
    let held = Container.frames_held container in
    let freed = ref 0 and migrated = ref 0 in
    let release_slot page =
      Vm_page.release_frame tbl page;
      incr freed
    in
    let hand_to_daemon page =
      Pageout.note_new_resident daemon page;
      incr migrated
    in
    let drain q =
      let rec loop () =
        match Page_queue.dequeue_head q with
        | None -> ()
        | Some page ->
            if Vm_page.is_bound page then hand_to_daemon page else release_slot page;
            loop ()
      in
      loop ()
    in
    drain (Container.free_queue container);
    drain (Container.inactive_queue container);
    drain (Container.active_queue container);
    (* resident pages parked off-queue (e.g. in a page register) *)
    Vm_object.iter_resident
      (fun ~offset:_ page ->
        if Vm_page.on_queue page = None && not (Vm_page.wired page) then
          hand_to_daemon page)
      (Container.obj container);
    (* unbound slots parked in page-register operands.  A register is
       only a weak reference: it may still name a slot whose frame the
       policy released (or the drains above freed), and that frame may
       since have been granted to another page, so a slot is released
       only while it still holds its frame. *)
    let ops = Container.operands container in
    for ix = 0 to Operand.size - 1 do
      match Operand.get ops ix with
      | Some (Operand.Page { contents = Some page })
        when (not (Vm_page.is_bound page))
             && Vm_page.on_queue page = None
             && Vm_page.holds_frame page ->
          release_slot page
      | _ -> ()
    done;
    let accounted = !freed + !migrated in
    if accounted <> held then
      Log.warn (fun m ->
          m "demotion of %a: %d frames accounted (%d freed + %d migrated) vs %d held"
            Container.pp container accounted !freed !migrated held);
    (* every container frame left specific accounting, one way or the
       other: freed slots went back to the pool, migrated pages now
       belong to the default pool *)
    Container.remove_frames container held;
    t.specific_total <- t.specific_total - held;
    Kernel.clear_manager t.kernel (Container.obj container);
    Container.stop_execution container;
    Container.set_degraded container ~reason ~at:(Kernel.now t.kernel);
    Option.iter (fun e -> Executor.forget e container) t.executor;
    t.stats.demotions <- t.stats.demotions + 1;
    Tr.demote ~container:(Container.id container) ~reason;
    note_gauges t container
  end

(* Run a policy event with the manager's services, metering its fuel
   and tracing it when either is on.  A runtime error demotes the
   container; the outcome is returned either way. *)
let run_event t container ~event =
  let traced = Tr.takes Hipec_trace.Event.Cat.policy in
  let outcome =
    if not (fuel_enabled t || traced) then Executor.run (executor t) container ~event
    else begin
      let before = Container.commands_interpreted container in
      let outcome = Executor.run (executor t) container ~event in
      let delta = Container.commands_interpreted container - before in
      (* Policy_run lands at the instant the executor's sim-time charge
         closes: Span attributes the interval ending here as [Policy] *)
      if traced then
        Tr.policy_run ~container:(Container.id container) ~event
          ~outcome:
            (match outcome with
            | Executor.Returned _ -> Hipec_trace.Event.Returned
            | Executor.Runtime_error _ -> Hipec_trace.Event.Policy_error
            | Executor.Timed_out -> Hipec_trace.Event.Policy_timeout)
          ~commands:delta;
      charge_fuel t container ~delta;
      outcome
    end
  in
  (match outcome with
  | Executor.Runtime_error msg ->
      (* bad policy: the region falls back to the default pageout
         policy; the specific application keeps running *)
      demote t container ~reason:("HiPEC policy error: " ^ msg)
  | Executor.Returned _ | Executor.Timed_out -> ());
  outcome

let remove_container t container ~flush_dirty =
  if Container.admitted container then begin
    retire t container;
    ignore (seize t container ~flush_dirty ~floor:false ~limit:max_int ~until_free:max_int);
    Option.iter (fun e -> Executor.forget e container) t.executor;
    Kernel.clear_manager t.kernel (Container.obj container)
  end

(* ------------------------------------------------------------------ *)
(* Reclamation                                                         *)
(* ------------------------------------------------------------------ *)

let excluded exclude c = match exclude with Some e -> e == c | None -> false

(* Normal reclamation: FAFR walk, only containers above their minimum,
   driving each victim's ReclaimFrame event (paper: the specific
   application decides which pages are least important).  The victims
   are chosen before the first policy runs. *)
let reclaim_from_specific t ~need ~exclude =
  let tbl = Kernel.frame_table t.kernel in
  let start_free = Frame.Table.free_count tbl in
  let victims =
    snapshot t (fun c ->
        (not (excluded exclude c))
        && Container.frames_held c > Container.min_frames c
        && Task.alive (Container.task c)
        (* never re-enter a policy that is executing right now *)
        && not (Container.executing c))
  in
  let rec walk = function
    | [] -> ()
    | c :: rest ->
        let freed = Frame.Table.free_count tbl - start_free in
        if freed < need then begin
          maybe_recover t c;
          let overage = Container.frames_held c - Container.min_frames c in
          let want = min overage (need - freed) in
          if Container.throttled c then
            (* never run a throttled tenant's policy: the manager seizes
               directly, free slots first, never below the minimum *)
            ignore (seize t c ~flush_dirty:true ~floor:true ~limit:want ~until_free:max_int)
          else begin
            (match Operand.write_int (Container.operands c) Operand.Std.reclaim_target
                     want
             with
            | Ok () -> ()
            | Error _ -> ());
            t.stats.reclaim_events <- t.stats.reclaim_events + 1;
            ignore (run_event t c ~event:Events.reclaim_frame)
          end;
          walk rest
        end
  in
  walk victims;
  max 0 (Frame.Table.free_count tbl - start_free)

(* Seize frames FAFR until [need] are free.  A throttled tenant cannot
   defend itself by policy, so forced seizure respects its guaranteed
   floor.  Seizure runs no policy, so the walk needs no snapshot. *)
let forced_reclaim t ~need ~exclude =
  let tbl = Kernel.frame_table t.kernel in
  let start_free = Frame.Table.free_count tbl in
  Queue.iter
    (fun c ->
      if not (excluded exclude c) then
        ignore
          (seize t c ~flush_dirty:true ~floor:(Container.throttled c) ~limit:max_int
             ~until_free:(start_free + need)))
    t.ledger;
  max 0 (Frame.Table.free_count tbl - start_free)

(* Ensure the machine free pool holds at least [need] frames above the
   daemon reserve, stealing from the default pool and then from specific
   applications.  Returns true on success. *)
let ensure_free t ~need ~exclude =
  let tbl = Kernel.frame_table t.kernel in
  let reserve = Pageout.reserved (Kernel.pageout t.kernel) in
  let enough () = Frame.Table.free_count tbl >= need + reserve in
  if enough () then true
  else begin
    (* steal clean pages from the default pool *)
    let ctx = Kernel.pageout_ctx t.kernel in
    let rec default_pool_loop () =
      if (not (enough ())) && Pageout.reclaim_one (Kernel.pageout t.kernel) ctx then
        default_pool_loop ()
    in
    default_pool_loop ();
    if enough () then true
    else begin
      ignore (reclaim_from_specific t ~need:(need + reserve - Frame.Table.free_count tbl) ~exclude);
      if enough () then true
      else begin
        ignore (forced_reclaim t ~need:(need + reserve - Frame.Table.free_count tbl) ~exclude);
        enough ()
      end
    end
  end

(* Future work #1 of the paper: direct frame migration between relevant
   specific applications.  Frames move list-to-list; the global
   specific_total is unchanged. *)
let migrate (_ : t) ~src ~dst ~n =
  if Container.id src = Container.id dst then
    invalid_arg "Frame_manager.migrate: src and dst are the same container";
  if not (Container.admitted src && Container.admitted dst) then
    invalid_arg "Frame_manager.migrate: container not admitted";
  let rec move k =
    if k = 0 then n
    else
      match Page_queue.dequeue_head (Container.free_queue src) with
      | None -> n - k
      | Some slot ->
          assert (not (Vm_page.is_bound slot));
          Page_queue.enqueue_tail (Container.free_queue dst) slot;
          move (k - 1)
  in
  let moved = move (max 0 n) in
  Container.remove_frames src moved;
  Container.add_frames dst moved;
  moved

let balance ?exclude t =
  if t.specific_total > t.partition_burst then begin
    let overage = t.specific_total - t.partition_burst in
    ignore (reclaim_from_specific t ~need:overage ~exclude)
  end

(* ------------------------------------------------------------------ *)
(* Overload protection: emergency seizure, admission governor          *)
(* ------------------------------------------------------------------ *)

(* Emergency: the kernel directs seizure from the fattest tenants —
   bypassing (but tracing) their HiPEC policies — until the free pool is
   back above the daemon's watermarks.  Never below a tenant's minimum:
   the guaranteed floor survives even an Emergency. *)
let emergency_seize t ~level =
  let daemon = Kernel.pageout t.kernel in
  let target = Pageout.free_target daemon + Pageout.reserved daemon in
  let overage c = Container.frames_held c - Container.min_frames c in
  snapshot t (fun c -> overage c > 0 && not (Container.executing c))
  |> List.stable_sort (fun a b -> compare (overage b) (overage a))
  |> List.iter (fun c ->
         let taken =
           seize t c ~flush_dirty:true ~floor:true ~limit:max_int ~until_free:target
         in
         if taken > 0 then begin
           t.stats.emergency_seizures <- t.stats.emergency_seizures + 1;
           t.stats.emergency_frames <- t.stats.emergency_frames + taken;
           Log.warn (fun m ->
               m "emergency seizure: took %d frames from %a" taken Container.pp c);
           Tr.seize ~container:(Container.id c) ~frames:taken
             ~level:(Pressure.severity level)
         end)

(* Admission: at Critical pressure and above a new tenant is shed with a
   typed reason instead of carving up an already starved pool; below
   it, the tenant gets its [min_frames] or is refused for memory. *)
let admit t container =
  let level = pressure_level t in
  let admitted =
    if Pressure.severity level >= Pressure.severity Pressure.Critical then
      Error (Overloaded level)
    else begin
      let need = Container.min_frames container in
      Log.debug (fun m -> m "admission: %a wants %d frames" Container.pp container need);
      if not (ensure_free t ~need ~exclude:(Some container)) then
        Error
          (No_memory
             (Printf.sprintf "frame manager: cannot satisfy minFrame request of %d frames"
                need))
      else if
        (* the pool can still shrink between ensure_free and the
           allocation: a short grant rejects the admission, never crashes *)
        grant_frames t container need < need
      then
        Error
          (No_memory
             (Printf.sprintf
                "frame manager: free pool shrank under minFrame request of %d frames" need))
      else begin
        Queue.add container t.ledger;
        Container.set_admitted container true;
        balance t ~exclude:container;
        Ok ()
      end
    end
  in
  (match admitted with
  | Ok () -> ()
  | Error _ ->
      t.stats.admissions_rejected <- t.stats.admissions_rejected + 1;
      (* direct: no event marks an admission *)
      if Mx.on () then Mx.incr "hipec.manager.admissions.rejected");
  admitted

(* Wire the manager to the kernel's pressure controller (which must
   already be enabled): entering Emergency triggers kernel-directed
   seizure. *)
let attach_pressure t =
  match Kernel.pressure t.kernel with
  | None -> invalid_arg "Frame_manager.attach_pressure: kernel pressure not enabled"
  | Some p ->
      Pressure.subscribe p (fun ~prev ~next ->
          if
            Pressure.severity next >= Pressure.severity Pressure.Emergency
            && Pressure.severity prev < Pressure.severity Pressure.Emergency
          then emergency_seize t ~level:next)

(* Isolation invariants, the check {!watch} hands the auditor: the
   manager's specific accounting must agree with the sum of container
   balances, and a throttled tenant must still own its guaranteed floor
   (emergency seizure and forced reclaim both stop at [min_frames]).
   Violations name the offending container: the total's first, then each
   floor's in ledger order.  Both folds over the ledger allocate nothing
   while it is clean. *)
let audit_check t () =
  let held = fold_containers (fun held c -> held + Container.frames_held c) 0 t in
  let floors =
    fold_containers
      (fun floors c ->
        if Container.throttled c && Container.frames_held c < Container.min_frames c then
          ( "hipec-throttle-floor",
            Format.asprintf "%a holds %d < min %d while throttled" Container.pp c
              (Container.frames_held c) (Container.min_frames c) )
          :: floors
        else floors)
      [] t
  in
  (* [List.rev []] is [[]]: a clean check allocates nothing *)
  let floors = List.rev floors in
  if held <> t.specific_total then
    ( "hipec-specific-total",
      Printf.sprintf "specific_total=%d but containers hold %d" t.specific_total held )
    :: floors
  else floors

(* What the auditor watches of the manager: every ledger container's
   queues, FAFR, and the isolation invariants above. *)
let watch t auditor =
  Audit.watch auditor
    ~queues:(fun f -> Queue.iter (fun c -> Container.iter_queues c f) t.ledger)
    ~check:(audit_check t)

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)
(* ------------------------------------------------------------------ *)

(* Grant policy (paper: "depending on the number of the remaining free
   page frames and the status of the requester"): a requester already
   above its minimum is held to the partition_burst watermark — the
   manager first tries to reclaim the overage from other specific
   applications, then rejects. *)
let request t container n =
  if n <= 0 then true
  else if not (Task.alive (Container.task container)) then false
  else begin
    (* under pressure the effective burst watermark shrinks, clamping
       greedy tenants harder the hotter the machine runs *)
    let burst = burst_limit t in
    if t.specific_total + n > burst then
      ignore
        (reclaim_from_specific t
           ~need:(t.specific_total + n - burst)
           ~exclude:(Some container));
    let over_burst = t.specific_total + n > burst in
    let above_min = Container.frames_held container > Container.min_frames container in
    if over_burst && above_min then begin
      t.stats.requests_rejected <- t.stats.requests_rejected + 1;
      Log.info (fun m ->
          m "rejected request for %d frames from %a (over burst limit %d)" n
            Container.pp container burst);
      false
    end
    else if not (ensure_free t ~need:n ~exclude:(Some container)) then begin
      t.stats.requests_rejected <- t.stats.requests_rejected + 1;
      Log.info (fun m -> m "rejected request for %d frames from %a (no memory)" n Container.pp container);
      false
    end
    else begin
      let got = grant_frames t container n in
      if got < n then begin
        (* the pool shrank between ensure_free and the allocation *)
        t.stats.requests_rejected <- t.stats.requests_rejected + 1;
        Log.info (fun m ->
            m "rejected request for %d frames from %a (pool shrank under grant)" n
              Container.pp container);
        false
      end
      else begin
        t.stats.requests_granted <- t.stats.requests_granted + 1;
        true
      end
    end
  end

(* Kernel-run default policy over a throttled container's own lists: a
   free slot if any, else FIFO-second-chance over its inactive/active
   queues.  The tenant's fuel stays cold (no policy commands run) but
   its frames, queues and residency semantics are untouched, so the
   throttle lifts into exactly the state the policy left behind. *)
let default_policy_take t container =
  let engine = Kernel.engine t.kernel and costs = Kernel.costs t.kernel in
  let step () = Hipec_sim.Engine.advance engine costs.Costs.queue_op in
  match Page_queue.dequeue_head (Container.free_queue container) with
  | Some slot ->
      step ();
      Ok slot
  | None -> (
      let inactive = Container.inactive_queue container in
      let active = Container.active_queue container in
      let budget = 2 * (Page_queue.length inactive + Page_queue.length active) + 2 in
      let rec scan budget =
        if budget <= 0 then None
        else begin
          step ();
          match Page_queue.dequeue_head inactive with
          | None ->
              if Page_queue.is_empty active then None
              else begin
                (match Page_queue.dequeue_head active with
                | Some page ->
                    Vm_page.clear_referenced page;
                    Page_queue.enqueue_tail inactive page
                | None -> ());
                scan (budget - 1)
              end
          | Some page ->
              if Vm_page.referenced page then begin
                Vm_page.clear_referenced page;
                Page_queue.enqueue_tail active page;
                scan (budget - 1)
              end
              else begin
                let was_dirty = Vm_page.dirty page in
                (if was_dirty then
                   match flush_bound_page t page with Ok () | Error _ -> ());
                (match Vm_page.binding page with
                | Some (oid, offset) -> (
                    Tr.evict ~obj:oid ~offset ~dirty:was_dirty
                      ~source:Hipec_trace.Event.Daemon;
                    match Kernel.resolve_object t.kernel oid with
                    | obj -> Vm_object.disconnect obj page
                    | exception Not_found -> Vm_page.unbind page)
                | None -> ());
                Some page
              end
        end
      in
      match scan budget with
      | Some page -> Ok page
      | None -> (
          (* nothing reclaimable in the tenant's own lists: one frame
             from the pool keeps the fault progressing *)
          match grant_frames t container 1 with
          | 1 -> (
              match Page_queue.dequeue_head (Container.free_queue container) with
              | Some slot -> Ok slot
              | None -> Error "throttled default policy: grant vanished")
          | _ -> Error "throttled default policy: no reclaimable page and no memory"))

let page_fault t container ~fault_va =
  maybe_recover t container;
  if Container.throttled container then default_policy_take t container
  else
  let ops = Container.operands container in
  (match Operand.write_int ops Operand.Std.fault_va fault_va with
  | Ok () -> ()
  | Error _ -> ());
  match run_event t container ~event:Events.page_fault with
  | Executor.Returned (Some (Operand.Page { contents = Some page })) ->
      if Vm_page.is_bound page then
        Error "PageFault policy returned a page that is still bound"
      else if not (Vm_page.holds_frame page) then
        Error "PageFault policy returned a slot it had released"
      else begin
        (* the slot leaves the container's queues and becomes the fault's
           frame.  A slot the policy still keeps on a queue it declared
           itself is a policy error; it is unlinked first so that the
           demotion frees it from the page register. *)
        match Vm_page.on_queue page with
        | None -> Ok page
        | Some _ -> (
            match Container.queue_of_page container page with
            | exception Not_found ->
                Error "PageFault policy returned a page on an unknown queue"
            | q ->
                Page_queue.remove q page;
                if
                  q == Container.free_queue container
                  || q == Container.inactive_queue container
                  || q == Container.active_queue container
                then Ok page
                else
                  Error
                    (Printf.sprintf "PageFault policy returned a page still on its queue %s"
                       (Page_queue.name q)))
      end
  | Executor.Returned (Some (Operand.Page { contents = None })) ->
      Error "PageFault policy returned an empty page register"
  | Executor.Returned _ -> Error "PageFault policy did not return a page operand"
  | Executor.Timed_out -> Error "policy execution timed out"
  | Executor.Runtime_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Creation: wire the executor's services to this manager              *)
(* ------------------------------------------------------------------ *)

let create ~kernel ?(burst_fraction = 0.5) ?max_steps () =
  if burst_fraction < 0. || burst_fraction > 1. then
    invalid_arg "Frame_manager.create: burst_fraction outside [0,1]";
  let t =
    {
      kernel;
      executor = None;
      ledger = Queue.create ();
      partition_burst =
        int_of_float
          (burst_fraction *. float_of_int (Frame.Table.free_count (Kernel.frame_table kernel)));
      specific_total = 0;
      fuel_quota = 0;
      stats =
        {
          requests_granted = 0;
          requests_rejected = 0;
          frames_granted = 0;
          frames_reclaimed = 0;
          reclaim_events = 0;
          forced_seizures = 0;
          flush_writes = 0;
          demotions = 0;
          admissions_rejected = 0;
          throttles_entered = 0;
          throttles_exited = 0;
          emergency_seizures = 0;
          emergency_frames = 0;
        };
    }
  in
  let services =
    {
      Executor.request_frames = (fun c n -> request t c n);
      release_count = (fun c ~count -> take_free_slots t c count);
      release_page =
        (fun c page ->
          (* the slot may sit on any of the container's queues — free,
             inactive, active, or one the policy declared as a user
             operand — or be parked off-queue in a page register.  A
             register can be stale: a slot released before no longer
             holds its frame, which may belong to another page by now. *)
          let unlinked =
            if Vm_page.is_bound page then Error "page is still bound"
            else if not (Vm_page.holds_frame page) then Vm_page.releasable page
            else
              match Vm_page.on_queue page with
              | None -> Ok ()
              | Some _ -> (
                  match Container.queue_of_page c page with
                  | q -> Ok (Page_queue.remove q page)
                  | exception Not_found -> Error "page is on an unknown queue")
          in
          match unlinked with
          | Error msg -> Error ("Release: " ^ msg)
          | Ok () ->
              Vm_page.release_frame (Kernel.frame_table kernel) page;
              Container.remove_frames c 1;
              t.specific_total <- t.specific_total - 1;
              t.stats.frames_reclaimed <- t.stats.frames_reclaimed + 1;
              note_gauges t c;
              Ok ());
      flush_page = (fun _c page -> flush_bound_page t page);
      resolve_object = (fun oid -> Kernel.resolve_object kernel oid);
    }
  in
  t.executor <-
    Some
      (Executor.create ?max_steps ~engine:(Kernel.engine kernel)
         ~costs:(Kernel.costs kernel) ~services ());
  t
