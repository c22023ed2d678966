(* Regression tests for the frame manager's executor services and
   seizure path:

   - Release of a page slot sitting on the ACTIVE queue (or on a queue
     the policy declared as a user operand) used to raise
     [Invalid_argument "remove of absent page"] inside the service,
     demoting a perfectly legal policy.  The service must unlink the
     slot from whichever container queue holds it and free the frame.

   - admit/request used to [assert] that the frame grant was complete;
     a short allocation (the pool shrinking under the pageout reserve)
     crashed the simulation.  Both must reject gracefully instead,
     counted in [requests_rejected].

   - seize_one's off-queue scan ignored pages still linked on a
     user-declared queue, freeing their frames while the queue node
     still pointed at them — corrupting the queue.  Forced reclamation
     must unlink before freeing; the auditor's sweep stays clean.

   - A PageFault program returning a slot it still kept on a
     user-declared queue raised [Invalid_argument] out of the access
     path.  The policy must be demoted cleanly instead.

   - A page register still naming a slot the policy had released is a
     stale reference: the frame went back to the pool and may since
     back another tenant's page.  Demotion's register scan used to free
     that frame a second time, and a second [Release] of the register
     freed it silently; past ~1.4k storm tenants this showed up as
     frame aliasing and then as an uncaught "already free".  Demotion
     must skip the stale slot, the second [Release] must fail and
     demote the policy, and so must a PageFault handler returning the
     slot it released. *)

open Hipec_core
open Hipec_vm
module Frame = Hipec_machine.Frame
module Std = Operand.Std
open Program.Asm

let x_slot = Std.first_user
let r_slot = Std.first_user + 1
let uq_slot = Std.first_user + 2
let probe_event = 2

type harness = {
  kernel : Kernel.t;
  sys : Api.t;
  container : Container.t;
  x : int ref;
  user_q : Page_queue.t;
}

let asm items =
  match Program.Asm.assemble items with Ok code -> code | Error e -> failwith e

(* A system whose policy has the standard PageFault/ReclaimFrame pair
   plus the probe event under test, and a user-declared queue. *)
let make ?(x = 0) ?(r = 1) ?(min_frames = 8) ?(total_frames = 256) probe_code =
  let rx = ref x and rr = ref r in
  let user_q = Page_queue.create "user-q" in
  let program =
    Program.make
      [
        ( Events.page_fault,
          asm
            [
              Op (Instr.Emptyq Std.free_queue);
              Jump_to "take";
              Op (Instr.Fifo Std.active_queue);
              Jump_to "take";
              Label "take";
              Op (Instr.Dequeue (Std.page_reg, Std.free_queue, Opcode.Queue_end.Head));
              Op (Instr.Return Std.page_reg);
            ] );
        (Events.reclaim_frame, [| Instr.Return Std.null |]);
        (probe_event, probe_code);
      ]
  in
  let config = { Kernel.default_config with Kernel.total_frames; hipec_kernel = true } in
  let kernel = Kernel.create ~config () in
  let sys = Api.init ~start_checker:false kernel in
  let task = Kernel.create_task kernel () in
  let spec =
    {
      (Api.default_spec ~policy:program ~min_frames) with
      Api.extra_operands =
        [
          (x_slot, Operand.Int rx);
          (r_slot, Operand.Int rr);
          (uq_slot, Operand.Queue user_q);
        ];
    }
  in
  match Api.vm_allocate_hipec sys task ~npages:32 spec with
  | Error e -> failwith ("harness: " ^ e)
  | Ok (_region, container) -> { kernel; sys; container; x = rx; user_q }

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let run h = Frame_manager.run_event (Api.manager h.sys) h.container ~event:probe_event

let fill_active h n =
  let region = Container.region h.container in
  for i = 0 to n - 1 do
    Kernel.access_vpn h.kernel (Container.task h.container)
      ~vpn:(region.Vm_map.start_vpn + i) ~write:false
  done

(* ------------------------------------------------------------------ *)
(* Release of a slot on any container queue                            *)
(* ------------------------------------------------------------------ *)

(* park a free slot on [dst], then Release it through the service *)
let release_probe dst =
  asm
    [
      Op (Instr.Dequeue (Std.page_reg, Std.free_queue, Opcode.Queue_end.Head));
      Op (Instr.Enqueue (Std.page_reg, dst, Opcode.Queue_end.Tail));
      Op (Instr.Release Std.page_reg);
      Jump_to "failed";
      Op (Instr.Return Std.null);
      Label "failed";
      Op (Instr.Return Std.page_reg);
    ]

let check_release_on dst queue_of () =
  let h = make (release_probe dst) in
  let before = Container.frames_held h.container in
  (match run h with
  | Executor.Returned _ -> ()
  | Executor.Runtime_error e -> Alcotest.fail ("service raised: " ^ e)
  | Executor.Timed_out -> Alcotest.fail "timed out");
  Alcotest.(check bool) "policy not demoted" false (Container.degraded h.container);
  Alcotest.(check int) "one frame released" (before - 1)
    (Container.frames_held h.container);
  let q = queue_of h in
  Alcotest.(check int)
    (Printf.sprintf "queue %s empty again" (Page_queue.name q))
    0 (Page_queue.length q);
  Alcotest.(check bool) "queue invariants" true (Page_queue.check_invariants q);
  Alcotest.(check bool) "frames conserved" true
    (Frame.Table.check_conservation (Kernel.frame_table h.kernel))

let test_release_on_inactive =
  check_release_on Std.inactive_queue (fun h -> Container.inactive_queue h.container)

let test_release_on_active =
  check_release_on Std.active_queue (fun h -> Container.active_queue h.container)

let test_release_on_user_queue = check_release_on uq_slot (fun h -> h.user_q)

(* take a free slot into the page register and Release it from there *)
let release_probe_off_queue =
  asm
    [
      Op (Instr.Dequeue (Std.page_reg, Std.free_queue, Opcode.Queue_end.Head));
      Op (Instr.Release Std.page_reg);
      Jump_to "failed";
      Op (Instr.Return Std.null);
      Label "failed";
      Op (Instr.Return Std.page_reg);
    ]

let test_release_off_queue () =
  (* a slot parked only in the page register: nothing to unlink *)
  let h = make release_probe_off_queue in
  let before = Container.frames_held h.container in
  (match run h with
  | Executor.Returned _ -> ()
  | Executor.Runtime_error e -> Alcotest.fail ("service raised: " ^ e)
  | Executor.Timed_out -> Alcotest.fail "timed out");
  Alcotest.(check bool) "policy not demoted" false (Container.degraded h.container);
  Alcotest.(check int) "one frame released" (before - 1)
    (Container.frames_held h.container)

(* ------------------------------------------------------------------ *)
(* PageFault returning a slot parked on a user-declared queue          *)
(* ------------------------------------------------------------------ *)

(* The fault path used to unlink the returned slot only from the free,
   inactive and active queues, so a slot left on a user-declared queue
   reached the kernel's active-queue enqueue and raised
   [Invalid_argument] out of [Kernel.touch_region].  Returning a slot
   the policy still keeps on its own queue is a policy error: the
   policy is demoted, the slot freed, and the faults served by the
   default policy. *)
let test_fault_returns_slot_on_user_queue () =
  let user_q = Page_queue.create "user" in
  let program =
    Program.make
      [
        ( Events.page_fault,
          asm
            [
              Op (Instr.Dequeue (Std.page_reg, Std.free_queue, Opcode.Queue_end.Head));
              Op (Instr.Enqueue (Std.page_reg, x_slot, Opcode.Queue_end.Tail));
              Op (Instr.Return Std.page_reg);
            ] );
        (Events.reclaim_frame, [| Instr.Return Std.null |]);
      ]
  in
  let config = { Kernel.default_config with Kernel.total_frames = 256; hipec_kernel = true } in
  let kernel = Kernel.create ~config () in
  let sys = Api.init ~start_checker:false kernel in
  let task = Kernel.create_task kernel () in
  let spec =
    {
      (Api.default_spec ~policy:program ~min_frames:32) with
      Api.extra_operands = [ (x_slot, Operand.Queue user_q) ];
    }
  in
  match Api.vm_allocate_hipec sys task ~npages:8 spec with
  | Error e -> Alcotest.fail ("setup: " ^ e)
  | Ok (region, container) ->
      (match Kernel.touch_region kernel task region ~write:false with
      | () -> ()
      | exception Invalid_argument e -> Alcotest.fail ("fault path raised: " ^ e));
      Alcotest.(check bool) "task alive" true (Task.alive task);
      Alcotest.(check bool) "policy demoted" true (Container.degraded container);
      Alcotest.(check (option string)) "demotion reason"
        (Some "HiPEC policy error: PageFault policy returned a page still on its queue user")
        (Container.degraded_reason container);
      Alcotest.(check int) "no frames left in specific accounting" 0
        (Container.frames_held container);
      Alcotest.(check int) "user queue emptied" 0 (Page_queue.length user_q);
      Alcotest.(check bool) "user queue invariants" true (Page_queue.check_invariants user_q);
      Alcotest.(check (list (pair string string))) "audit checks clean" []
        (Frame_manager.audit_check (Api.manager sys) ());
      Alcotest.(check bool) "frames conserved" true
        (Frame.Table.check_conservation (Kernel.frame_table kernel))

(* ------------------------------------------------------------------ *)
(* A stale page register after Release                                 *)
(* ------------------------------------------------------------------ *)

let release_again_event = probe_event + 1

(* Two tenants on one machine.  Tenant [a] releases a free slot but
   keeps it in its page register; the freed frame, at the head of the
   pool, is then granted to tenant [b].  Returns the machine, both
   tenants and [b]'s page now holding that frame. *)
let stale_register () =
  let program =
    Program.make
      [
        (Events.page_fault, [| Instr.Return Std.null |]);
        (Events.reclaim_frame, [| Instr.Return Std.null |]);
        (probe_event, release_probe_off_queue);
        ( release_again_event,
          asm
            [
              Op (Instr.Release Std.page_reg);
              Jump_to "failed";
              Op (Instr.Return Std.null);
              Label "failed";
              Op (Instr.Return Std.null);
            ] );
      ]
  in
  let config = { Kernel.default_config with Kernel.total_frames = 256; hipec_kernel = true } in
  let kernel = Kernel.create ~config () in
  let sys = Api.init ~start_checker:false kernel in
  let admit policy =
    let task = Kernel.create_task kernel () in
    match Api.vm_allocate_hipec sys task ~npages:16 (Api.default_spec ~policy ~min_frames:8) with
    | Error e -> Alcotest.fail ("setup: " ^ e)
    | Ok (_, container) -> container
  in
  let a = admit program and b = admit (Policies.fifo ()) in
  let manager = Api.manager sys in
  (match Frame_manager.run_event manager a ~event:probe_event with
  | Executor.Returned _ -> ()
  | _ -> Alcotest.fail "release probe failed");
  let stale =
    match Operand.get (Container.operands a) Std.page_reg with
    | Some (Operand.Page { contents = Some page }) -> page
    | _ -> Alcotest.fail "page register empty after Release"
  in
  Alcotest.(check bool) "released slot no longer holds its frame" false
    (Vm_page.holds_frame stale);
  Alcotest.(check bool) "request granted" true (Frame_manager.request manager b 1);
  let heir =
    match
      List.find_opt
        (fun page -> Vm_page.frame page == Vm_page.frame stale)
        (Page_queue.to_list (Container.free_queue b))
    with
    | Some page -> page
    | None -> Alcotest.fail "the released frame did not go to the other tenant"
  in
  (kernel, sys, a, b, heir)

let check_heir_intact kernel sys heir =
  Alcotest.(check bool) "other tenant's frame still allocated" false
    (Frame.is_free (Vm_page.frame heir));
  Alcotest.(check bool) "other tenant's page still holds it" true (Vm_page.holds_frame heir);
  let auditor = Audit.create kernel in
  Frame_manager.watch (Api.manager sys) auditor;
  Alcotest.(check (list string)) "audit sweep clean" []
    (List.map (fun v -> v.Audit.check) (Audit.sweep auditor));
  Alcotest.(check (list (pair string string))) "isolation checks clean" []
    (Frame_manager.audit_check (Api.manager sys) ());
  Alcotest.(check bool) "frames conserved" true
    (Frame.Table.check_conservation (Kernel.frame_table kernel))

let test_demote_skips_stale_register () =
  let kernel, sys, a, _, heir = stale_register () in
  Frame_manager.demote (Api.manager sys) a ~reason:"test";
  Alcotest.(check bool) "policy demoted" true (Container.degraded a);
  check_heir_intact kernel sys heir

let test_release_stale_register_fails () =
  let kernel, sys, a, _, heir = stale_register () in
  (match Frame_manager.run_event (Api.manager sys) a ~event:release_again_event with
  | Executor.Runtime_error e ->
      Alcotest.(check bool) ("error names the frame: " ^ e) true
        (contains ~sub:(Printf.sprintf "frame %d " (Frame.index (Vm_page.frame heir))) e)
  | Executor.Returned _ -> Alcotest.fail "second Release of a stale register succeeded"
  | Executor.Timed_out -> Alcotest.fail "timed out"
  | exception Invalid_argument e -> Alcotest.fail ("Release raised: " ^ e));
  Alcotest.(check bool) "policy demoted" true (Container.degraded a);
  check_heir_intact kernel sys heir

(* A PageFault handler that releases its slot and then returns it would
   hand the kernel a page whose frame is back in the pool.  The fault
   path refuses it: the policy is demoted and the fault served by the
   default policy. *)
let test_fault_returns_released_slot () =
  let program =
    Program.make
      [
        ( Events.page_fault,
          asm
            [
              Op (Instr.Dequeue (Std.page_reg, Std.free_queue, Opcode.Queue_end.Head));
              Op (Instr.Release Std.page_reg);
              Jump_to "return";
              Label "return";
              Op (Instr.Return Std.page_reg);
            ] );
        (Events.reclaim_frame, [| Instr.Return Std.null |]);
      ]
  in
  let config = { Kernel.default_config with Kernel.total_frames = 256; hipec_kernel = true } in
  let kernel = Kernel.create ~config () in
  let sys = Api.init ~start_checker:false kernel in
  let task = Kernel.create_task kernel () in
  match Api.vm_allocate_hipec sys task ~npages:8 (Api.default_spec ~policy:program ~min_frames:8) with
  | Error e -> Alcotest.fail ("setup: " ^ e)
  | Ok (region, container) ->
      Kernel.touch_region kernel task region ~write:true;
      Alcotest.(check bool) "task alive" true (Task.alive task);
      Alcotest.(check (option string)) "demotion reason"
        (Some "HiPEC policy error: PageFault policy returned a slot it had released")
        (Container.degraded_reason container);
      let auditor = Audit.create kernel in
      Alcotest.(check (list string)) "audit sweep clean" []
        (List.map (fun v -> v.Audit.check) (Audit.sweep auditor));
      Alcotest.(check bool) "frames conserved" true
        (Frame.Table.check_conservation (Kernel.frame_table kernel))

(* ------------------------------------------------------------------ *)
(* Graceful rejection when the pool cannot cover a grant               *)
(* ------------------------------------------------------------------ *)

let test_alloc_many_returns_partial () =
  (* the trigger: alloc_many is not all-or-nothing, so grant callers
     must never assume a full grant *)
  let tbl = Frame.Table.create ~total:4 in
  let frames = Frame.Table.alloc_many tbl 8 in
  Alcotest.(check int) "short allocation" 4 (List.length frames);
  List.iter (Frame.Table.free tbl) frames;
  Alcotest.(check bool) "conserved" true (Frame.Table.check_conservation tbl)

let test_admit_beyond_memory_rejects () =
  let config =
    { Kernel.default_config with Kernel.total_frames = 64; hipec_kernel = true }
  in
  let kernel = Kernel.create ~config () in
  let sys = Api.init ~start_checker:false kernel in
  let task = Kernel.create_task kernel () in
  let spec = Api.default_spec ~policy:(Policies.fifo ()) ~min_frames:1000 in
  (match Api.vm_allocate_hipec sys task ~npages:8 spec with
  | Ok _ -> Alcotest.fail "admission beyond physical memory must fail"
  | Error _ -> ());
  Alcotest.(check bool) "task survives" true (Task.alive task);
  Alcotest.(check bool) "frames conserved" true
    (Frame.Table.check_conservation (Kernel.frame_table kernel))

let test_request_under_pressure_rejects () =
  let h =
    make ~total_frames:64
      (asm
         [
           (* 255 is the largest encodable request — far over a
              64-frame machine *)
           Op (Instr.Request 255);
           Jump_to "rejected";
           Op (Instr.Return Std.null);
           Label "rejected";
           Op (Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Inc));
           Op (Instr.Return Std.null);
         ])
  in
  let manager = Api.manager h.sys in
  let rejected_before = (Frame_manager.stats manager).Frame_manager.requests_rejected in
  let held_before = Container.frames_held h.container in
  (match run h with
  | Executor.Returned _ -> ()
  | Executor.Runtime_error e -> Alcotest.fail ("request crashed the policy: " ^ e)
  | Executor.Timed_out -> Alcotest.fail "timed out");
  Alcotest.(check int) "rejected arm ran" 1 !(h.x);
  Alcotest.(check int) "rejection counted" (rejected_before + 1)
    (Frame_manager.stats manager).Frame_manager.requests_rejected;
  Alcotest.(check int) "no frames granted" held_before
    (Container.frames_held h.container);
  Alcotest.(check bool) "policy not demoted" false (Container.degraded h.container);
  Alcotest.(check bool) "frames conserved" true
    (Frame.Table.check_conservation (Kernel.frame_table h.kernel))

(* ------------------------------------------------------------------ *)
(* Forced seizure of pages parked on a user-declared queue             *)
(* ------------------------------------------------------------------ *)

let test_forced_seize_unlinks_user_queue () =
  (* the probe migrates one resident page from active to the user
     queue, where the standard drain in seize_one cannot see it *)
  let h =
    make
      (asm
         [
           Op (Instr.Emptyq Std.active_queue);
           Jump_to "go";
           Jump_to "end";
           Label "go";
           Op (Instr.Dequeue (Std.page_reg, Std.active_queue, Opcode.Queue_end.Head));
           Op (Instr.Enqueue (Std.page_reg, uq_slot, Opcode.Queue_end.Tail));
           Label "end";
           Op (Instr.Return Std.null);
         ])
  in
  fill_active h 3;
  (match run h with
  | Executor.Returned _ -> ()
  | _ -> Alcotest.fail "probe failed");
  (match run h with
  | Executor.Returned _ -> ()
  | _ -> Alcotest.fail "probe failed");
  Alcotest.(check int) "two pages parked on the user queue" 2
    (Page_queue.length h.user_q);
  let manager = Api.manager h.sys in
  let held = Container.frames_held h.container in
  let got = Frame_manager.forced_reclaim manager ~need:held ~exclude:None in
  Alcotest.(check int) "every frame seized" held got;
  Alcotest.(check int) "container stripped" 0 (Container.frames_held h.container);
  (* no queue node may point at a freed frame *)
  Alcotest.(check int) "user queue unlinked" 0 (Page_queue.length h.user_q);
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Page_queue.name q ^ " invariants")
        true (Page_queue.check_invariants q))
    [
      h.user_q;
      Container.free_queue h.container;
      Container.inactive_queue h.container;
      Container.active_queue h.container;
    ];
  Alcotest.(check bool) "frames conserved" true
    (Frame.Table.check_conservation (Kernel.frame_table h.kernel));
  let auditor = Audit.create h.kernel in
  Frame_manager.watch manager auditor;
  Alcotest.(check (list string)) "audit sweep clean" []
    (List.map (fun v -> v.Audit.check) (Audit.sweep auditor))

(* ------------------------------------------------------------------ *)
(* The container's queues                                              *)
(* ------------------------------------------------------------------ *)

(* One auditor call wires every queue of every admitted container,
   including a queue the policy declared as a user operand: a slot on
   it whose frame went back to the pool behind the manager's back is
   reported.  Registering the three standard queues per container by
   hand never saw it. *)
let test_watch_sees_user_queue () =
  let h =
    make
      (asm
         [
           Op (Instr.Dequeue (Std.page_reg, Std.free_queue, Opcode.Queue_end.Head));
           Op (Instr.Enqueue (Std.page_reg, uq_slot, Opcode.Queue_end.Tail));
           Op (Instr.Return Std.null);
         ])
  in
  (match run h with
  | Executor.Returned _ -> ()
  | _ -> Alcotest.fail "probe failed");
  let slot = Option.get (Page_queue.peek_head h.user_q) in
  let auditor = Audit.create h.kernel in
  Frame_manager.watch (Api.manager h.sys) auditor;
  Alcotest.(check (list string)) "clean before the plant" []
    (List.map (fun v -> v.Audit.check) (Audit.sweep auditor));
  Frame.Table.free (Kernel.frame_table h.kernel) (Vm_page.frame slot);
  Alcotest.(check (list string)) "the user queue's member reported"
    [
      Printf.sprintf
        "free-frame-on-queue: queue user-q holds a page whose frame %d is in the free pool"
        (Frame.index (Vm_page.frame slot));
    ]
    (List.map (Format.asprintf "%a" Audit.pp_violation) (Audit.sweep auditor))

(* [queue_of_page] finds a standard member and a user-queue member
   without allocating, and [iter_queues] visits the standard queues,
   then the user slots ascending, skipping one that aliases a standard
   queue. *)
let test_container_queues () =
  let kernel =
    Kernel.create ~config:{ Kernel.default_config with Kernel.total_frames = 64 } ()
  in
  let task = Kernel.create_task kernel () in
  let region = Kernel.vm_allocate kernel task ~npages:8 in
  let operands = Operand.create () in
  let queues =
    Operand.install_std operands ~name:"c" ~free_target:4 ~inactive_target:8
      ~reserved_target:2
  in
  let lo = Page_queue.create "lo" and hi = Page_queue.create "hi" in
  List.iter
    (fun (ix, q) -> Operand.set operands ix (Operand.Queue q))
    [
      (Std.first_user + 7, hi);
      (Std.first_user + 2, lo);
      (Std.first_user + 4, queues.Operand.active);  (* aliases a standard queue *)
      (Std.scratch0, hi);  (* below the user range: not a container queue *)
    ];
  let c =
    Container.create ~task ~obj:region.Vm_map.obj ~region
      ~program:(Policies.fifo ()) ~operands ~queues ~min_frames:1 ()
  in
  let names = ref [] in
  Container.iter_queues c (fun q -> names := Page_queue.name q :: !names);
  Alcotest.(check (list string)) "standard queues, then user slots ascending"
    [ "c.free"; "c.active"; "c.inactive"; "lo"; "hi" ]
    (List.rev !names);
  let frames = Frame.Table.alloc_many (Kernel.frame_table kernel) 3 in
  let std_page, user_page, stray =
    match List.map (fun frame -> Vm_page.create ~frame) frames with
    | [ a; b; c ] -> (a, b, c)
    | _ -> Alcotest.fail "frames"
  in
  Page_queue.enqueue_tail queues.Operand.inactive std_page;
  Page_queue.enqueue_tail hi user_page;
  let overhead =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  let a = Gc.minor_words () in
  let std_found = Container.queue_of_page c std_page in
  let user_found = Container.queue_of_page c user_page in
  let b = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words" 0. (b -. a -. overhead);
  Alcotest.(check bool) "standard member" true (std_found == queues.Operand.inactive);
  Alcotest.(check bool) "user-queue member" true (user_found == hi);
  Alcotest.check_raises "off-queue" Not_found (fun () ->
      ignore (Container.queue_of_page c stray))

(* ------------------------------------------------------------------ *)
(* Overload protection: fuel throttling and admission shedding         *)
(* ------------------------------------------------------------------ *)

module T = Hipec_sim.Sim_time

let cheap_probe =
  asm [ Op (Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Inc)); Op (Instr.Return Std.null) ]

let test_fuel_throttle_round_trip () =
  let h = make cheap_probe in
  let manager = Api.manager h.sys in
  (* any run at all blows a one-command budget *)
  Frame_manager.set_fuel_quota manager 1;
  (match run h with
  | Executor.Returned _ -> ()
  | Executor.Runtime_error e -> Alcotest.fail ("probe raised: " ^ e)
  | Executor.Timed_out -> Alcotest.fail "timed out");
  Alcotest.(check bool) "container throttled" true (Container.throttled h.container);
  Alcotest.(check bool) "not demoted" false (Container.degraded h.container);
  Alcotest.(check int) "entry counted" 1
    (Frame_manager.stats manager).Frame_manager.throttles_entered;
  Alcotest.(check bool) "floor held while throttled" true
    (Container.frames_held h.container >= Container.min_frames h.container);
  Alcotest.(check (list (pair string string))) "audit checks clean" []
    (Frame_manager.audit_check manager ());
  (* throttled faults are served by the kernel's default policy *)
  fill_active h 1;
  Alcotest.(check bool) "still throttled mid-cooldown" true
    (Container.throttled h.container);
  (* past the cooldown the next manager touchpoint lifts the throttle;
     the touchpoint must be a real fault, so touch a fresh page — and
     the budget must be sane again or that very fault re-trips it *)
  Frame_manager.set_fuel_quota manager 1_000_000;
  Hipec_sim.Engine.advance (Kernel.engine h.kernel) Frame_manager.fuel_cooldown;
  let region = Container.region h.container in
  Kernel.access_vpn h.kernel (Container.task h.container)
    ~vpn:(region.Vm_map.start_vpn + 7) ~write:false;
  Alcotest.(check bool) "throttle lifted" false (Container.throttled h.container);
  Alcotest.(check int) "exit counted" 1
    (Frame_manager.stats manager).Frame_manager.throttles_exited;
  Alcotest.(check bool) "frames conserved" true
    (Frame.Table.check_conservation (Kernel.frame_table h.kernel))

let test_fuel_window_resets () =
  let h = make cheap_probe in
  let manager = Api.manager h.sys in
  (* a budget a handful of runs would blow inside one window: runs one
     window apart must never trip the throttle *)
  Frame_manager.set_fuel_quota manager 10;
  for _ = 1 to 50 do
    (match run h with
    | Executor.Returned _ -> ()
    | _ -> Alcotest.fail "probe failed");
    Hipec_sim.Engine.advance (Kernel.engine h.kernel) Frame_manager.fuel_window
  done;
  Alcotest.(check bool) "never throttled" false (Container.throttled h.container);
  Alcotest.(check int) "no entries" 0
    (Frame_manager.stats manager).Frame_manager.throttles_entered

(* a bare container the frame manager has not seen yet, for driving
   admission directly *)
let raw_container kernel ~min_frames =
  let task = Kernel.create_task kernel () in
  let region = Kernel.vm_allocate kernel task ~npages:32 in
  let operands = Operand.create () in
  let queues =
    Operand.install_std operands ~name:"raw" ~free_target:4 ~inactive_target:8
      ~reserved_target:2
  in
  Container.create ~task ~obj:region.Vm_map.obj ~region
    ~program:(Policies.fifo_second_chance ()) ~operands ~queues ~min_frames ()

let test_admission_shed () =
  let config =
    { Kernel.default_config with Kernel.total_frames = 256; hipec_kernel = true }
  in
  let kernel = Kernel.create ~config () in
  let sys = Api.init ~start_checker:false kernel in
  Api.enable_overload sys;
  let manager = Api.manager sys in
  (* wire all but a handful of frames: free sinks below the Critical
     watermark and, being wired, stays there *)
  let hog_task = Kernel.create_task kernel ~name:"hog" () in
  let hog = Kernel.vm_allocate kernel hog_task ~npages:251 in
  Kernel.wire_region kernel hog_task hog;
  Kernel.check_pressure kernel;
  Alcotest.(check bool) "pressure critical or worse" true
    (Pressure.severity (Frame_manager.pressure_level manager)
    >= Pressure.severity Pressure.Critical);
  let shed = raw_container kernel ~min_frames:8 in
  (match Frame_manager.admit manager shed with
  | Error (Frame_manager.Overloaded _) -> ()
  | Error (Frame_manager.No_memory e) -> Alcotest.fail ("wrong rejection: " ^ e)
  | Ok () -> Alcotest.fail "admitted under Critical pressure");
  Alcotest.(check int) "rejection counted" 1
    (Frame_manager.stats manager).Frame_manager.admissions_rejected;
  Alcotest.(check int) "no frames granted" 0 (Container.frames_held shed);
  Alcotest.(check bool) "not on the ledger" false (Container.admitted shed);
  Alcotest.(check (list (pair string string))) "audit checks clean" []
    (Frame_manager.audit_check manager ());
  Alcotest.(check bool) "frames conserved" true
    (Frame.Table.check_conservation (Kernel.frame_table kernel))

(* The isolation check folds over the ledger without copying it.
   Clean, it allocates nothing; with planted breaks it reports the
   total first, then each throttled tenant below its floor, in
   container order. *)
let test_audit_check_one_walk () =
  let h = make cheap_probe in
  let manager = Api.manager h.sys in
  List.iter
    (fun c ->
      match Frame_manager.admit manager c with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("admit: " ^ Frame_manager.admission_error_message e))
    (List.init 2 (fun _ -> raw_container h.kernel ~min_frames:4));
  let audit = Frame_manager.audit_check manager in
  Alcotest.(check (list (pair string string))) "clean" [] (audit ());
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    ignore (audit ())
  done;
  Alcotest.(check (float 0.)) "a clean walk allocates nothing" 0. (Gc.minor_words () -. w0);
  let total = Frame_manager.specific_total manager in
  let now = Kernel.now h.kernel in
  let all = Frame_manager.containers manager in
  Alcotest.(check int) "three containers" 3 (List.length all);
  List.iter
    (fun c ->
      Container.set_throttled c ~since:now ~until:now;
      Container.remove_frames c (Container.frames_held c))
    all;
  let floor c =
    ( "hipec-throttle-floor",
      Format.asprintf "%a holds 0 < min %d while throttled" Container.pp c
        (Container.min_frames c) )
  in
  Alcotest.(check (list (pair string string))) "total first, then floors in container order"
    (( "hipec-specific-total",
       Printf.sprintf "specific_total=%d but containers hold 0" total )
    :: List.map floor all)
    (audit ())

(* ------------------------------------------------------------------ *)
(* Victim order: normal reclamation and emergency seizure              *)
(* ------------------------------------------------------------------ *)

(* A frame manager on a 512-frame machine with no tenant yet. *)
let bare_manager () =
  let config =
    { Kernel.default_config with Kernel.total_frames = 512; hipec_kernel = true }
  in
  let kernel = Kernel.create ~config () in
  let sys = Api.init ~start_checker:false kernel in
  (kernel, Api.manager sys)

(* Admit [c] and grow it to [held] free slots. *)
let admit_holding manager c ~held =
  (match Frame_manager.admit manager c with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "admission refused");
  let extra = held - Container.frames_held c in
  if extra > 0 && not (Frame_manager.request manager c extra) then
    Alcotest.fail "request refused"

(* Hold frames outside every tenant until the pool has [free] left. *)
let drain_pool kernel ~free =
  let tbl = Kernel.frame_table kernel in
  ignore (Frame.Table.alloc_many tbl (Frame.Table.free_count tbl - free))

(* Emergency seizure takes from the largest overage first, in FAFR
   order among equal overages, takes no tenant below its minimum,
   skips a tenant whose policy is executing, and stops as soon as the
   pool is back at the daemon's free target plus its reserve. *)
let test_emergency_seize_order () =
  let kernel, manager = bare_manager () in
  let tenant ~min ~held =
    let c = raw_container kernel ~min_frames:min in
    admit_holding manager c ~held;
    c
  in
  let a = tenant ~min:4 ~held:8 in
  let b = tenant ~min:4 ~held:12 in
  let c = tenant ~min:2 ~held:10 in
  let busy = tenant ~min:4 ~held:20 in
  Container.start_execution busy ~at:(Kernel.now kernel);
  let daemon = Kernel.pageout kernel in
  let target = Pageout.free_target daemon + Pageout.reserved daemon in
  drain_pool kernel ~free:(target - 10);
  Frame_manager.emergency_seize manager ~level:Pressure.Emergency;
  Alcotest.(check int) "pool back at the target" target
    (Frame.Table.free_count (Kernel.frame_table kernel));
  Alcotest.(check int) "largest overage, first admitted: down to its floor" 4
    (Container.frames_held b);
  Alcotest.(check int) "equal overage, admitted later: the remainder" 8
    (Container.frames_held c);
  Alcotest.(check int) "smaller overage untouched" 8 (Container.frames_held a);
  Alcotest.(check int) "executing tenant skipped" 20 (Container.frames_held busy);
  let stats = Frame_manager.stats manager in
  Alcotest.(check int) "two seizure events" 2 stats.Frame_manager.emergency_seizures;
  Alcotest.(check int) "ten frames seized" 10 stats.Frame_manager.emergency_frames

(* Normal reclamation runs each victim's ReclaimFrame in FAFR order —
   the order of admission, not of creation — and stops once [need]
   frames are free. *)
let test_reclaim_visits_fafr () =
  let kernel, manager = bare_manager () in
  let a = raw_container kernel ~min_frames:4 in
  let b = raw_container kernel ~min_frames:4 in
  let c = raw_container kernel ~min_frames:4 in
  List.iter (fun x -> admit_holding manager x ~held:8) [ c; a; b ];
  let runs = List.map Container.events_run [ a; b; c ] in
  let got = Frame_manager.reclaim_from_specific manager ~need:6 ~exclude:None in
  Alcotest.(check int) "frames freed" 6 got;
  Alcotest.(check (list int)) "held: c gave its overage, a the rest, b nothing"
    [ 6; 8; 4 ]
    (List.map Container.frames_held [ a; b; c ]);
  Alcotest.(check (list int)) "ReclaimFrame ran on c and a only" [ 1; 0; 1 ]
    (List.map2 (fun x r -> Container.events_run x - r) [ a; b; c ] runs)

(* A throttled victim's policy never runs: reclamation seizes its
   frames directly, down to its minimum, and moves on. *)
let test_reclaim_seizes_throttled () =
  let kernel, manager = bare_manager () in
  let a = raw_container kernel ~min_frames:4 in
  let b = raw_container kernel ~min_frames:4 in
  List.iter (fun x -> admit_holding manager x ~held:8) [ a; b ];
  let now = Kernel.now kernel in
  Container.set_throttled a ~since:now ~until:(T.add now (T.ms 100));
  let runs_a = Container.events_run a and runs_b = Container.events_run b in
  let stats = Frame_manager.stats manager in
  let seized = stats.Frame_manager.forced_seizures in
  let got = Frame_manager.reclaim_from_specific manager ~need:6 ~exclude:None in
  Alcotest.(check int) "frames freed" 6 got;
  Alcotest.(check int) "throttled victim seized to its floor" 4 (Container.frames_held a);
  Alcotest.(check int) "its policy did not run" runs_a (Container.events_run a);
  Alcotest.(check int) "four forced seizures" (seized + 4)
    stats.Frame_manager.forced_seizures;
  Alcotest.(check bool) "still throttled" true (Container.throttled a);
  Alcotest.(check int) "next victim's policy gave the rest" 6 (Container.frames_held b);
  Alcotest.(check int) "its policy ran once" (runs_b + 1) (Container.events_run b)

(* Admission appends to the FAFR ledger in O(1): admitting the 1,000th
   tenant allocates what admitting the 10th does, within a few words. *)
let test_admit_allocation_flat () =
  let config =
    { Kernel.default_config with Kernel.total_frames = 4096; hipec_kernel = true }
  in
  let kernel = Kernel.create ~config () in
  let manager = Api.manager (Api.init ~start_checker:false kernel) in
  let admit_words () =
    let c = raw_container kernel ~min_frames:1 in
    let w0 = Gc.minor_words () in
    let admitted = Frame_manager.admit manager c in
    let words = Gc.minor_words () -. w0 in
    (match admitted with Ok () -> () | Error _ -> Alcotest.fail "admission refused");
    words
  in
  let words = Array.init 1_000 (fun _ -> admit_words ()) in
  let w10 = words.(9) and w1000 = words.(999) in
  if w1000 -. w10 > 16. then
    Alcotest.failf "admitting the 1000th tenant: %.0f words, the 10th: %.0f" w1000 w10

(* ------------------------------------------------------------------ *)
(* Property: admissions, seizures and removals conserve frames         *)
(* ------------------------------------------------------------------ *)

(* Random interleavings of the overload-path entry points — admission
   (accepted, shed or short), direct frame requests, emergency seizure
   and container teardown — must conserve the frame table at every step
   and keep the specific total equal to the sum of held frames (a
   double-free shows up as either). *)

let print_overload_ops ops =
  Printf.sprintf "[%s]" (String.concat ";" (List.map string_of_int ops))

let overload_ops_gen st =
  let open QCheck.Gen in
  let n = 4 + int_bound 16 st in
  List.init n (fun _ -> int_bound 99 st)

let overload_conservation_prop =
  QCheck.Test.make ~name:"overload paths conserve the frame table" ~count:40
    (QCheck.make ~print:print_overload_ops overload_ops_gen)
    (fun ops ->
      let config =
        { Kernel.default_config with Kernel.total_frames = 96; hipec_kernel = true }
      in
      let kernel = Kernel.create ~config () in
      let sys = Api.init ~start_checker:false kernel in
      let manager = Api.manager sys in
      let admitted = ref [] in
      let step choice =
        (match choice mod 5 with
        | 0 | 1 ->
            let c = raw_container kernel ~min_frames:(4 + (choice / 5 mod 3) * 8) in
            (match Frame_manager.admit manager c with
            | Ok () -> admitted := c :: !admitted
            | Error _ -> ())
        | 2 -> (
            match !admitted with
            | c :: _ -> ignore (Frame_manager.request manager c (1 + (choice / 5 mod 4)))
            | [] -> ())
        | 3 ->
            Frame_manager.emergency_seize manager
              ~level:(if choice mod 2 = 0 then Pressure.Emergency else Pressure.Critical)
        | _ -> (
            match !admitted with
            | c :: rest ->
                admitted := rest;
                Frame_manager.remove_container manager c ~flush_dirty:false
            | [] -> ()));
        if not (Frame.Table.check_conservation (Kernel.frame_table kernel)) then
          QCheck.Test.fail_reportf "frame table conservation broken after op %d" choice;
        let held =
          List.fold_left
            (fun acc c -> acc + Container.frames_held c)
            0 (Frame_manager.containers manager)
        in
        if held <> Frame_manager.specific_total manager then
          QCheck.Test.fail_reportf
            "specific total %d but containers hold %d after op %d"
            (Frame_manager.specific_total manager)
            held choice
      in
      List.iter step ops;
      List.iter
        (fun c -> Frame_manager.remove_container manager c ~flush_dirty:false)
        !admitted;
      Alcotest.(check bool) "conserved after teardown" true
        (Frame.Table.check_conservation (Kernel.frame_table kernel));
      Alcotest.(check int) "all specific frames returned" 0
        (Frame_manager.specific_total manager);
      true)

(* ------------------------------------------------------------------ *)
(* Property: the services never leak a kernel Invalid_argument         *)
(* ------------------------------------------------------------------ *)

(* Random checker-accepted programs hammering the fixed services —
   Release of slots parked on arbitrary queues, frame requests and
   count releases under a small physical memory — must never produce a
   "kernel check failed" runtime error (the executor's wrapping of
   [Invalid_argument]). *)

let pressure_snippet n choice =
  let l s = Printf.sprintf "s%d_%s" n s in
  match choice mod 5 with
  | 0 | 1 | 2 ->
      (* guarded: free slot -> some queue -> Release *)
      let dst =
        match choice mod 5 with
        | 0 -> Std.inactive_queue
        | 1 -> Std.active_queue
        | _ -> uq_slot
      in
      [
        Op (Instr.Emptyq Std.free_queue);
        Jump_to (l "go");
        Jump_to (l "end");
        Label (l "go");
        Op (Instr.Dequeue (Std.page_reg, Std.free_queue, Opcode.Queue_end.Head));
        Op (Instr.Enqueue (Std.page_reg, dst, Opcode.Queue_end.Tail));
        Op (Instr.Release Std.page_reg);
        Jump_to (l "end");
        Label (l "end");
      ]
  | 3 -> [ Op (Instr.Request ((choice / 5 mod 3) + 1)); Jump_to (l "end"); Label (l "end") ]
  | _ -> [ Op (Instr.Release r_slot); Jump_to (l "end"); Label (l "end") ]

let print_pressure (choices, faults) =
  Printf.sprintf "faults=%d snippets=[%s]" faults
    (String.concat ";" (List.map string_of_int choices))

let pressure_gen st =
  let open QCheck.Gen in
  let n = 1 + int_bound 6 st in
  (List.init n (fun _ -> int_bound 29 st), 1 + int_bound 6 st)

let no_kernel_failure_prop =
  QCheck.Test.make
    ~name:"checker-accepted programs never trip a kernel check" ~count:60
    (QCheck.make ~print:print_pressure pressure_gen)
    (fun (choices, faults) ->
      let code =
        asm
          (List.concat (List.mapi pressure_snippet choices)
          @ [ Op (Instr.Return Std.null) ])
      in
      let h = make ~total_frames:64 ~min_frames:4 code in
      let check_outcome = function
        | Executor.Runtime_error e when contains ~sub:"kernel check failed" e ->
            QCheck.Test.fail_reportf "kernel check leaked: %s" e
        | _ -> ()
      in
      (try
         for i = 0 to faults - 1 do
           if not (Container.degraded h.container) then begin
             check_outcome (run h);
             if not (Container.degraded h.container) then fill_active h (1 + (i mod 3))
           end
         done
       with Invalid_argument e ->
         QCheck.Test.fail_reportf "Invalid_argument escaped: %s" e);
      Alcotest.(check bool) "frames conserved" true
        (Frame.Table.check_conservation (Kernel.frame_table h.kernel));
      true)

let () =
  Alcotest.run "frame_manager"
    [
      ( "release",
        [
          Alcotest.test_case "slot on the inactive queue" `Quick test_release_on_inactive;
          Alcotest.test_case "slot on the active queue" `Quick test_release_on_active;
          Alcotest.test_case "slot on a user-declared queue" `Quick
            test_release_on_user_queue;
          Alcotest.test_case "slot parked off-queue" `Quick test_release_off_queue;
          Alcotest.test_case "demotion skips a stale page register" `Quick
            test_demote_skips_stale_register;
          Alcotest.test_case "second Release of a stale register demotes" `Quick
            test_release_stale_register_fails;
        ] );
      ( "fault",
        [
          Alcotest.test_case "returned slot on a user-declared queue" `Quick
            test_fault_returns_slot_on_user_queue;
          Alcotest.test_case "returned slot it had released" `Quick
            test_fault_returns_released_slot;
        ] );
      ( "grants",
        [
          Alcotest.test_case "alloc_many is not all-or-nothing" `Quick
            test_alloc_many_returns_partial;
          Alcotest.test_case "admission beyond memory rejects" `Quick
            test_admit_beyond_memory_rejects;
          Alcotest.test_case "request under pressure rejects" `Quick
            test_request_under_pressure_rejects;
        ] );
      ( "seizure",
        [
          Alcotest.test_case "forced seize unlinks user queues" `Quick
            test_forced_seize_unlinks_user_queue;
          Alcotest.test_case "emergency: largest overage first" `Quick
            test_emergency_seize_order;
          Alcotest.test_case "reclaim visits victims FAFR" `Quick test_reclaim_visits_fafr;
          Alcotest.test_case "reclaim seizes a throttled victim" `Quick
            test_reclaim_seizes_throttled;
          Alcotest.test_case "admission allocates O(1)" `Quick test_admit_allocation_flat;
        ] );
      ( "queues",
        [
          Alcotest.test_case "one watch sees a user queue" `Quick test_watch_sees_user_queue;
          Alcotest.test_case "one definition, allocation-free" `Quick test_container_queues;
        ] );
      ( "overload",
        [
          Alcotest.test_case "fuel throttle enters and recovers" `Quick
            test_fuel_throttle_round_trip;
          Alcotest.test_case "window rotation keeps honest policies clear" `Quick
            test_fuel_window_resets;
          Alcotest.test_case "critical pressure sheds admissions" `Quick
            test_admission_shed;
          Alcotest.test_case "audit check is one allocation-free walk" `Quick
            test_audit_check_one_walk;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest no_kernel_failure_prop;
          QCheck_alcotest.to_alcotest overload_conservation_prop;
        ] );
    ]
