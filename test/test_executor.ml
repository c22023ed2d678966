(* Instruction-level tests of the policy executor: every command's
   semantics, the skip-next test discipline, the step budget, and the
   activation mechanism — driven through real containers on a live
   kernel so the privileged commands (Request/Release/Flush) hit the
   real frame manager. *)

open Hipec_core
open Hipec_vm
module Frame = Hipec_machine.Frame
module T = Hipec_sim.Sim_time
module Std = Operand.Std

(* user slots for test scratch variables *)
let x_slot = Std.first_user
let y_slot = Std.first_user + 1
let b1_slot = Std.first_user + 2
let b2_slot = Std.first_user + 3

type harness = {
  kernel : Kernel.t;
  sys : Api.t;
  container : Container.t;
  x : int ref;
  y : int ref;
  b1 : bool ref;
  b2 : bool ref;
}

(* the probe event we drive directly *)
let probe_event = 2

(* Build a system whose policy has a normal PageFault/ReclaimFrame plus
   the probe event under test. *)
let make ?(x = 0) ?(y = 0) ?(b1 = false) ?(b2 = false) ?(min_frames = 8) probe_code =
  let rx = ref x and ry = ref y and rb1 = ref b1 and rb2 = ref b2 in
  let program =
    Program.make
      [
        (Events.page_fault,
         (match
            Program.Asm.assemble
              [
                Program.Asm.Op (Instr.Emptyq Std.free_queue);
                Program.Asm.Jump_to "take";
                Program.Asm.Op (Instr.Fifo Std.active_queue);
                Program.Asm.Jump_to "take";
                Program.Asm.Label "take";
                Program.Asm.Op (Instr.Dequeue (Std.page_reg, Std.free_queue, Opcode.Queue_end.Head));
                Program.Asm.Op (Instr.Return Std.page_reg);
              ]
          with
         | Ok code -> code
         | Error e -> failwith e));
        (Events.reclaim_frame, [| Instr.Return Std.null |]);
        (probe_event, probe_code);
      ]
  in
  let config = { Kernel.default_config with Kernel.total_frames = 256; hipec_kernel = true } in
  let kernel = Kernel.create ~config () in
  let sys = Api.init ~start_checker:false kernel in
  let task = Kernel.create_task kernel () in
  let spec =
    {
      (Api.default_spec ~policy:program ~min_frames) with
      Api.extra_operands =
        [
          (x_slot, Operand.Int rx);
          (y_slot, Operand.Int ry);
          (b1_slot, Operand.Bool rb1);
          (b2_slot, Operand.Bool rb2);
        ];
    }
  in
  match Api.vm_allocate_hipec sys task ~npages:32 spec with
  | Error e -> failwith ("harness: " ^ e)
  | Ok (_region, container) -> { kernel; sys; container; x = rx; y = ry; b1 = rb1; b2 = rb2 }

let asm items =
  match Program.Asm.assemble items with Ok code -> code | Error e -> failwith e

let run h = Frame_manager.run_event (Api.manager h.sys) h.container ~event:probe_event

let expect_return h =
  match run h with
  | Executor.Returned _ -> ()
  | Executor.Runtime_error e -> Alcotest.fail ("runtime error: " ^ e)
  | Executor.Timed_out -> Alcotest.fail "timed out"

let expect_error h =
  match run h with
  | Executor.Runtime_error _ -> ()
  | Executor.Returned _ -> Alcotest.fail "expected a runtime error"
  | Executor.Timed_out -> Alcotest.fail "expected an error, got timeout"

open Program.Asm

(* ------------------------------------------------------------------ *)
(* Arith                                                               *)
(* ------------------------------------------------------------------ *)

let test_arith_ops () =
  let cases =
    [
      (Opcode.Arith_op.Add, 10, 3, 13);
      (Opcode.Arith_op.Sub, 10, 3, 7);
      (Opcode.Arith_op.Mul, 10, 3, 30);
      (Opcode.Arith_op.Div, 10, 3, 3);
      (Opcode.Arith_op.Rem, 10, 3, 1);
      (Opcode.Arith_op.Inc, 10, 99, 11);
      (Opcode.Arith_op.Dec, 10, 99, 9);
    ]
  in
  List.iter
    (fun (op, x, y, expected) ->
      let h = make ~x ~y (asm [ Op (Instr.Arith (x_slot, y_slot, op)); Op (Instr.Return Std.null) ]) in
      expect_return h;
      Alcotest.(check int) (Opcode.Arith_op.name op) expected !(h.x))
    cases

let test_arith_division_by_zero () =
  let h =
    make ~x:5 ~y:0
      (asm [ Op (Instr.Arith (x_slot, y_slot, Opcode.Arith_op.Div)); Op (Instr.Return Std.null) ])
  in
  expect_error h

let test_arith_into_count_rejected_statically () =
  (* Arith destination must be a mutable int: the checker catches it *)
  let program =
    Program.make
      [
        (Events.page_fault,
         [| Instr.Arith (Std.free_count, Std.null, Opcode.Arith_op.Inc); Instr.Return 0 |]);
        (Events.reclaim_frame, [| Instr.Return 0 |]);
      ]
  in
  let ops = Operand.create () in
  let _ = Operand.install_std ops ~name:"t" ~free_target:4 ~inactive_target:8 ~reserved_target:2 in
  match Checker.validate program ops with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "checker accepted Arith into a Count"

(* ------------------------------------------------------------------ *)
(* Comp / skip-next discipline                                         *)
(* ------------------------------------------------------------------ *)

let test_comp_true_skips_jump () =
  (* x=5 > 3: the Jump to the y:=111 branch must be skipped *)
  let h =
    make ~x:5 ~y:3
      (asm
         [
           Op (Instr.Comp (x_slot, y_slot, Opcode.Comp_op.Gt));
           Jump_to "else";
           Op (Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Inc));  (* then: x := 6 *)
           Op (Instr.Return Std.null);
           Label "else";
           Op (Instr.Arith (y_slot, y_slot, Opcode.Arith_op.Inc));
           Op (Instr.Return Std.null);
         ])
  in
  expect_return h;
  Alcotest.(check int) "then branch ran" 6 !(h.x);
  Alcotest.(check int) "else branch did not" 3 !(h.y)

let test_comp_false_takes_jump () =
  let h =
    make ~x:2 ~y:3
      (asm
         [
           Op (Instr.Comp (x_slot, y_slot, Opcode.Comp_op.Gt));
           Jump_to "else";
           Op (Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Inc));
           Op (Instr.Return Std.null);
           Label "else";
           Op (Instr.Arith (y_slot, y_slot, Opcode.Arith_op.Inc));
           Op (Instr.Return Std.null);
         ])
  in
  expect_return h;
  Alcotest.(check int) "then skipped" 2 !(h.x);
  Alcotest.(check int) "else ran" 4 !(h.y)

let test_comp_all_flags () =
  List.iter
    (fun (op, x, y, expected_then) ->
      let h =
        make ~x ~y
          (asm
             [
               Op (Instr.Comp (x_slot, y_slot, op));
               Jump_to "else";
               Op (Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Inc));
               Op (Instr.Return Std.null);
               Label "else";
               Op (Instr.Return Std.null);
             ])
      in
      expect_return h;
      Alcotest.(check int)
        (Printf.sprintf "%s %d %d" (Opcode.Comp_op.name op) x y)
        (if expected_then then x + 1 else x)
        !(h.x))
    [
      (Opcode.Comp_op.Gt, 4, 3, true);
      (Opcode.Comp_op.Gt, 3, 3, false);
      (Opcode.Comp_op.Lt, 2, 3, true);
      (Opcode.Comp_op.Eq, 3, 3, true);
      (Opcode.Comp_op.Ne, 3, 3, false);
      (Opcode.Comp_op.Ge, 3, 3, true);
      (Opcode.Comp_op.Le, 4, 3, false);
    ]

(* ------------------------------------------------------------------ *)
(* Logic                                                               *)
(* ------------------------------------------------------------------ *)

let test_logic_ops () =
  List.iter
    (fun (op, b1, b2, expected) ->
      let h =
        make ~b1 ~b2
          (asm
             [
               Op (Instr.Logic (b1_slot, b2_slot, op));
               Jump_to "after";
               Label "after";
               Op (Instr.Return Std.null);
             ])
      in
      expect_return h;
      Alcotest.(check bool) (Opcode.Logic_op.name op) expected !(h.b1))
    [
      (Opcode.Logic_op.And, true, true, true);
      (Opcode.Logic_op.And, true, false, false);
      (Opcode.Logic_op.Or, false, true, true);
      (Opcode.Logic_op.Or, false, false, false);
      (Opcode.Logic_op.Xor, true, true, false);
      (Opcode.Logic_op.Xor, true, false, true);
      (Opcode.Logic_op.Not, true, false, false);
      (Opcode.Logic_op.Not, false, true, true);
    ]

(* ------------------------------------------------------------------ *)
(* Queue commands                                                      *)
(* ------------------------------------------------------------------ *)

let test_dequeue_enqueue_roundtrip () =
  (* move a slot free -> inactive -> back, verify the counts *)
  let h =
    make
      (asm
         [
           Op (Instr.Dequeue (Std.page_reg, Std.free_queue, Opcode.Queue_end.Head));
           Op (Instr.Enqueue (Std.page_reg, Std.inactive_queue, Opcode.Queue_end.Tail));
           Op (Instr.Return Std.null);
         ])
  in
  let free_before = Page_queue.length (Container.free_queue h.container) in
  expect_return h;
  Alcotest.(check int) "free shrank" (free_before - 1)
    (Page_queue.length (Container.free_queue h.container));
  Alcotest.(check int) "inactive grew" 1
    (Page_queue.length (Container.inactive_queue h.container))

let test_dequeue_empty_is_error () =
  let h =
    make
      (asm
         [
           Op (Instr.Dequeue (Std.page_reg, Std.inactive_queue, Opcode.Queue_end.Head));
           Op (Instr.Return Std.null);
         ])
  in
  expect_error h

let test_enqueue_empty_page_reg_is_error () =
  let h =
    make
      (asm
         [
           Op (Instr.Enqueue (Std.page_reg, Std.inactive_queue, Opcode.Queue_end.Tail));
           Op (Instr.Return Std.null);
         ])
  in
  expect_error h

let test_emptyq_and_inq () =
  let h =
    make ~x:0
      (asm
         [
           (* free queue starts non-empty: EmptyQ false -> execute jump *)
           Op (Instr.Emptyq Std.free_queue);
           Jump_to "not_empty";
           Op (Instr.Return Std.null);  (* unreachable *)
           Label "not_empty";
           Op (Instr.Dequeue (Std.page_reg, Std.free_queue, Opcode.Queue_end.Head));
           Op (Instr.Enqueue (Std.page_reg, Std.inactive_queue, Opcode.Queue_end.Tail));
           (* InQ: the page is on the inactive queue now *)
           Op (Instr.Inq (Std.inactive_queue, Std.page_reg));
           Jump_to "missing";
           Op (Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Inc));
           Op (Instr.Return Std.null);
           Label "missing";
           Op (Instr.Return Std.null);
         ])
  in
  expect_return h;
  Alcotest.(check int) "InQ found the page" 1 !(h.x)

(* ------------------------------------------------------------------ *)
(* Set / Ref / Mod                                                     *)
(* ------------------------------------------------------------------ *)

let test_set_ref_mod () =
  let h =
    make ~x:0
      (asm
         [
           Op (Instr.Dequeue (Std.page_reg, Std.free_queue, Opcode.Queue_end.Head));
           (* fresh frame: neither referenced nor modified *)
           Op (Instr.Ref Std.page_reg);
           Jump_to "ref_clear";
           Op (Instr.Return Std.null);  (* would be a bug *)
           Label "ref_clear";
           Op (Instr.Set (Std.page_reg, Opcode.Bit_action.Set_bit, Opcode.Bit_which.Reference));
           Op (Instr.Ref Std.page_reg);
           Jump_to "bug";
           Op (Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Inc));  (* x=1: ref now set *)
           Op (Instr.Set (Std.page_reg, Opcode.Bit_action.Set_bit, Opcode.Bit_which.Modify));
           Op (Instr.Mod Std.page_reg);
           Jump_to "bug";
           Op (Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Inc));  (* x=2: mod now set *)
           Op (Instr.Set (Std.page_reg, Opcode.Bit_action.Reset_bit, Opcode.Bit_which.Modify));
           Op (Instr.Mod Std.page_reg);
           Jump_to "done";  (* mod cleared: jump taken *)
           Op (Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Inc));  (* must not run *)
           Label "done";
           Op (Instr.Enqueue (Std.page_reg, Std.free_queue, Opcode.Queue_end.Head));
           Op (Instr.Return Std.null);
           Label "bug";
           Op (Instr.Return Std.null);
         ])
  in
  expect_return h;
  Alcotest.(check int) "bit transitions observed" 2 !(h.x)

(* ------------------------------------------------------------------ *)
(* Find                                                                *)
(* ------------------------------------------------------------------ *)

let test_find_resident_page () =
  let h =
    make ~x:0
      (asm
         [
           Op (Instr.Find (Std.page_reg, Std.fault_va));
           Jump_to "not_found";
           Op (Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Inc));
           Op (Instr.Return Std.null);
           Label "not_found";
           Op (Instr.Arith (y_slot, y_slot, Opcode.Arith_op.Inc));
           Op (Instr.Return Std.null);
         ])
  in
  (* nothing resident yet: Find must fail *)
  let region = Container.region h.container in
  (match
     Operand.write_int (Container.operands h.container) Std.fault_va
       (region.Vm_map.start_vpn * Frame.page_size)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  expect_return h;
  Alcotest.(check int) "not found before fault" 1 !(h.y);
  (* fault the page in, then Find must succeed *)
  Kernel.access_vpn h.kernel (Container.task h.container) ~vpn:region.Vm_map.start_vpn
    ~write:false;
  expect_return h;
  Alcotest.(check int) "found after fault" 1 !(h.x)

let test_find_outside_region_fails () =
  let h =
    make ~x:0
      (asm
         [
           Op (Instr.Find (Std.page_reg, Std.fault_va));
           Jump_to "not_found";
           Op (Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Inc));
           Op (Instr.Return Std.null);
           Label "not_found";
           Op (Instr.Return Std.null);
         ])
  in
  (match Operand.write_int (Container.operands h.container) Std.fault_va 0 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  expect_return h;
  Alcotest.(check int) "va 0 is outside the region" 0 !(h.x)

(* ------------------------------------------------------------------ *)
(* Request / Release / Flush                                           *)
(* ------------------------------------------------------------------ *)

let test_request_grants_onto_free_queue () =
  let h =
    make
      (asm
         [
           Op (Instr.Request 4);
           Jump_to "rejected";
           Op (Instr.Return Std.null);
           Label "rejected";
           Op (Instr.Return Std.free_count);
         ])
  in
  let before = Container.frames_held h.container in
  expect_return h;
  Alcotest.(check int) "four more frames" (before + 4) (Container.frames_held h.container)

let test_release_count () =
  let h =
    make ~x:3
      (asm
         [
           Op (Instr.Release x_slot);
           Jump_to "short";
           Op (Instr.Return Std.null);
           Label "short";
           Op (Instr.Return Std.null);
         ])
  in
  let before = Container.frames_held h.container in
  expect_return h;
  Alcotest.(check int) "three released" (before - 3) (Container.frames_held h.container)

let test_flush_clears_modify_and_writes () =
  (* fault a page in with a write, then flush it from the policy *)
  let h =
    make
      (asm
         [
           Op (Instr.Find (Std.page_reg, Std.fault_va));
           Jump_to "missing";
           Op (Instr.Flush Std.page_reg);
           Op (Instr.Mod Std.page_reg);
           Jump_to "clean";
           Op (Instr.Return Std.null);  (* still dirty: bug *)
           Label "clean";
           Op (Instr.Return Std.page_reg);
           Label "missing";
           Op (Instr.Return Std.null);
         ])
  in
  let region = Container.region h.container in
  Kernel.access_vpn h.kernel (Container.task h.container) ~vpn:region.Vm_map.start_vpn
    ~write:true;
  (match
     Operand.write_int (Container.operands h.container) Std.fault_va
       (region.Vm_map.start_vpn * Frame.page_size)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let writes_before =
    (Frame_manager.stats (Api.manager h.sys)).Frame_manager.flush_writes
  in
  (match run h with
  | Executor.Returned (Some (Operand.Page _)) -> ()
  | Executor.Returned _ -> Alcotest.fail "flush path not taken"
  | Executor.Runtime_error e -> Alcotest.fail e
  | Executor.Timed_out -> Alcotest.fail "timeout");
  Alcotest.(check int) "one flush write issued" (writes_before + 1)
    (Frame_manager.stats (Api.manager h.sys)).Frame_manager.flush_writes

(* ------------------------------------------------------------------ *)
(* Complex commands                                                    *)
(* ------------------------------------------------------------------ *)

let fill_active h n =
  (* fault n pages in; the ABI enqueues them on the active queue *)
  let region = Container.region h.container in
  for i = 0 to n - 1 do
    Kernel.access_vpn h.kernel (Container.task h.container)
      ~vpn:(region.Vm_map.start_vpn + i) ~write:false
  done

let complex_probe instr =
  asm
    [
      Op instr;
      Jump_to "empty";
      Op (Instr.Return Std.page_reg);
      Label "empty";
      Op (Instr.Return Std.null);
    ]

let test_fifo_command_evicts_oldest () =
  let h = make (complex_probe (Instr.Fifo Std.active_queue)) in
  fill_active h 3;
  let oldest = Page_queue.peek_head (Container.active_queue h.container) in
  (match run h with
  | Executor.Returned (Some (Operand.Page { contents = Some victim })) ->
      Alcotest.(check int) "victim is queue head"
        (Vm_page.id (Option.get oldest))
        (Vm_page.id victim);
      Alcotest.(check bool) "victim unbound" false (Vm_page.is_bound victim);
      Alcotest.(check bool) "victim on free queue" true
        (Page_queue.mem (Container.free_queue h.container) victim)
  | _ -> Alcotest.fail "unexpected outcome");
  Alcotest.(check int) "active shrank" 2
    (Page_queue.length (Container.active_queue h.container))

let test_lru_mru_pick_by_age () =
  let run_one instr expect_oldest =
    let h = make (complex_probe instr) in
    fill_active h 3;
    let pages = Page_queue.to_list (Container.active_queue h.container) in
    let by_age = List.sort (fun a b -> T.compare (Vm_page.last_access a) (Vm_page.last_access b)) pages in
    let expected = if expect_oldest then List.hd by_age else List.hd (List.rev by_age) in
    match run h with
    | Executor.Returned (Some (Operand.Page { contents = Some victim })) ->
        Alcotest.(check int)
          (if expect_oldest then "LRU evicts oldest" else "MRU evicts newest")
          (Vm_page.id expected) (Vm_page.id victim)
    | _ -> Alcotest.fail "unexpected outcome"
  in
  run_one (Instr.Lru Std.active_queue) true;
  run_one (Instr.Mru Std.active_queue) false

let test_complex_on_empty_queue_fails_gracefully () =
  let h = make (complex_probe (Instr.Mru Std.inactive_queue)) in
  match run h with
  | Executor.Returned (Some (Operand.Int _)) -> ()  (* the "empty" arm returned null *)
  | _ -> Alcotest.fail "expected the empty arm"

(* ------------------------------------------------------------------ *)
(* Activation and budgets                                              *)
(* ------------------------------------------------------------------ *)

let test_activation_depth_limit () =
  (* an event that activates itself recurses past the depth limit *)
  let h = make (asm [ Op (Instr.Activate probe_event); Op (Instr.Return Std.null) ]) in
  expect_error h

let test_step_budget_times_out () =
  let h = make (asm [ Label "spin"; Jump_to "spin"; Op (Instr.Return Std.null) ]) in
  match Frame_manager.run_event (Api.manager h.sys) h.container ~event:probe_event with
  | Executor.Timed_out ->
      Alcotest.(check bool) "container stamped for the checker" true
        (Container.execution_started h.container <> None)
  | _ -> Alcotest.fail "expected timeout"

let test_return_value_kinds () =
  let h = make (asm [ Op (Instr.Return x_slot) ]) in
  (match run h with
  | Executor.Returned (Some (Operand.Int _)) -> ()
  | _ -> Alcotest.fail "expected an int return");
  let h = make (asm [ Op (Instr.Return 200) ]) in
  match run h with
  | Executor.Returned None -> ()  (* empty slot *)
  | _ -> Alcotest.fail "expected an empty return"

let test_commands_are_charged () =
  let h = make ~x:0 (asm [ Op (Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Inc));
                           Op (Instr.Return Std.null) ]) in
  let t0 = Kernel.now h.kernel in
  expect_return h;
  let elapsed = T.to_ns (T.sub (Kernel.now h.kernel) t0) in
  let costs = Kernel.costs h.kernel in
  let expected =
    T.to_ns costs.Hipec_machine.Costs.hipec_dispatch
    + (2 * T.to_ns costs.Hipec_machine.Costs.hipec_fetch_decode)
  in
  Alcotest.(check int) "dispatch + 2 fetches" expected elapsed

(* ------------------------------------------------------------------ *)
(* Runtime-error text                                                  *)
(* ------------------------------------------------------------------ *)

(* A container built without the security checker, so ill-typed and
   ill-formed programs reach the executor, run on the current default
   backend by an executor whose services never re-enter it. *)
let unchecked probe_code =
  let kernel =
    Kernel.create ~config:{ Kernel.default_config with Kernel.total_frames = 64 } ()
  in
  let task = Kernel.create_task kernel () in
  let region = Kernel.vm_allocate kernel task ~npages:4 in
  let ops = Operand.create () in
  let queues =
    Operand.install_std ops ~name:"t" ~free_target:4 ~inactive_target:8 ~reserved_target:2
  in
  Operand.set ops x_slot (Operand.Int (ref 7));
  Operand.set ops b1_slot (Operand.Bool (ref true));
  let container =
    Container.create ~task ~obj:region.Vm_map.obj ~region
      ~program:(Program.make [ (probe_event, probe_code) ])
      ~operands:ops ~queues ~min_frames:0 ()
  in
  let services =
    {
      Executor.request_frames = (fun _ _ -> false);
      release_count = (fun _ ~count:_ -> 0);
      release_page = (fun _ _ -> Ok ());
      flush_page = (fun _ _ -> Ok ());
      resolve_object = (fun _ -> region.Vm_map.obj);
    }
  in
  let executor =
    Executor.create ~engine:(Kernel.engine kernel) ~costs:(Kernel.costs kernel) ~services ()
  in
  (executor, container)

(* The literal [Runtime_error] text, which reaches demotion reasons and
   trace digests: both backends must produce it byte for byte. *)
let test_runtime_error_text () =
  let empty = 0x40 in
  let cases =
    [
      ( "empty slot",
        [| Instr.Arith (x_slot, empty, Opcode.Arith_op.Add); Instr.Return Std.null |],
        "event-2: operand 64: empty slot used as int" );
      ( "wrong kind",
        [| Instr.Comp (x_slot, Std.free_queue, Opcode.Comp_op.Gt); Instr.Jump 2;
           Instr.Return Std.null |],
        "event-2: operand 1: queue used as int" );
      ( "int used as bool",
        [| Instr.Logic (b1_slot, x_slot, Opcode.Logic_op.And); Instr.Jump 2;
           Instr.Return Std.null |],
        "event-2: operand 16: int used as bool" );
      ( "read-only count",
        [| Instr.Arith (Std.free_count, Std.null, Opcode.Arith_op.Inc); Instr.Return Std.null |],
        "event-2: operand 2: count is read-only" );
      ( "empty page register",
        [| Instr.Ref Std.page_reg; Instr.Jump 2; Instr.Return Std.null |],
        "event-2: operand 11: empty page register" );
      ( "dequeue from empty queue",
        [| Instr.Dequeue (Std.page_reg, Std.active_queue, Opcode.Queue_end.Head);
           Instr.Return Std.page_reg |],
        "event-2: DeQueue from empty queue t.active" );
      ( "release of the wrong kind",
        [| Instr.Release Std.free_queue; Instr.Jump 2; Instr.Return Std.null |],
        "event-2: Release: operand 1 is a queue" );
      ( "release of an empty slot",
        [| Instr.Release empty; Instr.Jump 2; Instr.Return Std.null |],
        "event-2: Release: operand 64 is empty" );
      ( "activate of an undefined event",
        [| Instr.Activate 9; Instr.Return Std.null |],
        "event-2: undefined event event-9" );
      ( "control ran past the end",
        [| Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Inc) |],
        "event-2: event-2: control ran past CC 1" );
      ( "jump out of range",
        [| Instr.Jump 7 |],
        "event-2: event-2: control ran past CC 7" );
      ( "activation depth",
        [| Instr.Activate probe_event; Instr.Return Std.null |],
        "event-2: activation depth exceeds 16" );
      ( "division by zero",
        [| Instr.Arith (x_slot, Std.null, Opcode.Arith_op.Div); Instr.Return Std.null |],
        "event-2: division by zero" );
      ( "remainder by zero",
        [| Instr.Arith (x_slot, Std.null, Opcode.Arith_op.Rem); Instr.Return Std.null |],
        "event-2: remainder by zero" );
      ( "division by zero outranks the read-only write",
        [| Instr.Arith (Std.free_count, Std.null, Opcode.Arith_op.Div); Instr.Return Std.null |],
        "event-2: division by zero" );
    ]
  in
  let text ~event code =
    let executor, container = unchecked code in
    match Executor.run executor container ~event with
    | Executor.Runtime_error e -> e
    | Executor.Returned _ -> "(returned)"
    | Executor.Timed_out -> "(timed out)"
  in
  List.iter
    (fun (name, code, expected) ->
      Alcotest.(check string) name expected (text ~event:probe_event code))
    cases;
  Alcotest.(check string) "undefined event" "event-5: undefined event event-5"
    (text ~event:5 [| Instr.Return Std.null |])

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

let minor_words_of f =
  let overhead =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  let a = Gc.minor_words () in
  f ();
  let b = Gc.minor_words () in
  b -. a -. overhead

(* The MRU policy's PageFault handler, replacing the newest resident
   page on every run, allocates nothing but the [Returned] box. *)
let test_mru_fault_run_allocation () =
  let config = { Kernel.default_config with Kernel.total_frames = 256; hipec_kernel = true } in
  let kernel = Kernel.create ~config () in
  let sys = Api.init ~start_checker:false kernel in
  let task = Kernel.create_task kernel () in
  let region, container =
    match
      Api.vm_allocate_hipec sys task ~npages:64
        (Api.default_spec ~policy:(Policies.mru ()) ~min_frames:16)
    with
    | Ok rc -> rc
    | Error e -> failwith e
  in
  Kernel.touch_region kernel task region ~write:false;
  let executor = Frame_manager.executor (Api.manager sys) in
  let active = Container.active_queue container in
  let fault () =
    match Executor.run executor container ~event:Events.page_fault with
    | Executor.Returned (Some (Operand.Page { contents = Some _ })) -> ()
    | _ -> Alcotest.fail "the MRU fault handler did not return a page"
  in
  fault ();
  let runs = 8 in
  let before = Page_queue.length active in
  Alcotest.(check bool) "free queue empty" true
    (Page_queue.is_empty (Container.free_queue container));
  let words = minor_words_of (fun () -> for _ = 1 to runs do fault () done) in
  Alcotest.(check int) "one MRU replacement per run" (before - runs) (Page_queue.length active);
  if words > float_of_int (2 * runs) then
    Alcotest.failf "%d MRU fault runs allocate %.0f words, more than %d Returned boxes" runs
      words runs

(* A policy that spins until its step budget runs out allocates the same
   whatever the budget: no step allocates. *)
let test_budget_run_allocation () =
  let words max_steps =
    let kernel =
      Kernel.create
        ~config:{ Kernel.default_config with Kernel.total_frames = 64; hipec_kernel = true }
        ()
    in
    let sys = Api.init ~start_checker:false kernel in
    let task = Kernel.create_task kernel () in
    let container =
      match
        Api.vm_allocate_hipec sys task ~npages:8
          (Api.default_spec ~policy:(Policies.looping ()) ~min_frames:4)
      with
      | Ok (_, c) -> c
      | Error e -> failwith e
    in
    let executor =
      Executor.create ~max_steps ~engine:(Kernel.engine kernel) ~costs:(Kernel.costs kernel)
        ~services:
          {
            Executor.request_frames = (fun _ _ -> false);
            release_count = (fun _ ~count:_ -> 0);
            release_page = (fun _ _ -> Ok ());
            flush_page = (fun _ _ -> Ok ());
            resolve_object = (fun _ -> Container.obj container);
          }
        ()
    in
    let spin () =
      match Executor.run executor container ~event:Events.page_fault with
      | Executor.Timed_out -> ()
      | _ -> Alcotest.fail "the looping policy did not time out"
    in
    spin ();
    minor_words_of spin
  in
  let small = words 1_000 and large = words 100_000 in
  if small <> large then
    Alcotest.failf "a run to a 1,000-step budget allocates %.0f words, to 100,000 steps %.0f"
      small large

(* Every instruction-level test runs under both execution backends: the
   interpreter and the compile-once closure backend must be
   observationally identical, down to the simulated-time charges. *)
let suites =
  [
    ( "arith",
      [
        ("all operations", test_arith_ops);
        ("division by zero", test_arith_division_by_zero);
        ("count not writable", test_arith_into_count_rejected_statically);
      ] );
    ( "control",
      [
        ("comp true skips jump", test_comp_true_skips_jump);
        ("comp false takes jump", test_comp_false_takes_jump);
        ("all comparison flags", test_comp_all_flags);
        ("logic ops", test_logic_ops);
      ] );
    ( "queues",
      [
        ("dequeue/enqueue", test_dequeue_enqueue_roundtrip);
        ("dequeue empty errors", test_dequeue_empty_is_error);
        ("enqueue empty page reg errors", test_enqueue_empty_page_reg_is_error);
        ("emptyq and inq", test_emptyq_and_inq);
      ] );
    ( "pages",
      [
        ("set/ref/mod", test_set_ref_mod);
        ("find resident", test_find_resident_page);
        ("find outside region", test_find_outside_region_fails);
      ] );
    ( "manager_ops",
      [
        ("request", test_request_grants_onto_free_queue);
        ("release count", test_release_count);
        ("flush", test_flush_clears_modify_and_writes);
      ] );
    ( "complex",
      [
        ("fifo evicts oldest", test_fifo_command_evicts_oldest);
        ("lru/mru pick by age", test_lru_mru_pick_by_age);
        ("empty queue graceful", test_complex_on_empty_queue_fails_gracefully);
      ] );
    ( "budgets",
      [
        ("activation depth", test_activation_depth_limit);
        ("step budget", test_step_budget_times_out);
        ("return kinds", test_return_value_kinds);
        ("commands charged", test_commands_are_charged);
      ] );
    ("errors", [ ("runtime error text", test_runtime_error_text) ]);
    ( "allocation",
      [
        ("MRU fault run allocates only the Returned box", test_mru_fault_run_allocation);
        ("budget run allocation is flat", test_budget_run_allocation);
      ] );
  ]

let () =
  Alcotest.run "executor"
    (List.concat_map
       (fun backend ->
         List.map
           (fun (group, cases) ->
             ( Printf.sprintf "%s(%s)" group (Executor.backend_name backend),
               List.map
                 (fun (name, f) ->
                   Alcotest.test_case name `Quick (fun () -> Executor.with_backend backend f))
                 cases ))
           suites)
       [ Executor.Interp; Executor.Compiled ])
