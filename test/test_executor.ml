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
