(* Tests for the HiPEC core: command encoding, programs, operands,
   static validation, the policy executor, the global frame manager,
   the security checker and the system-call layer — including full
   end-to-end fault handling under application policies. *)

open Hipec_core
open Hipec_vm
module Frame = Hipec_machine.Frame
module Pmap = Hipec_machine.Pmap
module T = Hipec_sim.Sim_time
module Engine = Hipec_sim.Engine
module Std = Operand.Std

(* ------------------------------------------------------------------ *)
(* Instruction encoding                                                *)
(* ------------------------------------------------------------------ *)

let sample_instrs =
  [
    Instr.Return Std.page_reg;
    Instr.Arith (Std.scratch0, Std.scratch1, Opcode.Arith_op.Add);
    Instr.Comp (Std.free_count, Std.reserved_target, Opcode.Comp_op.Gt);
    Instr.Logic (Std.scratch0, Std.scratch1, Opcode.Logic_op.Xor);
    Instr.Emptyq Std.free_queue;
    Instr.Inq (Std.active_queue, Std.page_reg);
    Instr.Jump 513;
    Instr.Dequeue (Std.page_reg, Std.free_queue, Opcode.Queue_end.Head);
    Instr.Enqueue (Std.page_reg, Std.inactive_queue, Opcode.Queue_end.Tail);
    Instr.Request 16;
    Instr.Release Std.scratch0;
    Instr.Flush Std.page_reg;
    Instr.Set (Std.page_reg, Opcode.Bit_action.Reset_bit, Opcode.Bit_which.Reference);
    Instr.Ref Std.page_reg;
    Instr.Mod Std.page_reg;
    Instr.Find (Std.page_reg, Std.fault_va);
    Instr.Activate 2;
    Instr.Fifo Std.active_queue;
    Instr.Lru Std.active_queue;
    Instr.Mru Std.active_queue;
  ]

let test_encode_decode_roundtrip () =
  List.iter
    (fun instr ->
      match Instr.decode (Instr.encode instr) with
      | Ok instr' ->
          Alcotest.(check string)
            (Format.asprintf "%a" Instr.pp instr)
            (Format.asprintf "%a" Instr.pp instr)
            (Format.asprintf "%a" Instr.pp instr')
      | Error e -> Alcotest.fail e)
    sample_instrs

let test_table2_byte_encoding () =
  (* Table 2 CC 1 of PageFault: 02 02 0C 01 = Comp $free_count $reserved gt *)
  let w = Instr.encode (Instr.Comp (Std.free_count, Std.reserved_target, Opcode.Comp_op.Gt)) in
  Alcotest.(check string) "Comp word" "02 02 0C 01" (Format.asprintf "%a" Instr.pp_word w);
  (* Table 2 CC 3: 07 0B 01 01 = DeQueue $page_reg $free_queue head *)
  let w = Instr.encode (Instr.Dequeue (Std.page_reg, Std.free_queue, Opcode.Queue_end.Head)) in
  Alcotest.(check string) "DeQueue word" "07 0B 01 01" (Format.asprintf "%a" Instr.pp_word w);
  (* Table 2 CC 6 of Lack_free_frame: 08 0B 03 02 = EnQueue to active tail *)
  let w = Instr.encode (Instr.Enqueue (Std.page_reg, Std.active_queue, Opcode.Queue_end.Tail)) in
  Alcotest.(check string) "EnQueue word" "08 0B 03 02" (Format.asprintf "%a" Instr.pp_word w);
  (* Table 2 CC 2: 06 00 00 05 = Jump 5 *)
  let w = Instr.encode (Instr.Jump 5) in
  Alcotest.(check string) "Jump word" "06 00 00 05" (Format.asprintf "%a" Instr.pp_word w);
  (* Table 2 CC 5: 10 02 = Activate event 2 *)
  let w = Instr.encode (Instr.Activate 2) in
  Alcotest.(check string) "Activate word" "10 02 00 00" (Format.asprintf "%a" Instr.pp_word w)

let test_decode_rejects_garbage () =
  (match Instr.decode 0xFF000000l with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown opcode");
  (* Comp with flag 9 is invalid *)
  match Instr.decode 0x02010209l with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad comparison flag"

let test_opcode_codes_match_table1 () =
  Alcotest.(check int) "Return" 0x00 (Opcode.code Opcode.Return);
  Alcotest.(check int) "Jump" 0x06 (Opcode.code Opcode.Jump);
  Alcotest.(check int) "Request" 0x09 (Opcode.code Opcode.Request);
  Alcotest.(check int) "Find" 0x0F (Opcode.code Opcode.Find);
  Alcotest.(check int) "MRU" 0x13 (Opcode.code Opcode.Mru);
  Alcotest.(check int) "twenty opcodes" 20 (List.length Opcode.all);
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (Opcode.name op ^ " roundtrip")
        true
        (Opcode.of_code (Opcode.code op) = Some op
        && Opcode.of_name (Opcode.name op) = Some op))
    Opcode.all

let test_table2_pagefault_program_bytes () =
  (* The paper's Table 2 PageFault listing, word for word.  The paper
     numbers commands from CC 1 (its magic word sits at CC 0; our image
     keeps the magic out of band), so its jump targets are ours + 1. *)
  let expected =
    [ "02 02 0C 01"  (* if (_free_count > reserved_target)       *)
    ; "06 00 00 04"  (* /* else */ Jump        (paper: Jump 5)   *)
    ; "07 0B 01 01"  (* DeQueue page from _free_queue            *)
    ; "00 0B 00 00"  (* Return page                              *)
    ; "10 02 00 00"  (* Activate Lack_free_frame                 *)
    ; "06 00 00 02"  (* Jump                   (paper: Jump 3)   *)
    ]
  in
  let code = Option.get (Program.code (Policies.fifo_second_chance ()) ~event:0) in
  Alcotest.(check (list string))
    "PageFault bytes match the paper's Table 2" expected
    (List.map
       (fun i -> Format.asprintf "%a" Instr.pp_word (Instr.encode i))
       (Array.to_list code))

(* ------------------------------------------------------------------ *)
(* Program images and the assembler                                    *)
(* ------------------------------------------------------------------ *)

let test_program_image_roundtrip () =
  let program = Policies.fifo_second_chance () in
  let image = Program.to_image program in
  (* magic heads every event *)
  List.iter (fun (_, words) -> Alcotest.(check int32) "magic" Program.magic words.(0)) image;
  match Program.of_image image with
  | Ok program' ->
      Alcotest.(check (list int)) "events" (Program.events program) (Program.events program');
      Alcotest.(check int) "command count" (Program.total_commands program)
        (Program.total_commands program')
  | Error e -> Alcotest.fail e

let test_program_image_bad_magic () =
  let program = Policies.fifo () in
  let image =
    List.map
      (fun (ev, words) ->
        let words = Array.copy words in
        words.(0) <- 0xDEADBEEFl;
        (ev, words))
      (Program.to_image program)
  in
  match Program.of_image image with
  | Error e -> Alcotest.(check bool) "mentions magic" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "accepted bad magic"

let test_program_bytes_roundtrip () =
  List.iter
    (fun p ->
      match Program.of_bytes (Program.to_bytes p) with
      | Ok p' ->
          Alcotest.(check (list int)) "events" (Program.events p) (Program.events p');
          List.iter
            (fun event ->
              let render q =
                Format.asprintf "%a"
                  (Format.pp_print_list Instr.pp)
                  (Array.to_list (Option.get (Program.code q ~event)))
              in
              Alcotest.(check string) "code" (render p) (render p'))
            (Program.events p)
      | Error e -> Alcotest.fail e)
    [ Policies.fifo (); Policies.mru (); Policies.clock (); Policies.fifo_second_chance () ]

let test_program_bytes_rejects_corruption () =
  let good = Program.to_bytes (Policies.fifo ()) in
  (* truncated *)
  (match Program.of_bytes (Bytes.sub good 0 (Bytes.length good - 3)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted truncated buffer");
  (* bad file magic *)
  let bad = Bytes.copy good in
  Bytes.set bad 0 'X';
  (match Program.of_bytes bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad magic");
  (* corrupt the opcode byte of the first command of the first event:
     header (8) + event header (8) + event magic (4) = offset 20 *)
  let bad = Bytes.copy good in
  Bytes.set bad 20 '\xEE';
  match Program.of_bytes bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an unknown opcode"

let test_asm_labels () =
  let open Program.Asm in
  match
    assemble
      [ Label "top"; Op (Instr.Emptyq Std.free_queue); Jump_to "top"; Op (Instr.Return 0) ]
  with
  | Ok code ->
      Alcotest.(check int) "three instrs" 3 (Array.length code);
      Alcotest.(check bool) "jump resolved" true (code.(1) = Instr.Jump 0)
  | Error e -> Alcotest.fail e

let test_asm_undefined_label () =
  match Program.Asm.assemble [ Program.Asm.Jump_to "nowhere" ] with
  | Error e -> Alcotest.(check bool) "names label" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "accepted undefined label"

let test_asm_duplicate_label () =
  let open Program.Asm in
  match assemble [ Label "x"; Op (Instr.Return 0); Label "x"; Op (Instr.Return 0) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted duplicate label"

(* ------------------------------------------------------------------ *)
(* Operands                                                            *)
(* ------------------------------------------------------------------ *)

let test_operand_typed_access () =
  let ops = Operand.create () in
  let _queues =
    Operand.install_std ops ~name:"t" ~free_target:4 ~inactive_target:8 ~reserved_target:2
  in
  Alcotest.(check bool) "int read" true (Operand.read_int ops Std.free_target = Ok 4);
  Alcotest.(check bool) "count reads as int" true (Operand.read_int ops Std.free_count = Ok 0);
  (match Operand.write_int ops Std.free_count 7 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "count must be read-only");
  (match Operand.read_queue ops Std.free_target with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "int read as queue");
  (match Operand.read_int ops 200 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty slot read")

let test_operand_count_is_live () =
  let ops = Operand.create () in
  let queues =
    Operand.install_std ops ~name:"t" ~free_target:4 ~inactive_target:8 ~reserved_target:2
  in
  let tbl = Frame.Table.create ~total:2 in
  Page_queue.enqueue_tail queues.Operand.free
    (Vm_page.create ~frame:(Option.get (Frame.Table.alloc tbl)));
  Alcotest.(check bool) "count follows queue" true
    (Operand.read_int ops Std.free_count = Ok 1)

(* ------------------------------------------------------------------ *)
(* Static validation (the security checker's first duty)               *)
(* ------------------------------------------------------------------ *)

let std_ops () =
  let ops = Operand.create () in
  let _ =
    Operand.install_std ops ~name:"v" ~free_target:4 ~inactive_target:8 ~reserved_target:2
  in
  ops

let one_event_program code =
  Program.make
    [
      (Events.page_fault, code);
      (Events.reclaim_frame, [| Instr.Return Std.null |]);
    ]

let test_validate_accepts_library_policies () =
  let ops = std_ops () in
  List.iter
    (fun (name, p) ->
      match Checker.validate p ops with
      | Ok () -> ()
      | Error e -> Alcotest.fail (name ^ ": " ^ e))
    [
      ("fifo2c", Policies.fifo_second_chance ());
      ("fifo", Policies.fifo ());
      ("lru", Policies.lru ());
      ("mru", Policies.mru ());
      ("clock", Policies.clock ());
      ("greedy", Policies.greedy_request ~flavour:`Mru ~chunk:32);
      ("looping", Policies.looping ());
    ]

let expect_invalid name program =
  match Checker.validate program (std_ops ()) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail (name ^ ": accepted invalid program")

let test_validate_rejects_bad_operand_kind () =
  (* Comp on a queue operand *)
  expect_invalid "comp on queue"
    (one_event_program
       [| Instr.Comp (Std.free_queue, Std.null, Opcode.Comp_op.Eq); Instr.Return 0 |])

let test_validate_rejects_bad_jump () =
  expect_invalid "jump out of range"
    (one_event_program [| Instr.Jump 99; Instr.Return 0 |])

let test_validate_rejects_missing_return () =
  expect_invalid "no return" (one_event_program [| Instr.Jump 0 |])

let test_validate_rejects_fall_off_end () =
  expect_invalid "falls off end"
    (one_event_program [| Instr.Return 0; Instr.Emptyq Std.free_queue |])

let test_validate_rejects_undefined_activate () =
  expect_invalid "undefined event"
    (one_event_program [| Instr.Activate 9; Instr.Return 0 |])

let test_validate_rejects_undeclared_operand () =
  expect_invalid "undeclared operand"
    (one_event_program [| Instr.Emptyq 0x42; Instr.Return 0 |])

let test_validate_requires_mandatory_events () =
  let p = Program.make [ (Events.page_fault, [| Instr.Return Std.null |]) ] in
  match Checker.validate p (std_ops ()) with
  | Error e -> Alcotest.(check bool) "mentions ReclaimFrame" true (String.length e > 0)
  | Ok () -> Alcotest.fail "accepted program without ReclaimFrame"

(* ------------------------------------------------------------------ *)
(* End-to-end: HiPEC system on the simulated kernel                    *)
(* ------------------------------------------------------------------ *)

let make_sys ?(frames = 512) ?checker_timeout ?checker_wakeup ?(start_checker = true)
    ?max_steps () =
  let config = { Kernel.default_config with total_frames = frames; hipec_kernel = true } in
  let k = Kernel.create ~config () in
  let sys = Api.init ?checker_timeout ?checker_wakeup ?max_steps ~start_checker k in
  (k, sys)

let alloc_hipec (k, sys) ?(npages = 64) ?(min_frames = 32) policy =
  let task = Kernel.create_task k () in
  match Api.vm_allocate_hipec sys task ~npages (Api.default_spec ~policy ~min_frames) with
  | Ok (region, container) -> (task, region, container)
  | Error e -> Alcotest.fail ("vm_allocate_hipec: " ^ e)

let test_e2e_fault_within_min_frames () =
  let (k, _) as sys = make_sys () in
  let task, region, container = alloc_hipec sys ~npages:16 ~min_frames:32 (Policies.fifo ()) in
  let faults0 = Task.faults task in
  Kernel.touch_region k task region ~write:false;
  Alcotest.(check int) "16 faults" 16 (Task.faults task - faults0);
  Alcotest.(check int) "all resident" 16 (Container.resident_pages container);
  Alcotest.(check int) "frames held constant" 32 (Container.frames_held container);
  (* re-touch: no more faults *)
  Kernel.touch_region k task region ~write:false;
  Alcotest.(check int) "still 16" 16 (Task.faults task - faults0)

let test_e2e_policy_evicts_beyond_min_frames () =
  let (k, _) as sys = make_sys () in
  let task, region, container =
    alloc_hipec sys ~npages:100 ~min_frames:32 (Policies.fifo_second_chance ())
  in
  let faults0 = Task.faults task in
  Kernel.touch_region k task region ~write:true;
  Kernel.drain_io k;
  Alcotest.(check int) "100 faults" 100 (Task.faults task - faults0);
  Alcotest.(check bool) "resident bounded by allocation" true
    (Container.resident_pages container <= 32);
  Alcotest.(check int) "frames held constant" 32 (Container.frames_held container);
  Alcotest.(check bool) "frames conserved" true
    (Frame.Table.check_conservation (Kernel.frame_table k));
  Alcotest.(check bool) "task alive" true (Task.alive task)

let test_e2e_dirty_eviction_writes_disk () =
  let (k, _) as sys = make_sys () in
  let task, region, _ = alloc_hipec sys ~npages:100 ~min_frames:16 (Policies.fifo ()) in
  Kernel.touch_region k task region ~write:true;
  Kernel.drain_io k;
  Alcotest.(check bool) "flush writes happened" true
    ((Frame_manager.stats (Api.manager (snd sys))).Frame_manager.flush_writes > 0
     || Hipec_machine.Disk.writes_completed (Kernel.disk k) > 0);
  (* evicted dirty pages must come back from swap *)
  let pageins_before = Task.pageins task in
  Kernel.touch_region k task region ~write:false;
  Kernel.drain_io k;
  Alcotest.(check bool) "pages restored from swap" true (Task.pageins task > pageins_before)

let test_e2e_mru_cyclic_fault_count () =
  (* the paper's join analysis: cyclic scan of N pages with M resident
     under MRU faults N the first pass then (N - M + 1) per pass *)
  let (k, _) as sys = make_sys ~frames:1024 () in
  let n = 100 and m = 50 and loops = 4 in
  let task, region, _ = alloc_hipec sys ~npages:n ~min_frames:m (Policies.mru ()) in
  let faults0 = Task.faults task in
  for _ = 1 to loops do
    Kernel.touch_region k task region ~write:false
  done;
  (* MRU keeps a stable prefix resident: faults ~= N + (loops-1)*(N-M+1) *)
  let expected = n + ((loops - 1) * (n - m + 1)) in
  let got = Task.faults task - faults0 in
  Alcotest.(check bool)
    (Printf.sprintf "fault count %d within 5%% of %d" got expected)
    true
    (abs (got - expected) * 20 <= expected)

let test_e2e_fifo_cyclic_thrashes () =
  (* same cyclic scan under FIFO: every access of every pass faults *)
  let (k, _) as sys = make_sys ~frames:1024 () in
  let n = 100 and m = 50 and loops = 4 in
  let task, region, _ = alloc_hipec sys ~npages:n ~min_frames:m (Policies.fifo ()) in
  let faults0 = Task.faults task in
  for _ = 1 to loops do
    Kernel.touch_region k task region ~write:false
  done;
  Alcotest.(check int) "every pass faults everything" (n * loops) (Task.faults task - faults0)

let test_e2e_request_grows_allocation () =
  let (k, _) as sys = make_sys ~frames:512 () in
  let task, region, container =
    alloc_hipec sys ~npages:100 ~min_frames:16
      (Policies.greedy_request ~flavour:`Fifo ~chunk:8)
  in
  Kernel.touch_region k task region ~write:false;
  Alcotest.(check bool) "allocation grew" true (Container.frames_held container > 16);
  Alcotest.(check bool) "requests granted" true
    ((Frame_manager.stats (Api.manager (snd sys))).Frame_manager.requests_granted > 0);
  ignore task

let test_e2e_looping_policy_demoted_by_checker () =
  let (k, _) as sys =
    make_sys ~checker_timeout:(T.ms 10) ~checker_wakeup:(T.ms 250) ~max_steps:5_000 ()
  in
  let task, region, container =
    alloc_hipec sys ~npages:8 ~min_frames:8 (Policies.looping ())
  in
  (* the first fault spins until the checker demotes the region, then
     resolves under the default policy — the task survives *)
  Kernel.access_vpn k task ~vpn:region.Vm_map.start_vpn ~write:false;
  Alcotest.(check bool) "alive" true (Task.alive task);
  Alcotest.(check bool) "degraded" true (Container.degraded container);
  Alcotest.(check bool) "reason exposed" true
    (Api.demotion_reason (snd sys) container <> None);
  Alcotest.(check bool) "checker saw a timeout" true
    (Checker.timeouts_detected (Api.checker (snd sys)) > 0);
  (* the region keeps working end to end under the fallback policy *)
  Kernel.touch_region k task region ~write:true;
  Alcotest.(check bool) "alive after full touch" true (Task.alive task);
  Alcotest.(check int) "no longer admitted" 0
    (List.length (Frame_manager.containers (Api.manager (snd sys))));
  Alcotest.(check bool) "frames conserved after demotion" true
    (Frame.Table.check_conservation (Kernel.frame_table k))

let test_e2e_garbage_policy_demoted () =
  let (k, _) as sys = make_sys () in
  let task, region, container =
    alloc_hipec sys ~npages:8 ~min_frames:8 (Policies.returns_garbage ())
  in
  Kernel.access_vpn k task ~vpn:region.Vm_map.start_vpn ~write:false;
  Alcotest.(check bool) "alive" true (Task.alive task);
  Alcotest.(check bool) "degraded" true (Container.degraded container);
  Kernel.touch_region k task region ~write:false;
  Alcotest.(check bool) "alive after full touch" true (Task.alive task);
  Alcotest.(check bool) "frames conserved" true
    (Frame.Table.check_conservation (Kernel.frame_table k))

let test_e2e_command_buffer_write_kills () =
  let (k, _) as sys = make_sys () in
  let task, _, container = alloc_hipec sys ~npages:8 ~min_frames:8 (Policies.fifo ()) in
  let buffer = Option.get (Api.command_buffer_region (snd sys) container) in
  try
    Kernel.access_vpn k task ~vpn:buffer.Vm_map.start_vpn ~write:true;
    Alcotest.fail "expected termination"
  with Kernel.Task_terminated (_, reason) ->
    Alcotest.(check string) "reason" "attempt to modify a HiPEC command buffer" reason

let test_e2e_invalid_policy_rejected_at_map_time () =
  let k, sys = make_sys () in
  let task = Kernel.create_task k () in
  let bad = one_event_program [| Instr.Jump 40; Instr.Return 0 |] in
  match
    Api.vm_allocate_hipec sys task ~npages:8 (Api.default_spec ~policy:bad ~min_frames:8)
  with
  | Error e -> Alcotest.(check bool) "mentions checker" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "invalid policy admitted"

let test_e2e_admission_rejected_when_oom () =
  let k, sys = make_sys ~frames:64 () in
  let task = Kernel.create_task k () in
  match
    Api.vm_allocate_hipec sys task ~npages:512
      (Api.default_spec ~policy:(Policies.fifo ()) ~min_frames:1024)
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "admitted minFrame beyond physical memory"

let test_e2e_deallocate_returns_frames () =
  let (k, _) as sys = make_sys () in
  let free0 = Frame.Table.free_count (Kernel.frame_table k) in
  let task, region, container = alloc_hipec sys ~npages:32 ~min_frames:32 (Policies.fifo ()) in
  Kernel.touch_region k task region ~write:true;
  Api.vm_deallocate_hipec (snd sys) task container;
  Kernel.drain_io k;
  Alcotest.(check int) "all frames back" free0 (Frame.Table.free_count (Kernel.frame_table k));
  Alcotest.(check bool) "conserved" true (Frame.Table.check_conservation (Kernel.frame_table k))

let test_e2e_reclaim_via_admission_pressure () =
  (* First container takes most of memory via requests; admitting a
     second must reclaim from the first (FAFR normal reclamation). *)
  let (k, _) as sys = make_sys ~frames:256 () in
  let _task1, region1, container1 =
    alloc_hipec sys ~npages:200 ~min_frames:16
      (Policies.greedy_request ~flavour:`Fifo ~chunk:16)
  in
  Kernel.touch_region k (Container.task container1) region1 ~write:false;
  let held_before = Container.frames_held container1 in
  Alcotest.(check bool) "first grew fat" true (held_before > 100);
  let task2 = Kernel.create_task k () in
  (match
     Api.vm_allocate_hipec (snd sys) task2 ~npages:64
       (Api.default_spec ~policy:(Policies.fifo ()) ~min_frames:160)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("second admission failed: " ^ e));
  Alcotest.(check bool) "first shrank" true (Container.frames_held container1 < held_before);
  Alcotest.(check bool) "reclaim events ran" true
    ((Frame_manager.stats (Api.manager (snd sys))).Frame_manager.reclaim_events > 0)

let test_e2e_partition_burst_balance () =
  let (k, _) as sys = make_sys ~frames:256 () in
  let manager = Api.manager (snd sys) in
  Frame_manager.set_partition_burst manager 64;
  let _task, region, container =
    alloc_hipec sys ~npages:200 ~min_frames:16
      (Policies.greedy_request ~flavour:`Fifo ~chunk:16)
  in
  Kernel.touch_region k (Container.task container) region ~write:false;
  (* balance keeps the specific total from running away past the burst:
     overage is reclaimed down toward the watermark after each grant *)
  Alcotest.(check bool)
    (Printf.sprintf "specific total %d stays near burst 64" (Frame_manager.specific_total manager))
    true
    (Frame_manager.specific_total manager <= 96)

let test_e2e_fafr_order () =
  let (_, _) as sys = make_sys ~frames:512 () in
  let _, _, c1 = alloc_hipec sys ~npages:8 ~min_frames:8 (Policies.fifo ()) in
  let _, _, c2 = alloc_hipec sys ~npages:8 ~min_frames:8 (Policies.fifo ()) in
  let _, _, c3 = alloc_hipec sys ~npages:8 ~min_frames:8 (Policies.fifo ()) in
  let order = List.map Container.id (Frame_manager.containers (Api.manager (snd sys))) in
  Alcotest.(check (list int)) "allocation order"
    [ Container.id c1; Container.id c2; Container.id c3 ]
    order

let test_e2e_hipec_overhead_small () =
  (* Table 3's shape: HiPEC handling of the same workload under the same
     policy costs only a couple of percent more than the native kernel *)
  let run_hipec () =
    let (k, _) as sys = make_sys ~frames:16_384 () in
    let task, region, _ =
      alloc_hipec sys ~npages:1024 ~min_frames:1024 (Policies.fifo_second_chance ())
    in
    let t0 = Kernel.now k in
    Kernel.touch_region k task region ~write:false;
    T.to_ms_f (T.sub (Kernel.now k) t0)
  in
  let run_native () =
    let k = Kernel.create ~config:{ Kernel.default_config with total_frames = 16_384 } () in
    let task = Kernel.create_task k () in
    let region = Kernel.vm_allocate k task ~npages:1024 in
    let t0 = Kernel.now k in
    Kernel.touch_region k task region ~write:false;
    T.to_ms_f (T.sub (Kernel.now k) t0)
  in
  let hipec = run_hipec () and native = run_native () in
  let overhead = (hipec -. native) /. native *. 100. in
  Alcotest.(check bool)
    (Printf.sprintf "overhead %.2f%% in [0.5, 4]" overhead)
    true
    (overhead > 0.5 && overhead < 4.0)

(* ------------------------------------------------------------------ *)
(* Checker dynamics                                                    *)
(* ------------------------------------------------------------------ *)

let test_map_object_hipec_rejects_managed () =
  let (k, _) as sys = make_sys () in
  let _task, region, _ = alloc_hipec sys ~npages:8 ~min_frames:8 (Policies.fifo ()) in
  let task2 = Kernel.create_task k () in
  match
    Api.vm_map_object_hipec (snd sys) task2 ~obj:region.Vm_map.obj
      (Api.default_spec ~policy:(Policies.fifo ()) ~min_frames:8)
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "double-managed an object"

let test_checker_interval_halves_on_timeout () =
  let (k, _) as sys =
    make_sys ~checker_timeout:(T.ms 10) ~checker_wakeup:(T.sec 4) ~max_steps:2_000 ()
  in
  let checker = Api.checker (snd sys) in
  let before = T.to_ns (Checker.wakeup_interval checker) in
  let task, region, _ = alloc_hipec sys ~npages:8 ~min_frames:8 (Policies.looping ()) in
  Kernel.access_vpn k task ~vpn:region.Vm_map.start_vpn ~write:false;
  Alcotest.(check bool) "interval halved after a detection" true
    (T.to_ns (Checker.wakeup_interval checker) <= before / 2)

let test_checker_adaptive_sleep_doubles () =
  let k, sys = make_sys ~start_checker:false ~checker_wakeup:(T.ms 500) () in
  let checker = Api.checker sys in
  Checker.start checker;
  (* no timeouts: interval doubles until the 8 s clamp *)
  Engine.run_until (Kernel.engine k) (T.sec 120);
  Alcotest.(check int) "clamped at 8s" (T.to_ns Checker.max_wakeup)
    (T.to_ns (Checker.wakeup_interval checker));
  Alcotest.(check bool) "scans happened" true (Checker.scans checker > 3);
  Checker.stop checker

let test_checker_clamps_at_min () =
  let _k, sys = make_sys ~start_checker:false () in
  let checker = Api.checker sys in
  (* a checker created with a tiny interval is clamped up to 250 ms *)
  ignore checker;
  let k2, sys2 = make_sys ~start_checker:false ~checker_wakeup:(T.ms 1) () in
  ignore k2;
  Alcotest.(check int) "clamped to 250ms" (T.to_ns Checker.min_wakeup)
    (T.to_ns (Checker.wakeup_interval (Api.checker sys2)))

let test_checker_scan_demotes_stamped_container () =
  let (k, _) as sys = make_sys ~start_checker:false ~checker_timeout:(T.ms 5) () in
  let task, _, container = alloc_hipec sys ~npages:8 ~min_frames:8 (Policies.fifo ()) in
  (* simulate an executor stuck since long ago *)
  Container.set_execution_started container (Some (Kernel.now k));
  Hipec_sim.Engine.advance (Kernel.engine k) (T.ms 50);
  let demoted = Checker.scan_now (Api.checker (snd sys)) in
  Alcotest.(check int) "one demotion" 1 demoted;
  Alcotest.(check bool) "task alive" true (Task.alive task);
  Alcotest.(check bool) "degraded" true (Container.degraded container);
  Alcotest.(check bool) "container un-admitted" true
    (Frame_manager.containers (Api.manager (snd sys)) = []);
  Alcotest.(check bool) "frames conserved" true
    (Frame.Table.check_conservation (Kernel.frame_table k))

let test_forced_reclaim_seizes_resident_pages () =
  let (k, _) as sys = make_sys ~frames:512 () in
  let task, region, container = alloc_hipec sys ~npages:32 ~min_frames:32 (Policies.fifo ()) in
  Kernel.touch_region k task region ~write:true;
  Alcotest.(check int) "all resident" 32 (Container.resident_pages container);
  let manager = Api.manager (snd sys) in
  let free_before = Frame.Table.free_count (Kernel.frame_table k) in
  let got = Frame_manager.forced_reclaim manager ~need:10 ~exclude:None in
  Alcotest.(check bool) (Printf.sprintf "seized %d >= 10" got) true (got >= 10);
  Alcotest.(check int) "frames freed" (free_before + got)
    (Frame.Table.free_count (Kernel.frame_table k));
  Alcotest.(check int) "container accounting" (32 - got) (Container.frames_held container);
  Alcotest.(check bool) "seizure counted" true
    ((Frame_manager.stats manager).Frame_manager.forced_seizures >= 10);
  (* the victim task survives: its pages refault on next touch *)
  Kernel.touch_region k task region ~write:false;
  Alcotest.(check bool) "task alive" true (Task.alive task);
  Kernel.drain_io k;
  Alcotest.(check bool) "conserved" true (Frame.Table.check_conservation (Kernel.frame_table k))

let test_forced_reclaim_respects_exclude () =
  let (_, _) as sys = make_sys ~frames:512 () in
  let _, _, c1 = alloc_hipec sys ~npages:16 ~min_frames:16 (Policies.fifo ()) in
  let manager = Api.manager (snd sys) in
  let got = Frame_manager.forced_reclaim manager ~need:8 ~exclude:(Some c1) in
  Alcotest.(check int) "nothing to seize" 0 got;
  Alcotest.(check int) "untouched" 16 (Container.frames_held c1)

(* ------------------------------------------------------------------ *)
(* Frame migration (paper section 6, future work)                      *)
(* ------------------------------------------------------------------ *)

let test_migrate_moves_free_slots () =
  let (_, _) as sys = make_sys ~frames:512 () in
  let _, _, c1 = alloc_hipec sys ~npages:32 ~min_frames:32 (Policies.fifo ()) in
  let _, _, c2 = alloc_hipec sys ~npages:32 ~min_frames:16 (Policies.fifo ()) in
  let manager = Api.manager (snd sys) in
  let total_before = Frame_manager.specific_total manager in
  let moved = Api.migrate_frames (snd sys) ~src:c1 ~dst:c2 ~n:10 in
  Alcotest.(check int) "ten moved" 10 moved;
  Alcotest.(check int) "src shrank" 22 (Container.frames_held c1);
  Alcotest.(check int) "dst grew" 26 (Container.frames_held c2);
  Alcotest.(check int) "total unchanged" total_before (Frame_manager.specific_total manager);
  Alcotest.(check int) "dst free queue got them" 26
    (Page_queue.length (Container.free_queue c2))

let test_migrate_capped_by_free_slots () =
  let (k, _) as sys = make_sys ~frames:512 () in
  let _, region1, c1 = alloc_hipec sys ~npages:32 ~min_frames:32 (Policies.fifo ()) in
  let _, _, c2 = alloc_hipec sys ~npages:32 ~min_frames:16 (Policies.fifo ()) in
  (* fault 30 pages in c1: only 2 free slots remain migratable *)
  for i = 0 to 29 do
    Kernel.access_vpn k (Container.task c1) ~vpn:(region1.Vm_map.start_vpn + i) ~write:false
  done;
  let moved = Api.migrate_frames (snd sys) ~src:c1 ~dst:c2 ~n:10 in
  Alcotest.(check int) "only the free slots moved" 2 moved;
  Alcotest.(check int) "src accounting" 30 (Container.frames_held c1)

let test_migrate_rejects_self_and_foreign () =
  let (_, _) as sys = make_sys ~frames:512 () in
  let _, _, c1 = alloc_hipec sys ~npages:8 ~min_frames:8 (Policies.fifo ()) in
  (try
     ignore (Api.migrate_frames (snd sys) ~src:c1 ~dst:c1 ~n:1);
     Alcotest.fail "self migration accepted"
   with Invalid_argument _ -> ());
  (* a torn-down container is no longer a valid endpoint *)
  let _, _, c2 = alloc_hipec sys ~npages:8 ~min_frames:8 (Policies.fifo ()) in
  Api.vm_deallocate_hipec (snd sys) (Container.task c2) c2;
  try
    ignore (Api.migrate_frames (snd sys) ~src:c1 ~dst:c2 ~n:1);
    Alcotest.fail "migration to a removed container accepted"
  with Invalid_argument _ -> ()

let test_migrated_frames_usable_by_destination () =
  let (k, _) as sys = make_sys ~frames:512 () in
  let _, _, c1 = alloc_hipec sys ~npages:64 ~min_frames:64 (Policies.fifo ()) in
  let _, region2, c2 = alloc_hipec sys ~npages:64 ~min_frames:8 (Policies.fifo ()) in
  ignore (Api.migrate_frames (snd sys) ~src:c1 ~dst:c2 ~n:56);
  (* c2 can now keep all 64 pages resident without evicting *)
  Kernel.touch_region k (Container.task c2) region2 ~write:false;
  Kernel.touch_region k (Container.task c2) region2 ~write:false;
  Alcotest.(check int) "all resident, no refaults" 64 (Container.resident_pages c2);
  Alcotest.(check bool) "frames conserved" true
    (Frame.Table.check_conservation (Kernel.frame_table k))

(* ------------------------------------------------------------------ *)
(* Lint: the structural rules among the analysis findings              *)
(* ------------------------------------------------------------------ *)

let structural_rules =
  [ "self-loop"; "jump-cycle"; "unreachable"; "orphan-event"; "request-in-reclaim" ]

(* (rule id, message) of every structural finding *)
let lint_findings program =
  List.filter_map
    (fun f ->
      if List.mem f.Analysis.rule structural_rules then
        Some (f.Analysis.rule, f.Analysis.message)
      else None)
    (Analysis.findings (Analysis.analyze program))

let test_lint_clean_policies () =
  List.iter
    (fun p ->
      Alcotest.(check (list (pair string string))) "no warnings" [] (lint_findings p))
    [ Policies.fifo (); Policies.mru (); Policies.clock (); Policies.fifo_second_chance () ]

let test_lint_detects_self_loop () =
  let warnings = lint_findings (Policies.looping ()) in
  Alcotest.(check bool) "self-loop flagged" true
    (List.mem ("self-loop", "unconditional self-jump never terminates") warnings)

let test_lint_detects_unreachable () =
  let program =
    one_event_program
      [| Instr.Return Std.null; Instr.Arith (Std.scratch0, Std.null, Opcode.Arith_op.Inc);
         Instr.Return Std.null |]
  in
  let warnings = lint_findings program in
  Alcotest.(check bool) "unreachable flagged" true
    (List.mem ("unreachable", "command is unreachable") warnings)

let test_lint_detects_orphan_event () =
  let program =
    Program.make
      [
        (Events.page_fault, [| Instr.Return Std.null |]);
        (Events.reclaim_frame, [| Instr.Return Std.null |]);
        (5, [| Instr.Return Std.null |]);
      ]
  in
  let warnings = lint_findings program in
  Alcotest.(check bool) "orphan flagged" true
    (List.mem ("orphan-event", "user event is never activated") warnings)

let test_lint_detects_request_in_reclaim () =
  let program =
    Program.make
      [
        (Events.page_fault, [| Instr.Return Std.null |]);
        (Events.reclaim_frame,
         [| Instr.Request 8; Instr.Jump 2; Instr.Return Std.null |]);
      ]
  in
  let warnings = lint_findings program in
  Alcotest.(check bool) "request-in-reclaim flagged" true
    (List.mem
       ("request-in-reclaim", "Request while the manager is reclaiming can thrash")
       warnings)

let test_lint_request_via_activation_detected () =
  let program =
    Program.make
      [
        (Events.page_fault, [| Instr.Return Std.null |]);
        (Events.reclaim_frame, [| Instr.Activate 2; Instr.Return Std.null |]);
        (2, [| Instr.Request 8; Instr.Jump 2; Instr.Return Std.null |]);
      ]
  in
  let warnings = lint_findings program in
  Alcotest.(check bool) "transitive request flagged" true
    (List.mem
       ("request-in-reclaim", "Request while the manager is reclaiming can thrash")
       warnings)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_instr_word_roundtrip =
  (* arbitrary valid instructions roundtrip through the 32-bit word *)
  let gen =
    QCheck.Gen.(
      let ix = int_bound 255 in
      oneof
        [
          map (fun a -> Instr.Return a) ix;
          map3 (fun a b f -> Instr.Arith (a, b, Option.get (Opcode.Arith_op.of_code (1 + (f mod 7))))) ix ix (int_bound 100);
          map3 (fun a b f -> Instr.Comp (a, b, Option.get (Opcode.Comp_op.of_code (1 + (f mod 6))))) ix ix (int_bound 100);
          map (fun cc -> Instr.Jump cc) (int_bound 65535);
          map3 (fun p q f -> Instr.Dequeue (p, q, if f mod 2 = 0 then Opcode.Queue_end.Head else Opcode.Queue_end.Tail)) ix ix (int_bound 100);
          map (fun n -> Instr.Request n) ix;
          map (fun q -> Instr.Mru q) ix;
        ])
  in
  QCheck.Test.make ~name:"instruction word roundtrip" ~count:500 (QCheck.make gen)
    (fun instr ->
      match Instr.decode (Instr.encode instr) with Ok i -> i = instr | Error _ -> false)

let prop_validated_policies_never_runtime_error_on_fault =
  (* any of the library policies, any touch pattern: the task survives
     and frames are conserved *)
  QCheck.Test.make ~name:"library policies never kill the task" ~count:25
    QCheck.(pair (int_bound 4) (list_of_size Gen.(1 -- 80) (int_bound 59)))
    (fun (which, touches) ->
      let policy =
        match which with
        | 0 -> Policies.fifo ()
        | 1 -> Policies.lru ()
        | 2 -> Policies.mru ()
        | 3 -> Policies.clock ()
        | _ -> Policies.fifo_second_chance ()
      in
      let (k, _) as sys = make_sys ~frames:256 () in
      let task, region, _ = alloc_hipec sys ~npages:60 ~min_frames:24 policy in
      List.iter
        (fun i ->
          Kernel.access_vpn k task ~vpn:(region.Vm_map.start_vpn + i) ~write:(i mod 3 = 0))
        touches;
      Kernel.drain_io k;
      Task.alive task && Frame.Table.check_conservation (Kernel.frame_table k))

let prop_frames_held_equals_slots_plus_resident =
  QCheck.Test.make ~name:"container frame accounting balances" ~count:25
    QCheck.(list_of_size Gen.(1 -- 60) (int_bound 49))
    (fun touches ->
      let (k, _) as sys = make_sys ~frames:256 () in
      let _task, region, container =
        alloc_hipec sys ~npages:50 ~min_frames:20 (Policies.fifo_second_chance ())
      in
      List.iter
        (fun i ->
          Kernel.access_vpn k (Container.task container)
            ~vpn:(region.Vm_map.start_vpn + i) ~write:false)
        touches;
      let queued =
        Page_queue.length (Container.free_queue container)
        + Page_queue.length (Container.active_queue container)
        + Page_queue.length (Container.inactive_queue container)
      in
      (* every held frame is either a queued slot or an off-queue resident
         page (there are none of the latter outside event execution) *)
      Container.frames_held container = queued)

(* Fuzz the executor: random instruction streams that happen to pass
   static validation must run without OCaml exceptions, and the machine
   must stay consistent whatever the outcome. *)
let prop_validated_random_programs_never_crash =
  let instr_gen =
    QCheck.Gen.(
      let slot = oneofl [ Std.null; Std.free_queue; Std.free_count; Std.active_queue;
                          Std.inactive_queue; Std.page_reg; Std.scratch0; Std.scratch1;
                          Std.free_target; Std.fault_va ] in
      oneof
        [
          map2 (fun a b -> Instr.Arith (a, b, Opcode.Arith_op.Add)) slot slot;
          map2 (fun a b -> Instr.Comp (a, b, Opcode.Comp_op.Lt)) slot slot;
          map (fun q -> Instr.Emptyq q) slot;
          map2 (fun p q -> Instr.Dequeue (p, q, Opcode.Queue_end.Head)) slot slot;
          map2 (fun p q -> Instr.Enqueue (p, q, Opcode.Queue_end.Tail)) slot slot;
          map (fun q -> Instr.Fifo q) slot;
          map (fun q -> Instr.Mru q) slot;
          map (fun p -> Instr.Ref p) slot;
          map (fun p -> Instr.Flush p) slot;
          map (fun n -> Instr.Request (n mod 8)) (int_bound 100);
          return (Instr.Release Std.scratch0);
          map (fun p -> Instr.Set (p, Opcode.Bit_action.Reset_bit, Opcode.Bit_which.Reference)) slot;
        ])
  in
  let gen = QCheck.Gen.(list_size (1 -- 12) instr_gen) in
  QCheck.Test.make ~name:"validated random programs never crash the kernel" ~count:200
    (QCheck.make gen)
    (fun instrs ->
      (* enforce the skip-next discipline mechanically, then terminate *)
      let with_jumps =
        List.concat_map
          (fun i ->
            if Opcode.is_test (Instr.opcode i) then [ i; Instr.Jump 0 ] else [ i ])
          instrs
      in
      let code = Array.of_list (with_jumps @ [ Instr.Return Std.page_reg ]) in
      let program =
        Program.make
          [ (Events.page_fault, code); (Events.reclaim_frame, [| Instr.Return Std.null |]) ]
      in
      let k, sys = make_sys ~frames:128 ~start_checker:false ~max_steps:2_000 () in
      let task = Kernel.create_task k () in
      match
        Api.vm_allocate_hipec sys task ~npages:16
          (Api.default_spec ~policy:program ~min_frames:16)
      with
      | Error _ -> true (* validation rejected it: nothing to run *)
      | Ok (region, _) -> (
          match Kernel.access_vpn k task ~vpn:region.Vm_map.start_vpn ~write:false with
          | () -> Frame.Table.check_conservation (Kernel.frame_table k)
          | exception Kernel.Task_terminated _ ->
              Frame.Table.check_conservation (Kernel.frame_table k)))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "hipec"
    [
      ( "encoding",
        [
          Alcotest.test_case "roundtrip" `Quick test_encode_decode_roundtrip;
          Alcotest.test_case "table 2 bytes" `Quick test_table2_byte_encoding;
          Alcotest.test_case "rejects garbage" `Quick test_decode_rejects_garbage;
          Alcotest.test_case "table 1 opcode codes" `Quick test_opcode_codes_match_table1;
          Alcotest.test_case "table 2 PageFault golden" `Quick
            test_table2_pagefault_program_bytes;
        ] );
      ( "program",
        [
          Alcotest.test_case "image roundtrip" `Quick test_program_image_roundtrip;
          Alcotest.test_case "bad magic" `Quick test_program_image_bad_magic;
          Alcotest.test_case "bytes roundtrip" `Quick test_program_bytes_roundtrip;
          Alcotest.test_case "bytes reject corruption" `Quick
            test_program_bytes_rejects_corruption;
          Alcotest.test_case "asm labels" `Quick test_asm_labels;
          Alcotest.test_case "asm undefined label" `Quick test_asm_undefined_label;
          Alcotest.test_case "asm duplicate label" `Quick test_asm_duplicate_label;
        ] );
      ( "operand",
        [
          Alcotest.test_case "typed access" `Quick test_operand_typed_access;
          Alcotest.test_case "live counts" `Quick test_operand_count_is_live;
        ] );
      ( "validation",
        [
          Alcotest.test_case "accepts library policies" `Quick
            test_validate_accepts_library_policies;
          Alcotest.test_case "rejects bad operand kind" `Quick
            test_validate_rejects_bad_operand_kind;
          Alcotest.test_case "rejects bad jump" `Quick test_validate_rejects_bad_jump;
          Alcotest.test_case "rejects missing return" `Quick
            test_validate_rejects_missing_return;
          Alcotest.test_case "rejects fall off end" `Quick test_validate_rejects_fall_off_end;
          Alcotest.test_case "rejects undefined activate" `Quick
            test_validate_rejects_undefined_activate;
          Alcotest.test_case "rejects undeclared operand" `Quick
            test_validate_rejects_undeclared_operand;
          Alcotest.test_case "requires mandatory events" `Quick
            test_validate_requires_mandatory_events;
        ] );
      ( "end_to_end",
        [
          Alcotest.test_case "fault within min frames" `Quick test_e2e_fault_within_min_frames;
          Alcotest.test_case "policy evicts beyond min" `Quick
            test_e2e_policy_evicts_beyond_min_frames;
          Alcotest.test_case "dirty eviction writes disk" `Quick
            test_e2e_dirty_eviction_writes_disk;
          Alcotest.test_case "mru cyclic fault count" `Quick test_e2e_mru_cyclic_fault_count;
          Alcotest.test_case "fifo cyclic thrashes" `Quick test_e2e_fifo_cyclic_thrashes;
          Alcotest.test_case "request grows allocation" `Quick
            test_e2e_request_grows_allocation;
          Alcotest.test_case "looping policy demoted" `Quick
            test_e2e_looping_policy_demoted_by_checker;
          Alcotest.test_case "garbage policy demoted" `Quick
            test_e2e_garbage_policy_demoted;
          Alcotest.test_case "command buffer write kills" `Quick
            test_e2e_command_buffer_write_kills;
          Alcotest.test_case "invalid policy rejected" `Quick
            test_e2e_invalid_policy_rejected_at_map_time;
          Alcotest.test_case "admission rejected when oom" `Quick
            test_e2e_admission_rejected_when_oom;
          Alcotest.test_case "deallocate returns frames" `Quick
            test_e2e_deallocate_returns_frames;
          Alcotest.test_case "reclaim via admission pressure" `Quick
            test_e2e_reclaim_via_admission_pressure;
          Alcotest.test_case "partition burst balance" `Quick test_e2e_partition_burst_balance;
          Alcotest.test_case "fafr order" `Quick test_e2e_fafr_order;
          Alcotest.test_case "hipec overhead small" `Quick test_e2e_hipec_overhead_small;
        ] );
      ( "reclamation",
        [
          Alcotest.test_case "forced reclaim seizes" `Quick
            test_forced_reclaim_seizes_resident_pages;
          Alcotest.test_case "forced reclaim excludes" `Quick
            test_forced_reclaim_respects_exclude;
        ] );
      ( "migration",
        [
          Alcotest.test_case "moves free slots" `Quick test_migrate_moves_free_slots;
          Alcotest.test_case "capped by free slots" `Quick test_migrate_capped_by_free_slots;
          Alcotest.test_case "rejects self and foreign" `Quick
            test_migrate_rejects_self_and_foreign;
          Alcotest.test_case "frames usable by dst" `Quick
            test_migrated_frames_usable_by_destination;
        ] );
      ( "lint",
        [
          Alcotest.test_case "clean policies" `Quick test_lint_clean_policies;
          Alcotest.test_case "self loop" `Quick test_lint_detects_self_loop;
          Alcotest.test_case "unreachable" `Quick test_lint_detects_unreachable;
          Alcotest.test_case "orphan event" `Quick test_lint_detects_orphan_event;
          Alcotest.test_case "request in reclaim" `Quick test_lint_detects_request_in_reclaim;
          Alcotest.test_case "request via activation" `Quick
            test_lint_request_via_activation_detected;
        ] );
      ( "checker",
        [
          Alcotest.test_case "adaptive sleep doubles" `Quick
            test_checker_adaptive_sleep_doubles;
          Alcotest.test_case "clamps at min" `Quick test_checker_clamps_at_min;
          Alcotest.test_case "scan demotes stamped container" `Quick
            test_checker_scan_demotes_stamped_container;
          Alcotest.test_case "interval halves on timeout" `Quick
            test_checker_interval_halves_on_timeout;
          Alcotest.test_case "map object rejects managed" `Quick
            test_map_object_hipec_rejects_managed;
        ] );
      ( "properties",
        qc
          [
            prop_instr_word_roundtrip;
            prop_validated_policies_never_runtime_error_on_fault;
            prop_frames_held_equals_slots_plus_resident;
            prop_validated_random_programs_never_crash;
          ] );
    ]
