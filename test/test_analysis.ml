(* The abstract-interpretation framework (Analysis): interval algebra,
   structural CFG helpers, typestate findings, static fuel bounds, and
   the two soundness properties the rest of the stack leans on:

   (a) a trap class the analysis proves absent never occurs at run
       time — checked by running random checker-accepted programs
       through the real fault path and matching demotion reasons
       against the proven-absent classes;

   (b) a claimed [Bounded n] fuel verdict really bounds the commands
       one entry executes — checked by driving the executor directly,
       entry by entry, against a non-re-entrant service stub.

   The backend differential (compiled == interp on random programs)
   lives in test_backend.ml. *)

open Hipec_vm
open Hipec_core
module Std = Operand.Std
module I = Analysis.Interval

let ivl = Alcotest.testable Analysis.Interval.pp Analysis.Interval.equal

(* ------------------------------------------------------------------ *)
(* Interval algebra                                                    *)
(* ------------------------------------------------------------------ *)

let test_interval_algebra () =
  Alcotest.(check ivl) "join of constants" (I.make (Some 1) (Some 5))
    (I.join (I.const 1) (I.const 5));
  Alcotest.(check bool) "top is top" true (I.is_top (I.join I.top (I.const 3)));
  Alcotest.(check (option int)) "is_const" (Some 4) (I.is_const (I.const 4));
  Alcotest.(check bool) "contains" true (I.contains (I.make (Some 0) None) 99);
  Alcotest.(check ivl) "add" (I.make (Some 4) (Some 6))
    (I.apply Opcode.Arith_op.Add (I.make (Some 1) (Some 2)) (I.make (Some 3) (Some 4)));
  Alcotest.(check ivl) "sub" (I.make (Some (-3)) (Some (-1)))
    (I.apply Opcode.Arith_op.Sub (I.make (Some 1) (Some 2)) (I.make (Some 3) (Some 4)));
  Alcotest.(check ivl) "mul crosses zero" (I.make (Some (-10)) (Some 15))
    (I.apply Opcode.Arith_op.Mul (I.make (Some (-2)) (Some 3)) (I.make (Some 4) (Some 5)));
  Alcotest.(check ivl) "div by a nonzero interval" (I.make (Some 2) (Some 10))
    (I.apply Opcode.Arith_op.Div (I.make (Some 10) (Some 20)) (I.make (Some 2) (Some 4)));
  Alcotest.(check bool) "div by an interval containing zero is top" true
    (I.is_top
       (I.apply Opcode.Arith_op.Div (I.const 10) (I.make (Some (-1)) (Some 1))));
  Alcotest.(check ivl) "rem by a positive interval" (I.make (Some 0) (Some 6))
    (I.apply Opcode.Arith_op.Rem (I.make (Some 0) None) (I.make (Some 3) (Some 7)));
  Alcotest.(check ivl) "inc shifts" (I.make (Some 2) (Some 3))
    (I.apply Opcode.Arith_op.Inc (I.make (Some 1) (Some 2)) I.top)

let test_interval_comp_meet_widen () =
  Alcotest.(check bool) "lt always true" true
    (I.comp Opcode.Comp_op.Lt (I.make (Some 0) (Some 5)) (I.make (Some 10) (Some 20))
    = `Always_true);
  Alcotest.(check bool) "gt always false" true
    (I.comp Opcode.Comp_op.Gt (I.make (Some 0) (Some 5)) (I.make (Some 10) (Some 20))
    = `Always_false);
  Alcotest.(check bool) "overlap unknown" true
    (I.comp Opcode.Comp_op.Lt (I.make (Some 0) (Some 5)) (I.make (Some 3) (Some 9))
    = `Unknown);
  Alcotest.(check bool) "eq of equal constants" true
    (I.comp Opcode.Comp_op.Eq (I.const 7) (I.const 7) = `Always_true);
  Alcotest.(check (option ivl)) "disjoint meet is a contradiction" None
    (I.meet (I.make (Some 0) (Some 2)) (I.make (Some 5) (Some 9)));
  Alcotest.(check (option ivl)) "overlapping meet"
    (Some (I.make (Some 3) (Some 5)))
    (I.meet (I.make (Some 0) (Some 5)) (I.make (Some 3) (Some 9)));
  (* an unstable upper bound snaps to the nearest threshold, then inf *)
  Alcotest.(check ivl) "widen snaps to a threshold"
    (I.make (Some 0) (Some 10))
    (I.widen ~thresholds:[ 0; 10 ] (I.make (Some 0) (Some 1)) (I.make (Some 0) (Some 2)));
  Alcotest.(check ivl) "widen past the last threshold"
    (I.make (Some 0) None)
    (I.widen ~thresholds:[ 0; 10 ] (I.make (Some 0) (Some 10))
       (I.make (Some 0) (Some 11)));
  Alcotest.(check string) "pretty-printing" "[1,3]" (I.to_string (I.make (Some 1) (Some 3)))

(* ------------------------------------------------------------------ *)
(* Structural helpers                                                  *)
(* ------------------------------------------------------------------ *)

let test_structural () =
  let code =
    [|
      Instr.Comp (Std.first_user, Std.first_user, Opcode.Comp_op.Eq);
      Instr.Jump 3;
      Instr.Return Std.null;
      Instr.Return Std.null;
    |]
  in
  Alcotest.(check (list int)) "test branches to cc+1 and cc+2" [ 1; 2 ]
    (List.sort compare (Analysis.successors code 0));
  Alcotest.(check (list (list int))) "three-jump cycle"
    [ [ 0; 1; 2 ] ]
    (Analysis.jump_only_cycles [| Instr.Jump 1; Instr.Jump 2; Instr.Jump 0 |]);
  Alcotest.(check (list (list int))) "self-jump is not a multi-command cycle" []
    (Analysis.jump_only_cycles [| Instr.Jump 0 |]);
  Alcotest.(check (list (list int))) "a jump chain that exits is no cycle" []
    (Analysis.jump_only_cycles [| Instr.Jump 1; Instr.Jump 2; Instr.Return Std.null |])

let test_check_termination () =
  (match Checker.check_termination [||] with
  | Error msg -> Alcotest.(check string) "empty body errors cleanly" "empty event body" msg
  | Ok () -> Alcotest.fail "empty body accepted");
  (match Checker.check_termination [| Instr.Return Std.null |] with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("return-terminated body rejected: " ^ e));
  match
    Checker.check_termination
      [| Instr.Arith (Std.first_user, Std.first_user, Opcode.Arith_op.Inc) |]
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "body falling off the end accepted"

(* ------------------------------------------------------------------ *)
(* Lint (the structural rules among the findings)                     *)
(* ------------------------------------------------------------------ *)

let lint_messages program =
  List.map
    (fun f -> (f.Analysis.event, f.Analysis.cc, f.Analysis.rule, f.Analysis.message))
    (Analysis.findings (Analysis.analyze program))

let test_lint_jump_cycle_and_unreachable () =
  let program =
    Program.make
      [
        (Events.page_fault, [| Instr.Jump 2; Instr.Return Std.null; Instr.Jump 3; Instr.Jump 2 |]);
        (Events.reclaim_frame, [| Instr.Return Std.null |]);
      ]
  in
  let msgs = lint_messages program in
  Alcotest.(check bool) "jump cycle reported" true
    (List.mem
       ( Events.page_fault,
         Some 2,
         "jump-cycle",
         "unconditional jump cycle through CC 2, 3 never terminates" )
       msgs);
  Alcotest.(check bool) "skipped return reported unreachable" true
    (List.mem (Events.page_fault, Some 1, "unreachable", "command is unreachable") msgs)

let test_lint_orphan_and_reclaim_request () =
  let program =
    Program.make
      [
        (Events.page_fault, [| Instr.Return Std.null |]);
        ( Events.reclaim_frame,
          [| Instr.Request 2; Instr.Jump 2; Instr.Return Std.null |] );
        (Events.first_user, [| Instr.Return Std.null |]);
      ]
  in
  let msgs = lint_messages program in
  Alcotest.(check bool) "orphan user event reported" true
    (List.mem (Events.first_user, None, "orphan-event", "user event is never activated") msgs);
  Alcotest.(check bool) "Request inside ReclaimFrame reported" true
    (List.mem
       ( Events.reclaim_frame,
         None,
         "request-in-reclaim",
         "Request while the manager is reclaiming can thrash" )
       msgs)

(* ------------------------------------------------------------------ *)
(* Semantic findings                                                   *)
(* ------------------------------------------------------------------ *)

let x_slot = Std.first_user
let d_slot = Std.first_user + 1
let p_slot = Std.first_user + 2

let mk_ops ?(extra = []) () =
  let ops = Operand.create () in
  ignore
    (Operand.install_std ops ~name:"t" ~free_target:4 ~inactive_target:8
       ~reserved_target:2);
  List.iter (fun (ix, v) -> Operand.set ops ix v) extra;
  ops

let reclaim_stub = (Events.reclaim_frame, [| Instr.Return Std.null |])

let analyze_pf ?(extra = []) code =
  let ops =
    mk_ops
      ~extra:
        ([ (x_slot, Operand.Int (ref 0)); (p_slot, Operand.Page (ref None)) ] @ extra)
      ()
  in
  Analysis.analyze ~ops (Program.make [ (Events.page_fault, code); reclaim_stub ])

let has_finding ?cc ?severity rule a =
  List.exists
    (fun f ->
      f.Analysis.rule = rule
      && (match cc with None -> true | Some c -> f.Analysis.cc = Some c)
      && match severity with None -> true | Some s -> f.Analysis.severity = s)
    (Analysis.findings a)

let test_nonzero_divisor_facts () =
  (* divisor is an install-time constant no event writes: the analysis
     proves it nonzero and the class absent *)
  let a =
    analyze_pf
      ~extra:[ (d_slot, Operand.Int (ref 7)) ]
      [| Instr.Arith (x_slot, d_slot, Opcode.Arith_op.Div); Instr.Return Std.null |]
  in
  Alcotest.(check bool) "div-by-zero proven absent" false
    (List.mem Analysis.Div_by_zero (Analysis.possible_traps a));
  Alcotest.(check bool) "no findings" true
    (List.for_all (fun f -> f.Analysis.severity <> Analysis.Error) (Analysis.findings a))

let test_div_by_zero_finding () =
  let a =
    analyze_pf
      ~extra:[ (d_slot, Operand.Int (ref 0)) ]
      [| Instr.Arith (x_slot, d_slot, Opcode.Arith_op.Div); Instr.Return Std.null |]
  in
  Alcotest.(check bool) "provably-zero divisor flagged" true
    (has_finding ~cc:0 "div-by-zero" a);
  Alcotest.(check bool) "the trap prunes every path to Return" true
    (has_finding ~severity:Analysis.Error "no-return-reachable" a)

let test_deq_empty_finding () =
  (* TRUE edge of Emptyq proves the free queue holds zero pages, so the
     Dequeue it falls into must trap *)
  let a =
    analyze_pf
      [|
        Instr.Emptyq Std.free_queue;
        Instr.Jump 3;
        Instr.Dequeue (p_slot, Std.free_queue, Opcode.Queue_end.Head);
        Instr.Dequeue (p_slot, Std.free_queue, Opcode.Queue_end.Head);
        Instr.Return p_slot;
      |]
  in
  Alcotest.(check bool) "dequeue on the empty edge flagged" true
    (has_finding ~cc:2 "deq-empty" a)

let test_deq_proven_safe () =
  (* guarding on non-emptiness proves the only reachable Dequeue safe:
     the whole class drops out of possible_traps *)
  let a =
    analyze_pf
      [|
        Instr.Emptyq Std.free_queue;
        Instr.Jump 3;
        Instr.Return Std.null;
        Instr.Dequeue (p_slot, Std.free_queue, Opcode.Queue_end.Head);
        Instr.Return p_slot;
      |]
  in
  Alcotest.(check bool) "deq-empty proven absent" false
    (List.mem Analysis.Deq_empty (Analysis.possible_traps a));
  Alcotest.(check bool) "no deq-empty finding" false (has_finding "deq-empty" a)

let test_typestate_findings () =
  let a =
    analyze_pf
      [|
        Instr.Dequeue (p_slot, Std.free_queue, Opcode.Queue_end.Head);
        Instr.Enqueue (p_slot, Std.active_queue, Opcode.Queue_end.Tail);
        Instr.Enqueue (p_slot, Std.active_queue, Opcode.Queue_end.Tail);
        Instr.Return Std.null;
      |]
  in
  Alcotest.(check bool) "double enqueue flagged" true
    (has_finding ~cc:2 "double-enqueue" a);
  let a =
    analyze_pf
      [|
        Instr.Dequeue (p_slot, Std.free_queue, Opcode.Queue_end.Head);
        Instr.Enqueue (p_slot, Std.active_queue, Opcode.Queue_end.Tail);
        Instr.Release p_slot;
        Instr.Jump 4;
        Instr.Return Std.null;
      |]
  in
  Alcotest.(check bool) "release of a still-linked page flagged" true
    (has_finding ~cc:2 "release-linked" a);
  (* FALSE edge of Find proves the register empty; using it must trap *)
  let a =
    analyze_pf
      [|
        Instr.Find (p_slot, Std.fault_va);
        Instr.Jump 3;
        Instr.Return Std.null;
        Instr.Enqueue (p_slot, Std.active_queue, Opcode.Queue_end.Tail);
        Instr.Return Std.null;
      |]
  in
  Alcotest.(check bool) "use of a provably empty register flagged" true
    (has_finding ~cc:3 "empty-page-register" a)

let test_code_level_constants () =
  (* the ops-free view: Sub x x; Inc x pins x = 1 whatever the
     install-time operand values are *)
  let code =
    [|
      Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Sub);
      Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Inc);
      Instr.Comp (x_slot, x_slot, Opcode.Comp_op.Ge);
      Instr.Jump 5;
      Instr.Return Std.null;
      Instr.Return Std.null;
    |]
  in
  let info = Analysis.Code.analyze code in
  Alcotest.(check bool) "x >= x decided" true
    (Analysis.Code.comp_verdict info 2 = `Always_true);
  Alcotest.(check bool) "taken branch live" true (Analysis.Code.reachable_cc info 4);
  Alcotest.(check bool) "else branch pruned" false (Analysis.Code.reachable_cc info 5)

(* ------------------------------------------------------------------ *)
(* Fuel                                                                *)
(* ------------------------------------------------------------------ *)

let std_ops () = mk_ops ()

let test_fuel_builtins () =
  let fuel_of program ~event =
    Analysis.fuel (Analysis.analyze ~ops:(std_ops ()) program) ~event
  in
  (match fuel_of (Policies.fifo ()) ~event:Events.page_fault with
  | Some (Analysis.Bounded n) ->
      Alcotest.(check bool) "fifo fault bound is small" true (n <= 8 && n >= 1)
  | f ->
      Alcotest.failf "fifo PageFault: expected a bound, got %s"
        (match f with
        | None -> "no verdict"
        | Some f -> Format.asprintf "%a" Analysis.pp_fuel f));
  (match fuel_of (Policies.fifo ()) ~event:Events.reclaim_frame with
  | Some Analysis.Terminates -> ()
  | f ->
      Alcotest.failf "fifo ReclaimFrame: expected a termination proof, got %s"
        (match f with
        | None -> "no verdict"
        | Some f -> Format.asprintf "%a" Analysis.pp_fuel f));
  (* CLOCK's scan loop has no provably monotonic exit counter *)
  let clock = Analysis.analyze ~ops:(std_ops ()) (Policies.clock ()) in
  (match Analysis.fuel clock ~event:Events.page_fault with
  | Some (Analysis.Unbounded _) -> ()
  | _ -> Alcotest.fail "clock PageFault: expected unbounded");
  Alcotest.(check bool) "unbounded events carry an info finding" true
    (has_finding ~severity:Analysis.Info "unbounded-fuel" clock)

let test_fuel_activation_composition () =
  (* the caller's bound inlines the callee's *)
  let helper = Events.first_user in
  let program =
    Program.make
      [
        ( Events.page_fault,
          [| Instr.Activate helper; Instr.Return Std.null |] );
        reclaim_stub;
        ( helper,
          [|
            Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Inc);
            Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Inc);
            Instr.Return Std.null;
          |] );
      ]
  in
  let ops = mk_ops ~extra:[ (x_slot, Operand.Int (ref 0)) ] () in
  let a = Analysis.analyze ~ops program in
  Alcotest.(check bool) "helper bound" true
    (Analysis.fuel a ~event:helper = Some (Analysis.Bounded 3));
  Alcotest.(check bool) "caller inlines the callee" true
    (Analysis.fuel a ~event:Events.page_fault = Some (Analysis.Bounded 5))

(* ------------------------------------------------------------------ *)
(* Soundness properties on random checker-accepted programs            *)
(* ------------------------------------------------------------------ *)

let y_slot = Std.first_user + 3
let r_slot = Std.first_user + 4
let helper_event = Events.first_user

type tpl =
  | Tarith of int
  | Tsafe of int (* Div/Rem by the never-written d operand *)
  | Tbranch of int
  | Temptyq of int
  | Tshuffle of int * int
  | Trequest of int
  | Trelease
  | Tactivate

let arith_ops = Opcode.Arith_op.[| Add; Sub; Mul; Inc; Dec |]
let comp_ops = Opcode.Comp_op.[| Gt; Lt; Eq; Ne; Ge; Le |]

let queue_slot = function
  | 0 -> Std.free_queue
  | 1 -> Std.inactive_queue
  | _ -> Std.active_queue

type desc = {
  x0 : int;
  y0 : int;
  d0 : int;
  frames : int;
  npages : int;
  tpls : tpl list;
  accesses : (int * bool) array;
}

let tpl_name = function
  | Tarith k -> "arith:" ^ Opcode.Arith_op.name arith_ops.(k mod 5)
  | Tsafe k -> if k mod 2 = 0 then "safe:Div" else "safe:Rem"
  | Tbranch k -> "branch:" ^ Opcode.Comp_op.name comp_ops.(k mod 6)
  | Temptyq q -> Printf.sprintf "emptyq:%d" (q mod 3)
  | Tshuffle (s, d) -> Printf.sprintf "shuffle:%d->%d" (s mod 3) (d mod 3)
  | Trequest k -> Printf.sprintf "request:%d" (1 + (k mod 3))
  | Trelease -> "release"
  | Tactivate -> "activate"

let items_of_tpl n tpl =
  let open Program.Asm in
  let l s = Printf.sprintf "t%d_%s" n s in
  match tpl with
  | Tarith k -> [ Op (Instr.Arith (x_slot, y_slot, arith_ops.(k mod 5))) ]
  | Tsafe k ->
      let op = if k mod 2 = 0 then Opcode.Arith_op.Div else Opcode.Arith_op.Rem in
      [
        Op (Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Inc));
        Op (Instr.Arith (x_slot, d_slot, op));
        Op (Instr.Arith (y_slot, x_slot, Opcode.Arith_op.Add));
      ]
  | Tbranch k ->
      [
        Op (Instr.Comp (x_slot, y_slot, comp_ops.(k mod 6)));
        Jump_to (l "else");
        Op (Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Inc));
        Jump_to (l "end");
        Label (l "else");
        Op (Instr.Arith (y_slot, y_slot, Opcode.Arith_op.Inc));
        Label (l "end");
      ]
  | Temptyq q ->
      [
        Op (Instr.Emptyq (queue_slot (q mod 3)));
        Jump_to (l "ne");
        Jump_to (l "end");
        Label (l "ne");
        Op (Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Dec));
        Label (l "end");
      ]
  | Tshuffle (s, d) ->
      let src = queue_slot (s mod 3) and dst = queue_slot (d mod 3) in
      [
        Op (Instr.Emptyq src);
        Jump_to (l "go");
        Jump_to (l "end");
        Label (l "go");
        Op (Instr.Dequeue (Std.page_reg, src, Opcode.Queue_end.Head));
        Op (Instr.Enqueue (Std.page_reg, dst, Opcode.Queue_end.Tail));
        Label (l "end");
      ]
  | Trequest k ->
      [ Op (Instr.Request (1 + (k mod 3))); Jump_to (l "end"); Label (l "end") ]
  | Trelease -> [ Op (Instr.Release r_slot); Jump_to (l "end"); Label (l "end") ]
  | Tactivate -> [ Op (Instr.Activate helper_event) ]

let tail_items =
  let open Program.Asm in
  [
    Op (Instr.Emptyq Std.free_queue);
    Jump_to "tail_take";
    Op (Instr.Fifo Std.active_queue);
    Jump_to "tail_take";
    Label "tail_take";
    Op (Instr.Dequeue (Std.page_reg, Std.free_queue, Opcode.Queue_end.Head));
    Op (Instr.Return Std.page_reg);
  ]

let build_program desc =
  let body = List.concat (List.mapi items_of_tpl desc.tpls) in
  let page_fault =
    match Program.Asm.assemble (body @ tail_items) with
    | Ok code -> code
    | Error e -> failwith ("generated program failed to assemble: " ^ e)
  in
  Program.make
    [
      (Events.page_fault, page_fault);
      (Events.reclaim_frame, [| Instr.Return Std.null |]);
      ( helper_event,
        [| Instr.Arith (y_slot, y_slot, Opcode.Arith_op.Inc); Instr.Return Std.null |] );
    ]

let spec_of desc policy =
  {
    (Api.default_spec ~policy ~min_frames:desc.frames) with
    Api.extra_operands =
      [
        (x_slot, Operand.Int (ref desc.x0));
        (d_slot, Operand.Int (ref desc.d0));
        (y_slot, Operand.Int (ref desc.y0));
        (r_slot, Operand.Int (ref 1));
      ];
  }

let print_desc d =
  Printf.sprintf "frames=%d npages=%d x0=%d y0=%d d0=%d accesses=%d [%s]" d.frames
    d.npages d.x0 d.y0 d.d0 (Array.length d.accesses)
    (String.concat "; " (List.map tpl_name d.tpls))

let desc_gen st =
  let open QCheck.Gen in
  let frames = 4 + int_bound 6 st in
  let npages = frames + 1 + int_bound 16 st in
  let tpl _ =
    match int_bound 7 st with
    | 0 -> Tarith (int_bound 100 st)
    | 1 -> Tsafe (int_bound 100 st)
    | 2 -> Tbranch (int_bound 100 st)
    | 3 -> Temptyq (int_bound 2 st)
    | 4 -> Tshuffle (int_bound 2 st, int_bound 2 st)
    | 5 -> Trequest (int_bound 100 st)
    | 6 -> Trelease
    | _ -> Tactivate
  in
  let count = 10 + int_bound 30 st in
  {
    x0 = int_bound 20 st - 10;
    y0 = int_bound 8 st;
    d0 = 1 + int_bound 8 st;
    frames;
    npages;
    tpls = List.init (1 + int_bound 4 st) tpl;
    accesses = Array.init count (fun _ -> (int_bound (npages - 1) st, bool st));
  }

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* A service stub that never re-enters the executor: Request is always
   rejected, releases and flushes succeed trivially.  Measured command
   counts are then exactly one entry's worth — comparable against the
   static per-entry bound, which prices Request/Release at one command
   like any other. *)
let stub_services container =
  {
    Executor.request_frames = (fun _ _ -> false);
    release_count = (fun _ ~count:_ -> 0);
    release_page = (fun _ _ -> Ok ());
    flush_page = (fun _ _ -> Ok ());
    resolve_object = (fun _ -> Container.obj container);
  }

let soundness_prop =
  QCheck.Test.make ~name:"analysis soundness: proven-absent traps and fuel bounds"
    ~count:80
    (QCheck.make ~print:print_desc desc_gen)
    (fun desc ->
      let config =
        {
          Kernel.default_config with
          Kernel.total_frames = max 256 (4 * desc.frames);
          hipec_kernel = true;
        }
      in
      let k = Kernel.create ~config () in
      let sys = Api.init ~start_checker:false k in
      let task = Kernel.create_task k () in
      let program = build_program desc in
      match Api.vm_allocate_hipec sys task ~npages:desc.npages (spec_of desc program) with
      | Error e -> QCheck.Test.fail_reportf "install failed: %s" e
      | Ok (region, container) ->
          (* the operands as installed: nothing has run yet *)
          let analysis = Analysis.analyze ~ops:(Container.operands container) program in
          (* (b) every event of these loop-free programs gets a static
             bound, and one measured entry never exceeds it *)
          let ex =
            Executor.create ~engine:(Kernel.engine k) ~costs:(Kernel.costs k)
              ~services:(stub_services container) ()
          in
          List.iter
            (fun (ev, f) ->
              match f with
              | Analysis.Bounded n ->
                  for _ = 1 to 3 do
                    let before = Executor.commands_executed ex in
                    ignore (Executor.run ex container ~event:ev);
                    let spent = Executor.commands_executed ex - before in
                    if spent > n then
                      QCheck.Test.fail_reportf
                        "%s: one entry executed %d commands, static bound claims %d"
                        (Events.name ev) spent n
                  done
              | Analysis.Terminates | Analysis.Unbounded _ ->
                  QCheck.Test.fail_reportf
                    "%s: loop-free program has no static bound (%s)" (Events.name ev)
                    (Format.asprintf "%a" Analysis.pp_fuel f))
            (Analysis.fuel_table analysis);
          (* (a) drive real faults; a demotion reason must never name a
             trap class the analysis proved absent *)
          Array.iter
            (fun (page, write) ->
              Kernel.access_vpn k task ~vpn:(region.Vm_map.start_vpn + page) ~write)
            desc.accesses;
          Kernel.drain_io k;
          (match Container.degraded_reason container with
          | None -> ()
          | Some reason ->
              let absent t = not (List.mem t (Analysis.possible_traps analysis)) in
              let check t subs =
                if absent t && List.exists (fun sub -> contains ~sub reason) subs then
                  QCheck.Test.fail_reportf
                    "trap class %s was proven absent, but the run trapped: %s"
                    (Analysis.trap_name t) reason
              in
              check Analysis.Div_by_zero [ "division by zero"; "remainder by zero" ];
              check Analysis.Deq_empty [ "DeQueue from empty queue" ];
              check Analysis.Empty_page_register [ "empty page register"; "is empty" ]);
          true)

let () =
  Alcotest.run "analysis"
    [
      ( "intervals",
        [
          Alcotest.test_case "algebra" `Quick test_interval_algebra;
          Alcotest.test_case "comp/meet/widen" `Quick test_interval_comp_meet_widen;
        ] );
      ( "structure",
        [
          Alcotest.test_case "cfg helpers" `Quick test_structural;
          Alcotest.test_case "termination check" `Quick test_check_termination;
          Alcotest.test_case "lint: jump cycles + unreachable" `Quick
            test_lint_jump_cycle_and_unreachable;
          Alcotest.test_case "lint: orphan + reclaim request" `Quick
            test_lint_orphan_and_reclaim_request;
        ] );
      ( "findings",
        [
          Alcotest.test_case "safe div facts" `Quick test_nonzero_divisor_facts;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero_finding;
          Alcotest.test_case "deq from empty" `Quick test_deq_empty_finding;
          Alcotest.test_case "deq proven safe" `Quick test_deq_proven_safe;
          Alcotest.test_case "typestate" `Quick test_typestate_findings;
          Alcotest.test_case "code-level constants" `Quick test_code_level_constants;
        ] );
      ( "fuel",
        [
          Alcotest.test_case "builtins" `Quick test_fuel_builtins;
          Alcotest.test_case "activation composition" `Quick
            test_fuel_activation_composition;
        ] );
      ( "soundness",
        [
          QCheck_alcotest.to_alcotest soundness_prop;
        ] );
    ]
