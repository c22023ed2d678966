(* Backend equivalence: the compile-once closure backend must be
   observationally identical to the interpreter — bit-identical FNV-1a
   trace digests, event counts and fault counts — on every golden
   scenario and on randomly generated checker-accepted programs.

   The random programs are built from statically valid snippets (the
   security checker accepts every one), but they are free to fail at
   run time: DeQueue from an emptied queue, Release of a still-bound
   page, division by zero.  Those runs demote the container and fall
   back to the default policy — on both backends, at the same event,
   with the same reason string, or the digests diverge.  The same
   property pins the Release/grant bug fixes: no checker-accepted
   program may ever surface a kernel [Invalid_argument] (reported by
   the executor as "kernel check failed") from the executor services. *)

open Hipec_vm
open Hipec_core
open Hipec_trace
module Trace_run = Hipec_workloads.Trace_run
module Storm = Hipec_workloads.Storm
module Std = Operand.Std

let count_faults events =
  Array.fold_left
    (fun acc ev ->
      match ev.Event.payload with Event.Fault _ -> acc + 1 | _ -> acc)
    0 events

(* ------------------------------------------------------------------ *)
(* Golden scenarios under both backends                                *)
(* ------------------------------------------------------------------ *)

let golden_file =
  if Sys.file_exists "golden/digests.txt" then "golden/digests.txt"
  else "test/golden/digests.txt"

let read_golden () =
  let ic = open_in golden_file in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go acc
        else
          match String.split_on_char ' ' line with
          | [ name; digest; events ] -> go ((name, digest, int_of_string events) :: acc)
          (* "metrics:" and "span:" lines pin metrics snapshots and spans;
             test_golden.ml checks them *)
          | [ name; _ ] when String.starts_with ~prefix:"metrics:" name -> go acc
          | [ name; _; _; _ ] when String.starts_with ~prefix:"span:" name -> go acc
          | _ -> failwith (golden_file ^ ": malformed line: " ^ line))
  in
  go []

let record_with backend scenario =
  Executor.with_backend backend (fun () ->
      match Trace_run.record scenario with Error e -> Alcotest.fail e | Ok r -> r)

let check_golden_equivalence (name, digest, _events) () =
  let scenario =
    match Trace_run.scenario_of_name name with
    | Some s -> s
    | None -> Alcotest.fail ("unknown golden scenario " ^ name)
  in
  let ri = record_with Executor.Interp scenario in
  let rc = record_with Executor.Compiled scenario in
  Alcotest.(check string)
    (name ^ ": interpreter matches the golden digest")
    digest
    (Trace.digest_hex ri.Trace.Recorded.digest);
  Alcotest.(check string)
    (name ^ ": compiled digest == interp digest")
    (Trace.digest_hex ri.Trace.Recorded.digest)
    (Trace.digest_hex rc.Trace.Recorded.digest);
  Alcotest.(check int)
    (name ^ ": event count")
    (Array.length ri.Trace.Recorded.events)
    (Array.length rc.Trace.Recorded.events);
  Alcotest.(check int)
    (name ^ ": fault count")
    (count_faults ri.Trace.Recorded.events)
    (count_faults rc.Trace.Recorded.events)

(* ------------------------------------------------------------------ *)
(* Random checker-accepted programs                                    *)
(* ------------------------------------------------------------------ *)

(* user operand slots every generated program declares *)
let x_slot = Std.first_user
let y_slot = Std.first_user + 1
let b1_slot = Std.first_user + 2
let b2_slot = Std.first_user + 3
let r_slot = Std.first_user + 4 (* Release count *)
let uq_slot = Std.first_user + 5 (* a user-declared queue *)
let up_slot = Std.first_user + 6 (* a second page register *)
let d_slot = Std.first_user + 7 (* never-written divisor: analysis proves it nonzero *)
let helper_event = 2

(* Statically valid program snippets; parameters are small ints the
   builder maps onto opcodes, queues and queue ends. *)
type tpl =
  | Arith of int
  | Branch of int
  | Logic of int
  | Emptyq_branch of int
  | Request of int
  | Release_count
  | Complex of int * int (* fifo/lru/mru, queue *)
  | Shuffle of int * int * int (* src queue, dst queue, end *)
  | Release_on_queue of int * int (* src queue, dst queue *)
  | Find_mark of int * int (* bit action, bit which *)
  | Activate_helper
  | Safe_div of int
      (* Div/Rem by a never-written operand: install-time analysis
         proves the divisor nonzero, so the compiled backend fuses it
         into the surrounding arith chain — the digest must not move *)

type desc = {
  x0 : int;
  y0 : int;
  r0 : int;
  d0 : int; (* install-time divisor value, >= 1 *)
  b0 : bool;
  frames : int;
  npages : int;
  tpls : tpl list;
  accesses : (int * bool) array; (* page, write *)
}

let arith_ops =
  Opcode.Arith_op.
    [| Add; Sub; Mul; Div; Rem; Inc; Dec |]

let comp_ops = Opcode.Comp_op.[| Gt; Lt; Eq; Ne; Ge; Le |]
let logic_ops = Opcode.Logic_op.[| And; Or; Xor; Not |]

let queue_slot = function
  | 0 -> Std.free_queue
  | 1 -> Std.inactive_queue
  | 2 -> Std.active_queue
  | _ -> uq_slot

let queue_label = function 0 -> "free" | 1 -> "inact" | 2 -> "act" | _ -> "user"
let qend = function 0 -> Opcode.Queue_end.Head | _ -> Opcode.Queue_end.Tail

let tpl_name = function
  | Arith k -> Printf.sprintf "arith:%s" (Opcode.Arith_op.name arith_ops.(k mod 7))
  | Branch k -> Printf.sprintf "branch:%s" (Opcode.Comp_op.name comp_ops.(k mod 6))
  | Logic k -> Printf.sprintf "logic:%s" (Opcode.Logic_op.name logic_ops.(k mod 4))
  | Emptyq_branch q -> Printf.sprintf "emptyq:%s" (queue_label (q mod 4))
  | Request k -> Printf.sprintf "request:%d" (1 + (k mod 3))
  | Release_count -> "release-count"
  | Complex (w, q) ->
      Printf.sprintf "%s:%s"
        (match w mod 3 with 0 -> "fifo" | 1 -> "lru" | _ -> "mru")
        (queue_label (q mod 4))
  | Shuffle (s, d, e) ->
      Printf.sprintf "shuffle:%s->%s/%d" (queue_label (s mod 4)) (queue_label (d mod 4))
        (e mod 2)
  | Release_on_queue (s, d) ->
      Printf.sprintf "release-on:%s->%s" (queue_label (s mod 4)) (queue_label (d mod 4))
  | Find_mark (a, w) -> Printf.sprintf "find-mark:%d.%d" (a mod 2) (w mod 2)
  | Activate_helper -> "activate"
  | Safe_div k -> Printf.sprintf "safe-div:%s" (if k mod 2 = 0 then "Div" else "Rem")

let items_of_tpl n tpl =
  let open Program.Asm in
  let l s = Printf.sprintf "t%d_%s" n s in
  match tpl with
  | Arith k -> [ Op (Instr.Arith (x_slot, y_slot, arith_ops.(k mod 7))) ]
  | Branch k ->
      [
        Op (Instr.Comp (x_slot, y_slot, comp_ops.(k mod 6)));
        Jump_to (l "else");
        Op (Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Inc));
        Jump_to (l "end");
        Label (l "else");
        Op (Instr.Arith (y_slot, y_slot, Opcode.Arith_op.Inc));
        Label (l "end");
      ]
  | Logic k ->
      [
        Op (Instr.Logic (b1_slot, b2_slot, logic_ops.(k mod 4)));
        Jump_to (l "end");
        Label (l "end");
      ]
  | Emptyq_branch q ->
      [
        Op (Instr.Emptyq (queue_slot (q mod 4)));
        Jump_to (l "ne");
        Jump_to (l "end");
        Label (l "ne");
        Op (Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Dec));
        Label (l "end");
      ]
  | Request k ->
      [ Op (Instr.Request (1 + (k mod 3))); Jump_to (l "end"); Label (l "end") ]
  | Release_count -> [ Op (Instr.Release r_slot); Jump_to (l "end"); Label (l "end") ]
  | Complex (w, q) ->
      let instr =
        let qs = queue_slot (q mod 4) in
        match w mod 3 with
        | 0 -> Instr.Fifo qs
        | 1 -> Instr.Lru qs
        | _ -> Instr.Mru qs
      in
      [ Op instr; Jump_to (l "end"); Label (l "end") ]
  | Shuffle (s, d, e) ->
      let src = queue_slot (s mod 4) and dst = queue_slot (d mod 4) in
      [
        Op (Instr.Emptyq src);
        Jump_to (l "go");
        Jump_to (l "end");
        Label (l "go");
        Op (Instr.Dequeue (Std.page_reg, src, Opcode.Queue_end.Head));
        Op (Instr.Enqueue (Std.page_reg, dst, qend (e mod 2)));
        Label (l "end");
      ]
  | Release_on_queue (s, d) ->
      let src = queue_slot (s mod 4) and dst = queue_slot (d mod 4) in
      [
        Op (Instr.Emptyq src);
        Jump_to (l "go");
        Jump_to (l "end");
        Label (l "go");
        Op (Instr.Dequeue (up_slot, src, Opcode.Queue_end.Head));
        Op (Instr.Enqueue (up_slot, dst, Opcode.Queue_end.Tail));
        Op (Instr.Release up_slot);
        Jump_to (l "end");
        Label (l "end");
      ]
  | Find_mark (a, w) ->
      [
        Op (Instr.Find (up_slot, Std.fault_va));
        Jump_to (l "nf");
        Op
          (Instr.Set
             ( up_slot,
               (if a mod 2 = 0 then Opcode.Bit_action.Set_bit
                else Opcode.Bit_action.Reset_bit),
               if w mod 2 = 0 then Opcode.Bit_which.Reference
               else Opcode.Bit_which.Modify ));
        Label (l "nf");
      ]
  | Activate_helper -> [ Op (Instr.Activate helper_event) ]
  | Safe_div k ->
      let op = if k mod 2 = 0 then Opcode.Arith_op.Div else Opcode.Arith_op.Rem in
      [
        Op (Instr.Arith (x_slot, x_slot, Opcode.Arith_op.Inc));
        Op (Instr.Arith (x_slot, d_slot, op));
        Op (Instr.Arith (y_slot, x_slot, Opcode.Arith_op.Add));
      ]

(* every handler ends with the harness tail: grab a free slot (evicting
   FIFO from the active queue if none) and return it *)
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

(* fresh mutable operands per run, so the two backends cannot observe
   each other's state *)
let spec_of desc policy =
  {
    (Api.default_spec ~policy ~min_frames:desc.frames) with
    Api.extra_operands =
      [
        (x_slot, Operand.Int (ref desc.x0));
        (y_slot, Operand.Int (ref desc.y0));
        (b1_slot, Operand.Bool (ref desc.b0));
        (b2_slot, Operand.Bool (ref (not desc.b0)));
        (r_slot, Operand.Int (ref desc.r0));
        (uq_slot, Operand.Queue (Page_queue.create "user-q"));
        (up_slot, Operand.Page (ref None));
        (d_slot, Operand.Int (ref desc.d0));
      ];
  }

type observation =
  | Install_error of string
  | Ran of { digest : string; events : int; faults : int; demoted : string option }

let run_case backend desc =
  Executor.with_backend backend @@ fun () ->
  let c = Trace.start ~store:true () in
  let tear_down () = ignore (Trace.stop ()) in
  match
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
    Result.map
      (fun (region, container) ->
        Array.iter
          (fun (page, write) ->
            Kernel.access_vpn k task ~vpn:(region.Vm_map.start_vpn + page) ~write)
          desc.accesses;
        Kernel.drain_io k;
        Container.degraded_reason container)
      (Api.vm_allocate_hipec sys task ~npages:desc.npages
         (spec_of desc (build_program desc)))
  with
  | exception e ->
      tear_down ();
      raise e
  | Error e ->
      tear_down ();
      Install_error e
  | Ok demoted ->
      tear_down ();
      Ran
        {
          digest = Trace.digest_hex (Trace.digest c);
          events = Array.length (Trace.events c);
          faults = count_faults (Trace.events c);
          demoted;
        }

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let print_desc d =
  Printf.sprintf "frames=%d npages=%d x0=%d y0=%d r0=%d d0=%d b0=%b accesses=%d [%s]"
    d.frames d.npages d.x0 d.y0 d.r0 d.d0 d.b0 (Array.length d.accesses)
    (String.concat "; " (List.map tpl_name d.tpls))

let desc_gen st =
  let open QCheck.Gen in
  let frames = 4 + int_bound 6 st in
  let npages = frames + 1 + int_bound 20 st in
  let tpl _ =
    match int_bound 11 st with
    | 0 -> Arith (int_bound 100 st)
    | 1 -> Branch (int_bound 100 st)
    | 2 -> Logic (int_bound 100 st)
    | 3 -> Emptyq_branch (int_bound 3 st)
    | 4 -> Request (int_bound 100 st)
    | 5 -> Release_count
    | 6 -> Complex (int_bound 100 st, int_bound 3 st)
    | 7 -> Shuffle (int_bound 3 st, int_bound 3 st, int_bound 1 st)
    | 8 -> Release_on_queue (int_bound 3 st, int_bound 3 st)
    | 9 -> Find_mark (int_bound 1 st, int_bound 1 st)
    | 10 -> Safe_div (int_bound 100 st)
    | _ -> Activate_helper
  in
  let count = 30 + int_bound 120 st in
  {
    x0 = int_bound 20 st - 10;
    y0 = int_bound 8 st;
    r0 = int_bound 2 st;
    d0 = 1 + int_bound 8 st;
    b0 = bool st;
    frames;
    npages;
    tpls = List.init (1 + int_bound 5 st) tpl;
    accesses = Array.init count (fun _ -> (int_bound (npages - 1) st, bool st));
  }

(* the executor reports a kernel Invalid_argument as "kernel check
   failed"; a checker-accepted program must never trip one *)
let check_no_kernel_failure backend = function
  | Ran { demoted = Some reason; _ } when contains ~sub:"kernel check failed" reason ->
      QCheck.Test.fail_reportf
        "checker-accepted program tripped a kernel check under %s: %s"
        (Executor.backend_name backend) reason
  | _ -> ()

let equivalence_prop =
  QCheck.Test.make
    ~name:"compiled backend matches the interpreter on random programs" ~count:120
    (QCheck.make ~print:print_desc desc_gen)
    (fun desc ->
      let a = run_case Executor.Interp desc in
      let b = run_case Executor.Compiled desc in
      check_no_kernel_failure Executor.Interp a;
      check_no_kernel_failure Executor.Compiled b;
      match (a, b) with
      | Install_error ea, Install_error eb ->
          if ea <> eb then
            QCheck.Test.fail_reportf "install errors differ@.interp:   %s@.compiled: %s"
              ea eb;
          true
      | Ran ra, Ran rb ->
          if ra.digest <> rb.digest || ra.events <> rb.events || ra.faults <> rb.faults
          then
            QCheck.Test.fail_reportf
              "backends diverged@.interp:   digest=%s events=%d faults=%d demoted=%s@.compiled: \
               digest=%s events=%d faults=%d demoted=%s"
              ra.digest ra.events ra.faults
              (Option.value ra.demoted ~default:"-")
              rb.digest rb.events rb.faults
              (Option.value rb.demoted ~default:"-");
          (match (ra.demoted, rb.demoted) with
          | Some x, Some y when x <> y ->
              QCheck.Test.fail_reportf "demotion reasons differ@.interp:   %s@.compiled: %s"
                x y
          | Some r, None | None, Some r ->
              QCheck.Test.fail_reportf "only one backend demoted: %s" r
          | _ -> ());
          true
      | Install_error e, Ran _ ->
          QCheck.Test.fail_reportf "interp rejected install, compiled ran: %s" e
      | Ran _, Install_error e ->
          QCheck.Test.fail_reportf "compiled rejected install, interp ran: %s" e)

(* ------------------------------------------------------------------ *)
(* Per-opcode attribution                                              *)
(* ------------------------------------------------------------------ *)

module Mx = Hipec_metrics.Metrics

let obs_str = function
  | Install_error e -> "install error: " ^ e
  | Ran r ->
      Printf.sprintf "digest=%s events=%d faults=%d demoted=%s" r.digest r.events
        r.faults
        (Option.value r.demoted ~default:"-")

(* Per-opcode *simulated* time attribution must agree cell for cell
   between the backends on random programs too (test_metrics pins the
   golden scenarios). *)
let profile_of backend desc =
  let reg = Mx.install () in
  let obs =
    Fun.protect
      ~finally:(fun () -> ignore (Mx.uninstall ()))
      (fun () -> run_case backend desc)
  in
  (obs, Mx.Registry.profile_totals reg ~backend:(Executor.backend_name backend))

let attribution_prop =
  QCheck.Test.make
    ~name:"per-opcode simulated attribution matches across backends" ~count:40
    (QCheck.make ~print:print_desc desc_gen)
    (fun desc ->
      let oi, pi = profile_of Executor.Interp desc in
      let oc, pc = profile_of Executor.Compiled desc in
      if oi <> oc then
        QCheck.Test.fail_reportf
          "profiled runs diverged@.interp:   %s@.compiled: %s" (obs_str oi)
          (obs_str oc);
      (match (oi, pi, pc) with
      | Install_error _, _, _ -> () (* nothing ran *)
      | Ran _, Some (ci, oi, ri), Some (cc, oc, rc) ->
          if ri <> rc then QCheck.Test.fail_reportf "run counts differ: %d vs %d" ri rc;
          if oi.Mx.Profile.sim_ns <> oc.Mx.Profile.sim_ns then
            QCheck.Test.fail_reportf "overhead sim_ns differs: %d vs %d"
              oi.Mx.Profile.sim_ns oc.Mx.Profile.sim_ns;
          Array.iteri
            (fun op (c : Mx.Profile.cell) ->
              if c.Mx.Profile.count <> cc.(op).Mx.Profile.count then
                QCheck.Test.fail_reportf "opcode %d count differs: %d vs %d" op
                  c.Mx.Profile.count cc.(op).Mx.Profile.count;
              if c.Mx.Profile.sim_ns <> cc.(op).Mx.Profile.sim_ns then
                QCheck.Test.fail_reportf "opcode %d sim_ns differs: %d vs %d" op
                  c.Mx.Profile.sim_ns cc.(op).Mx.Profile.sim_ns)
            ci
      | Ran _, _, _ -> QCheck.Test.fail_reportf "a backend left no profile");
      true)

(* ------------------------------------------------------------------ *)
(* The process-wide switch                                             *)
(* ------------------------------------------------------------------ *)

let check_default msg expected =
  Alcotest.(check string) msg (Executor.backend_name expected)
    (Executor.backend_name (Executor.default_backend ()))

let test_with_backend_restores () =
  check_default "start-up default" Executor.Interp;
  Executor.with_backend Executor.Compiled (fun () ->
      check_default "inside" Executor.Compiled;
      Executor.with_backend Executor.Interp (fun () ->
          check_default "nested" Executor.Interp);
      check_default "after the nested call" Executor.Compiled);
  check_default "after return" Executor.Interp;
  (match Executor.with_backend Executor.Compiled (fun () -> failwith "boom") with
  | () -> Alcotest.fail "the body did not raise"
  | exception Failure _ -> ());
  check_default "after raise" Executor.Interp

(* Api.init reads the switch when it builds its executor, and the
   executor keeps that backend after the switch is restored. *)
let test_api_init_follows_switch () =
  let executor_of_new_system () =
    let config = { Kernel.default_config with Kernel.hipec_kernel = true } in
    let sys = Api.init ~start_checker:false (Kernel.create ~config ()) in
    Frame_manager.executor (Api.manager sys)
  in
  let check msg expected ex =
    Alcotest.(check string) msg (Executor.backend_name expected)
      (Executor.backend_name (Executor.backend ex))
  in
  let inside = Executor.with_backend Executor.Compiled executor_of_new_system in
  check "built inside with_backend" Executor.Compiled inside;
  check "built after it" Executor.Interp (executor_of_new_system ());
  check "the first keeps its backend" Executor.Compiled inside

(* The compiled backend compiles each distinct program once per
   executor, not once per container: the storm's tenants run three
   policies, so a storm-smoke run compiles three programs. *)
let test_storm_compiles_once_per_program () =
  let config = Storm.smoke in
  let policies =
    List.sort_uniq compare (List.init config.Storm.tenants (Storm.kind_of config))
  in
  let before = Executor.compiles () in
  let r = Executor.with_backend Executor.Compiled (fun () -> Storm.run config) in
  Alcotest.(check bool) "more tenants than policies" true
    (r.Storm.admitted > List.length policies);
  Alcotest.(check int) "one compile per distinct program" (List.length policies)
    (Executor.compiles () - before)

let () =
  (* "trace:" lines pin checked-in recordings, not regenerable
     scenarios; test_golden.ml replays those on both backends *)
  let goldens =
    List.filter
      (fun (name, _, _) ->
        not (String.length name > 6 && String.sub name 0 6 = "trace:"))
      (read_golden ())
  in
  if goldens = [] then failwith (golden_file ^ " lists no scenarios");
  Alcotest.run "backend"
    [
      ( "switch",
        [
          Alcotest.test_case "with_backend restores and nests" `Quick
            test_with_backend_restores;
          Alcotest.test_case "Api.init follows the switch" `Quick
            test_api_init_follows_switch;
          Alcotest.test_case "storm compiles once per program" `Quick
            test_storm_compiles_once_per_program;
        ] );
      ( "golden equivalence",
        List.map
          (fun ((name, _, _) as g) ->
            Alcotest.test_case name `Quick (check_golden_equivalence g))
          goldens );
      ("random programs", [ QCheck_alcotest.to_alcotest equivalence_prop ]);
      ("attribution", [ QCheck_alcotest.to_alcotest attribution_prop ]);
    ]
