open Hipec_sim
open Hipec_machine
open Hipec_vm

let log = Logs.Src.create "hipec.checker" ~doc:"security checker"

module Log = (val Logs.src_log log : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Static validation                                                   *)
(* ------------------------------------------------------------------ *)

let kind_ok ops ix expected =
  match Operand.kind_at ops ix with
  | None -> Error (Printf.sprintf "operand %d is undeclared" ix)
  | Some k ->
      let ok =
        match expected with
        | `Int -> k = Operand.Kint || k = Operand.Kcount
        | `Mutable_int -> k = Operand.Kint
        | `Bool -> k = Operand.Kbool
        | `Page -> k = Operand.Kpage
        | `Queue -> k = Operand.Kqueue
        | `Any -> true
        | `Int_or_page -> k = Operand.Kint || k = Operand.Kcount || k = Operand.Kpage
      in
      if ok then Ok ()
      else
        Error
          (Printf.sprintf "operand %d is a %s, expected %s" ix (Operand.kind_name k)
             (match expected with
             | `Int -> "int"
             | `Mutable_int -> "mutable int"
             | `Bool -> "bool"
             | `Page -> "page"
             | `Queue -> "queue"
             | `Any -> "anything"
             | `Int_or_page -> "int or page"))

let check_instr ops program ~len instr =
  let ( let* ) = Result.bind in
  match instr with
  | Instr.Return _ -> Ok ()
  | Instr.Arith (a, b, op) ->
      let* () = kind_ok ops a `Mutable_int in
      (match op with
      | Opcode.Arith_op.Inc | Opcode.Arith_op.Dec -> Ok ()
      | _ -> kind_ok ops b `Int)
  | Instr.Comp (a, b, _) ->
      let* () = kind_ok ops a `Int in
      kind_ok ops b `Int
  | Instr.Logic (a, b, op) ->
      let* () = kind_ok ops a `Bool in
      (match op with Opcode.Logic_op.Not -> Ok () | _ -> kind_ok ops b `Bool)
  | Instr.Emptyq q -> kind_ok ops q `Queue
  | Instr.Inq (q, p) ->
      let* () = kind_ok ops q `Queue in
      kind_ok ops p `Page
  | Instr.Jump target ->
      if target >= 0 && target < len then Ok ()
      else Error (Printf.sprintf "jump target %d outside 0..%d" target (len - 1))
  | Instr.Dequeue (p, q, _) | Instr.Enqueue (p, q, _) ->
      let* () = kind_ok ops p `Page in
      kind_ok ops q `Queue
  | Instr.Request n ->
      if n >= 0 && n <= 255 then Ok () else Error "request size outside 0..255"
  | Instr.Release ix -> kind_ok ops ix `Int_or_page
  | Instr.Flush p | Instr.Set (p, _, _) | Instr.Ref p | Instr.Mod p ->
      kind_ok ops p `Page
  | Instr.Find (p, va) ->
      let* () = kind_ok ops p `Page in
      kind_ok ops va `Int
  | Instr.Activate ev ->
      if Program.has_event program ~event:ev then Ok ()
      else Error (Printf.sprintf "activates undefined event %d" ev)
  | Instr.Fifo q | Instr.Lru q | Instr.Mru q -> kind_ok ops q `Queue

(* Control must not run off the end: the instruction at the last CC has
   to leave the event (Return) or branch away (Jump). *)
let check_termination code =
  let len = Array.length code in
  if len = 0 then Error "empty event body"
  else
    match code.(len - 1) with
    | Instr.Return _ | Instr.Jump _ -> Ok ()
    | _ -> Error "control can run past the last command"

(* Skip-next discipline: a test command that evaluates TRUE skips the
   following command, so that command must exist, must be the
   else-branch Jump, and the skip target must stay inside the event. *)
let check_test_discipline code =
  let len = Array.length code in
  let rec check cc =
    if cc >= len then Ok ()
    else if not (Opcode.is_test (Instr.opcode code.(cc))) then check (cc + 1)
    else if cc + 1 >= len then
      Error (Printf.sprintf "CC %d: test command at the end of the event" cc)
    else
      match code.(cc + 1) with
      | Instr.Jump _ ->
          if cc + 2 >= len then
            Error (Printf.sprintf "CC %d: test's skip target runs past the end" cc)
          else check (cc + 1)
      | _ ->
          Error
            (Printf.sprintf "CC %d: test command not followed by its else-branch Jump" cc)
  in
  check 0

let check_has_return code =
  if Array.exists (function Instr.Return _ -> true | _ -> false) code then Ok ()
  else Error "no Return command"

let validate program ops =
  let ( let* ) = Result.bind in
  let check_event event =
    match Program.code program ~event with
    | None -> Error (Printf.sprintf "%s: missing" (Events.name event))
    | Some code ->
        let len = Array.length code in
        let* () =
          Array.to_seqi code
          |> Seq.fold_left
               (fun acc (cc, instr) ->
                 let* () = acc in
                 match check_instr ops program ~len instr with
                 | Ok () -> Ok ()
                 | Error e ->
                     Error (Printf.sprintf "%s CC %d: %s" (Events.name event) cc e))
               (Ok ())
        in
        let with_event r =
          Result.map_error (fun e -> Printf.sprintf "%s: %s" (Events.name event) e) r
        in
        let* () = with_event (check_has_return code) in
        let* () = with_event (check_termination code) in
        with_event (check_test_discipline code)
  in
  let* () = check_event Events.page_fault in
  let* () = check_event Events.reclaim_frame in
  List.fold_left
    (fun acc event ->
      let* () = acc in
      check_event event)
    (Ok ())
    (List.filter (fun e -> e >= Events.first_user) (Program.events program))

(* ------------------------------------------------------------------ *)
(* The checker thread                                                  *)
(* ------------------------------------------------------------------ *)

let min_wakeup = Sim_time.ms 250
let max_wakeup = Sim_time.sec 8

type t = {
  kernel : Kernel.t;
  manager : Frame_manager.t;
  timeout : Sim_time.t;
  mutable wakeup : Sim_time.t;
  mutable running : bool;
  mutable pending : Engine.handle option;
  mutable timeouts_detected : int;
  mutable scans : int;
}

let create ?(timeout = Sim_time.ms 100) ?(initial_wakeup = Sim_time.sec 1) ~kernel ~manager
    () =
  {
    kernel;
    manager;
    timeout;
    wakeup = Sim_time.max min_wakeup (Sim_time.min max_wakeup initial_wakeup);
    running = false;
    pending = None;
    timeouts_detected = 0;
    scans = 0;
  }

let scan_now t =
  t.scans <- t.scans + 1;
  let engine = Kernel.engine t.kernel in
  let now = Engine.now engine in
  let demoted = ref 0 in
  (* demotion retires containers, so collect the victims first *)
  let victims =
    Frame_manager.fold_containers
      (fun victims c ->
        Engine.advance engine (Kernel.costs t.kernel).Costs.checker_scan_per_container;
        match Container.execution_started c with
        | Some started when Sim_time.(Sim_time.diff now started > t.timeout) ->
            c :: victims
        | Some _ | None -> victims)
      [] t.manager
  in
  List.iter
    (fun c ->
      Log.warn (fun m -> m "policy execution timeout: demoting %a" Container.pp c);
      Container.set_timed_out c;
      Container.set_execution_started c None;
      incr demoted;
      t.timeouts_detected <- t.timeouts_detected + 1;
      Frame_manager.demote t.manager c
        ~reason:"HiPEC policy execution timeout (demoted by security checker)")
    (List.rev victims);
  !demoted

(* The paper's WakeUp equation: halve on timeout, double otherwise,
   clamped to [250 ms, 8 s]. *)
let adapt t ~found_timeout =
  let next = if found_timeout then Sim_time.div t.wakeup 2 else Sim_time.mul t.wakeup 2 in
  t.wakeup <- Sim_time.max min_wakeup (Sim_time.min max_wakeup next)

let rec arm t =
  if t.running then
    t.pending <-
      Some
        (Engine.schedule (Kernel.engine t.kernel) ~daemon:true ~after:t.wakeup (fun _ ->
             let demoted = scan_now t in
             adapt t ~found_timeout:(demoted > 0);
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

let wakeup_interval t = t.wakeup
let timeouts_detected t = t.timeouts_detected
let scans t = t.scans
