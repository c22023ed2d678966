open Hipec_sim
open Hipec_machine
open Hipec_vm

type services = Compiled.services = {
  request_frames : Container.t -> int -> bool;
  release_count : Container.t -> count:int -> int;
  release_page : Container.t -> Vm_page.t -> (unit, string) result;
  flush_page : Container.t -> Vm_page.t -> (unit, string) result;
  resolve_object : int -> Vm_object.t;
}

type outcome = Returned of Operand.value option | Runtime_error of string | Timed_out

type backend = Interp | Compiled

let backend_name = function Interp -> "interp" | Compiled -> "compiled"

let backend_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "interp" | "interpreter" -> Some Interp
  | "compiled" | "compile" -> Some Compiled
  | _ -> None

(* Process default, so workloads that build their own kernels pick up a
   selection without threading configuration. *)
let default = ref Interp

let default_backend () = !default
let set_default_backend b = default := b

let with_backend b f =
  let saved = !default in
  default := b;
  Fun.protect ~finally:(fun () -> default := saved) f

type t = {
  max_steps : int;
  engine : Engine.t;
  costs : Costs.t;
  services : services;
  backend : backend;
  counter : int ref;  (* commands executed, shared with compiled code *)
  programs : (string, Compiled.t) Hashtbl.t;
      (* program image -> its compiled handlers, shared by every
         container that installs the program *)
}

(* programs compiled by every executor of the process *)
let compiled_programs = ref 0

let create ?(max_steps = 100_000) ~engine ~costs ~services () =
  {
    max_steps;
    engine;
    costs;
    services;
    backend = !default;
    counter = ref 0;
    programs = Hashtbl.create 8;
  }

let commands_executed t = !(t.counter)
let backend t = t.backend
let max_steps t = t.max_steps
let compiles () = !compiled_programs

(* The container's binding to its compiled program, cached on the
   container; the program is compiled on its first install. *)
let compiled_for t container =
  match Container.code container with
  | Compiled.Bound rt -> rt
  | _ ->
      let program = Container.program container in
      let key = Bytes.unsafe_to_string (Program.to_bytes program) in
      let compiled =
        match Hashtbl.find_opt t.programs key with
        | Some c -> c
        | None ->
            let c =
              Compiled.compile ~engine:t.engine ~costs:t.costs ~services:t.services
                ~counter:t.counter program
            in
            incr compiled_programs;
            Hashtbl.replace t.programs key c;
            c
      in
      let rt = Compiled.bind compiled container in
      Container.set_code container (Compiled.Bound rt);
      rt

let precompile t container =
  match t.backend with Compiled -> ignore (compiled_for t container) | Interp -> ()

let forget _t container = Container.set_code container Container.No_code

module Mx = Hipec_metrics.Metrics

(* The interpreter.  One activation of [event]; the step loop below is
   its body.  Every piece of run state is an argument, so a clean run
   allocates nothing: errors and budget exhaustion leave by the
   exceptions [run] catches. *)
let rec exec_event t c ops prof limit event depth =
  if depth > Compiled.max_activation_depth then Compiled.fail Compiled.depth_msg
  else
    let code = Program.code_or_empty (Container.program c) ~event in
    if Array.length code = 0 then
      Compiled.fail (Printf.sprintf "undefined event %s" (Events.name event))
    else begin
      Container.count_event_run c;
      step t c ops prof limit code event depth 0
    end

and step t c ops prof limit code event depth cc =
  if cc < 0 || cc >= Array.length code then
    Compiled.fail (Printf.sprintf "%s: control ran past CC %d" (Events.name event) cc)
  else begin
    let instr = Array.unsafe_get code cc in
    (* Profiler boundary, matching the compiled prologue: the interval
       since the previous fetch is attributed to the previously fetched
       opcode. *)
    (match prof with
    | None -> ()
    | Some pr ->
        Mx.profile_step pr
          ~opcode:(Opcode.code (Instr.opcode instr))
          ~sim_ns:(Sim_time.to_ns (Engine.now t.engine)));
    incr t.counter;
    let n = Container.count_command c in
    Engine.advance t.engine t.costs.Costs.hipec_fetch_decode;
    if n > limit then raise_notrace Compiled.Out_of_steps;
    (* Skip-next semantics (paper Table 2): a test command that
       evaluates TRUE skips the immediately following command — by
       convention the else-branch Jump — so the fast path never fetches
       it.  Static validation guarantees every test is followed by a
       Jump. *)
    let next = cc + 1 and skip = cc + 2 in
    match instr with
    | Instr.Return ix -> Operand.get ops ix
    | Instr.Jump target -> step t c ops prof limit code event depth target
    | Instr.Arith (a, b, op) ->
        let sa = Operand.get ops a in
        let va = Compiled.int_of a sa in
        let vb =
          match op with
          | Opcode.Arith_op.Inc | Opcode.Arith_op.Dec -> 0
          | _ -> Compiled.int_of b (Operand.get ops b)
        in
        Compiled.set_int a sa (Compiled.arith op va vb);
        step t c ops prof limit code event depth next
    | Instr.Comp (a, b, op) ->
        let va = Compiled.int_of a (Operand.get ops a) in
        let vb = Compiled.int_of b (Operand.get ops b) in
        step t c ops prof limit code event depth
          (if Opcode.Comp_op.apply op va vb then skip else next)
    | Instr.Logic (a, b, op) ->
        let sa = Operand.get ops a in
        let va = Compiled.bool_of a sa in
        let vb =
          match op with
          | Opcode.Logic_op.Not -> false
          | _ -> Compiled.bool_of b (Operand.get ops b)
        in
        let r = Opcode.Logic_op.apply op va vb in
        Compiled.set_bool a sa r;
        step t c ops prof limit code event depth (if r then skip else next)
    | Instr.Emptyq q ->
        let queue = Compiled.queue_of q (Operand.get ops q) in
        Engine.advance t.engine t.costs.Costs.queue_op;
        step t c ops prof limit code event depth
          (if Page_queue.is_empty queue then skip else next)
    | Instr.Inq (q, p) ->
        let queue = Compiled.queue_of q (Operand.get ops q) in
        let page = Compiled.page_of p (Operand.get ops p) in
        Engine.advance t.engine t.costs.Costs.queue_op;
        step t c ops prof limit code event depth
          (if Page_queue.mem queue page then skip else next)
    | Instr.Dequeue (p, q, whence) ->
        let queue = Compiled.queue_of q (Operand.get ops q) in
        let slot = Compiled.page_slot_of p (Operand.get ops p) in
        Engine.advance t.engine t.costs.Costs.queue_op;
        Compiled.dequeue queue slot whence;
        step t c ops prof limit code event depth next
    | Instr.Enqueue (p, q, whence) ->
        let queue = Compiled.queue_of q (Operand.get ops q) in
        let page = Compiled.page_of p (Operand.get ops p) in
        Engine.advance t.engine t.costs.Costs.queue_op;
        Compiled.enqueue t.services c queue page whence;
        step t c ops prof limit code event depth next
    | Instr.Request n ->
        step t c ops prof limit code event depth
          (if t.services.request_frames c n then skip else next)
    | Instr.Release ix ->
        step t c ops prof limit code event depth
          (if Compiled.release t.services c ix (Operand.get ops ix) then skip else next)
    | Instr.Flush p ->
        Compiled.flush t.services c (Compiled.page_of p (Operand.get ops p));
        step t c ops prof limit code event depth next
    | Instr.Set (p, action, which) ->
        Compiled.set_bit (Compiled.page_of p (Operand.get ops p)) action which;
        step t c ops prof limit code event depth next
    | Instr.Ref p ->
        step t c ops prof limit code event depth
          (if Vm_page.referenced (Compiled.page_of p (Operand.get ops p)) then skip
           else next)
    | Instr.Mod p ->
        step t c ops prof limit code event depth
          (if Vm_page.dirty (Compiled.page_of p (Operand.get ops p)) then skip else next)
    | Instr.Find (p, va) ->
        let v = Compiled.int_of va (Operand.get ops va) in
        let slot = Compiled.page_slot_of p (Operand.get ops p) in
        step t c ops prof limit code event depth
          (if Compiled.find c slot v then skip else next)
    | Instr.Activate ev ->
        ignore (exec_event t c ops prof limit ev (depth + 1));
        step t c ops prof limit code event depth next
    | Instr.Fifo q -> complex t c ops prof limit code event depth cc q Page_queue.peek_head
    | Instr.Lru q -> complex t c ops prof limit code event depth cc q Page_queue.find_oldest
    | Instr.Mru q -> complex t c ops prof limit code event depth cc q Page_queue.find_newest
  end

and complex t c ops prof limit code event depth cc q select =
  let queue = Compiled.queue_of q (Operand.get ops q) in
  let found =
    Compiled.replace t.engine t.costs t.services c queue select
      (Operand.get ops Operand.Std.page_reg)
  in
  step t c ops prof limit code event depth (if found then cc + 2 else cc + 1)

let run t container ~event =
  (* Per-opcode profiling is backend-symmetric: both prologues place the
     boundary at the same simulated instants, so simulated-cycle totals
     agree between Interp and Compiled (only wall-ns differs). *)
  let prof =
    if Mx.on () then
      Mx.profile_begin ~backend:(backend_name t.backend)
        ~container:(Container.id container)
        ~sim_ns:(Sim_time.to_ns (Engine.now t.engine))
    else None
  in
  Container.start_execution container ~at:(Engine.now t.engine);
  Engine.advance t.engine t.costs.Costs.hipec_dispatch;
  (* the budget: [max_steps] more commands on this container, nested
     activations included *)
  let limit = Container.commands_interpreted container + t.max_steps in
  let outcome =
    match
      match t.backend with
      | Interp ->
          exec_event t container (Container.operands container) prof limit event 0
      | Compiled -> Compiled.run ?prof (compiled_for t container) ~event ~limit
    with
    | v ->
        Container.stop_execution container;
        Returned v
    | exception Compiled.Policy_error e ->
        Container.stop_execution container;
        Runtime_error (Printf.sprintf "%s: %s" (Events.name event) e)
    | exception Invalid_argument m ->
        Container.stop_execution container;
        Runtime_error (Printf.sprintf "%s: kernel check failed: %s" (Events.name event) m)
    | exception Compiled.Out_of_steps ->
        (* leave the timestamp in place: the security checker will find it *)
        Timed_out
  in
  (match prof with
  | None -> ()
  | Some pr -> Mx.profile_end pr ~sim_ns:(Sim_time.to_ns (Engine.now t.engine)));
  outcome
