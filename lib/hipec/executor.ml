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
  compiled : (int, Compiled.t) Hashtbl.t;  (* container id -> compiled program *)
  mutable last_compiled : Compiled.t option;
      (* one-slot cache over [compiled]: fault streams hit the same
         container repeatedly, so the common lookup is pointer-equal *)
}

let create ?(max_steps = 100_000) ~engine ~costs ~services () =
  {
    max_steps;
    engine;
    costs;
    services;
    backend = !default;
    counter = ref 0;
    compiled = Hashtbl.create 8;
    last_compiled = None;
  }

let commands_executed t = !(t.counter)
let backend t = t.backend
let max_steps t = t.max_steps

let compiled_for t container =
  match t.last_compiled with
  | Some c when Compiled.container c == container -> c
  | _ ->
      let key = Container.id container in
      let c =
        match Hashtbl.find_opt t.compiled key with
        | Some c -> c
        | None ->
            let c =
              Compiled.compile ~engine:t.engine ~costs:t.costs
                ~max_steps:t.max_steps
                ~services:t.services ~counter:t.counter container
            in
            Hashtbl.replace t.compiled key c;
            c
      in
      t.last_compiled <- Some c;
      c

let precompile t container =
  match t.backend with Compiled -> ignore (compiled_for t container) | Interp -> ()

let forget t container =
  (match t.last_compiled with
  | Some c when Compiled.container c == container -> t.last_compiled <- None
  | _ -> ());
  Hashtbl.remove t.compiled (Container.id container)

(* Internal execution result: a value, an error, or budget exhaustion
   (shared with the compiled backend). *)
type exec = Compiled.exec = Value of Operand.value option | Err of string | Tout

let ( let* ) r k = match r with Ok v -> k v | Error e -> Err e

module Mx = Hipec_metrics.Metrics

let run_interp t container ~event ~prof =
  let ops = Container.operands container in
  let free_q = Container.free_queue container in
  let charge d = Engine.advance t.engine d in
  let steps = ref 0 in
  Container.start_execution container ~at:(Engine.now t.engine);
  charge t.costs.Costs.hipec_dispatch;

  (* [Flush], and the implicit launder when a dirty bound page moves to
     the free queue: asynchronous writeback owned by the manager. *)
  let flush page =
    if Vm_page.dirty page then t.services.flush_page container page else Ok ()
  in
  (* A bound page entering the free queue stops caching its object page:
     launder if dirty, drop translations, unbind. *)
  let make_free_slot page =
    if not (Vm_page.is_bound page) then Ok ()
    else begin
      (if Hipec_trace.Trace.on () then
         match Vm_page.binding page with
         | Some (oid, offset) ->
             Hipec_trace.Trace.evict ~source:Hipec_trace.Event.Policy ~obj:oid
               ~offset ~dirty:(Vm_page.dirty page)
         | None -> ());
      Result.bind (flush page) (fun () ->
          let oid =
            match Vm_page.binding page with Some (o, _) -> o | None -> assert false
          in
          match t.services.resolve_object oid with
          | obj ->
              Vm_object.disconnect obj page;
              Ok ()
          | exception Not_found -> Error (Printf.sprintf "unknown object %d" oid))
    end
  in

  let read_page ix =
    Result.bind (Operand.read_page_slot ops ix) (fun slot ->
        match !slot with
        | Some page -> Ok page
        | None -> Error (Printf.sprintf "operand %d: empty page register" ix))
  in

  (* Evict one page from [q] chosen by [select]; it becomes a free slot
     on the container's free queue and lands in the page register. *)
  let complex_replace q select =
    charge t.costs.Costs.hipec_complex_command;
    charge t.costs.Costs.queue_op;
    match select q with
    | None -> Ok false
    | Some victim ->
        Page_queue.remove q victim;
        Result.bind (make_free_slot victim) (fun () ->
            Page_queue.enqueue_tail free_q victim;
            Result.bind (Operand.read_page_slot ops Operand.Std.page_reg) (fun reg ->
                reg := Some victim;
                Ok true))
  in

  let rec exec_event event depth =
    if depth > Compiled.max_activation_depth then Err Compiled.depth_msg
    else
      match Program.code (Container.program container) ~event with
      | None -> Err (Printf.sprintf "undefined event %s" (Events.name event))
      | Some code ->
          Container.count_event_run container;
          let len = Array.length code in
          let rec step cc =
            if cc < 0 || cc >= len then
              Err (Printf.sprintf "%s: control ran past CC %d" (Events.name event) cc)
            else begin
              let instr = code.(cc) in
              (* Profiler boundary, matching the compiled prologue:
                 the interval since the previous fetch is attributed to
                 the previously fetched opcode. *)
              (match prof with
              | None -> ()
              | Some pr ->
                  Mx.profile_step pr
                    ~opcode:(Opcode.code (Instr.opcode instr))
                    ~sim_ns:(Sim_time.to_ns (Engine.now t.engine)));
              incr steps;
              incr t.counter;
              Container.count_commands container 1;
              charge t.costs.Costs.hipec_fetch_decode;
              if !steps > t.max_steps then Tout
              else begin
                (* Skip-next semantics (paper Table 2): a test command
                   that evaluates TRUE skips the immediately following
                   command — by convention the else-branch Jump — so the
                   fast path never fetches it.  Static validation
                   guarantees every test is followed by a Jump. *)
                let set_cond b = if b then step (cc + 2) else step (cc + 1) in
                let next () = step (cc + 1) in
                match instr with
                | Instr.Return ix -> Value (Operand.get ops ix)
                | Instr.Jump target -> step target
                | Instr.Arith (a, b, op) ->
                    let* va = Operand.read_int ops a in
                    let* vb =
                      match op with
                      | Opcode.Arith_op.Inc | Opcode.Arith_op.Dec -> Ok 0
                      | _ -> Operand.read_int ops b
                    in
                    let* result = Opcode.Arith_op.apply op va vb in
                    let* () = Operand.write_int ops a result in
                    next ()
                | Instr.Comp (a, b, op) ->
                    let* va = Operand.read_int ops a in
                    let* vb = Operand.read_int ops b in
                    set_cond (Opcode.Comp_op.apply op va vb)
                | Instr.Logic (a, b, op) ->
                    let* va = Operand.read_bool ops a in
                    let* vb =
                      match op with
                      | Opcode.Logic_op.Not -> Ok false
                      | _ -> Operand.read_bool ops b
                    in
                    let result = Opcode.Logic_op.apply op va vb in
                    let* () = Operand.write_bool ops a result in
                    set_cond result
                | Instr.Emptyq q ->
                    let* queue = Operand.read_queue ops q in
                    charge t.costs.Costs.queue_op;
                    set_cond (Page_queue.is_empty queue)
                | Instr.Inq (q, p) ->
                    let* queue = Operand.read_queue ops q in
                    let* page = read_page p in
                    charge t.costs.Costs.queue_op;
                    set_cond (Page_queue.mem queue page)
                | Instr.Dequeue (p, q, whence) ->
                    let* queue = Operand.read_queue ops q in
                    let* slot = Operand.read_page_slot ops p in
                    charge t.costs.Costs.queue_op;
                    let taken =
                      match whence with
                      | Opcode.Queue_end.Head -> Page_queue.dequeue_head queue
                      | Opcode.Queue_end.Tail -> Page_queue.dequeue_tail queue
                    in
                    (match taken with
                    | None ->
                        Err
                          (Printf.sprintf "DeQueue from empty queue %s"
                             (Page_queue.name queue))
                    | Some page ->
                        slot := Some page;
                        next ())
                | Instr.Enqueue (p, q, whence) -> (
                    let* queue = Operand.read_queue ops q in
                    let* page = read_page p in
                    charge t.costs.Costs.queue_op;
                    let* () =
                      if Page_queue.id queue = Page_queue.id free_q then
                        make_free_slot page
                      else Ok ()
                    in
                    match whence with
                    | Opcode.Queue_end.Head ->
                        Page_queue.enqueue_head queue page;
                        next ()
                    | Opcode.Queue_end.Tail ->
                        Page_queue.enqueue_tail queue page;
                        next ())
                | Instr.Request n ->
                    set_cond (t.services.request_frames container n)
                | Instr.Release ix -> (
                    match Operand.kind_at ops ix with
                    | Some Operand.Kint | Some Operand.Kcount ->
                        let* count = Operand.read_int ops ix in
                        let released = t.services.release_count container ~count in
                        set_cond (released >= count)
                    | Some Operand.Kpage ->
                        let* page = read_page ix in
                        let* () = t.services.release_page container page in
                        set_cond true
                    | Some k ->
                        Err
                          (Printf.sprintf "Release: operand %d is a %s" ix
                             (Operand.kind_name k))
                    | None -> Err (Printf.sprintf "Release: operand %d is empty" ix))
                | Instr.Flush p ->
                    let* page = read_page p in
                    let* () = flush page in
                    next ()
                | Instr.Set (p, action, which) ->
                    let* page = read_page p in
                    let v = action = Opcode.Bit_action.Set_bit in
                    (match which with
                    | Opcode.Bit_which.Reference ->
                        Frame.set_referenced (Vm_page.frame page) v
                    | Opcode.Bit_which.Modify -> Frame.set_modified (Vm_page.frame page) v);
                    next ()
                | Instr.Ref p ->
                    let* page = read_page p in
                    set_cond (Vm_page.referenced page)
                | Instr.Mod p ->
                    let* page = read_page p in
                    set_cond (Vm_page.dirty page)
                | Instr.Find (p, va_ix) ->
                    let* va = Operand.read_int ops va_ix in
                    let* slot = Operand.read_page_slot ops p in
                    let region = Container.region container in
                    let vpn = Pmap.vpn_of_va va in
                    let found =
                      if vpn >= region.Vm_map.start_vpn && vpn < Vm_map.region_end_vpn region
                      then
                        Vm_object.find_resident (Container.obj container)
                          ~offset:(Vm_map.offset_of_vpn region vpn)
                      else None
                    in
                    slot := found;
                    set_cond (found <> None)
                | Instr.Activate ev -> (
                    match exec_event ev (depth + 1) with
                    | Value _ -> step (cc + 1)
                    | (Err _ | Tout) as stop -> stop)
                | Instr.Fifo q ->
                    let* queue = Operand.read_queue ops q in
                    let* found = complex_replace queue Page_queue.peek_head in
                    set_cond found
                | Instr.Lru q ->
                    let* queue = Operand.read_queue ops q in
                    let* found = complex_replace queue Page_queue.find_oldest in
                    set_cond found
                | Instr.Mru q ->
                    let* queue = Operand.read_queue ops q in
                    let* found = complex_replace queue Page_queue.find_newest in
                    set_cond found
              end
            end
          in
          step 0
  in
  try exec_event event 0
  with Invalid_argument m -> Err (Printf.sprintf "kernel check failed: %s" m)

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
  let result =
    match t.backend with
    | Interp -> run_interp t container ~event ~prof
    | Compiled -> Compiled.run ?prof (compiled_for t container) ~event
  in
  (match prof with
  | None -> ()
  | Some pr -> Mx.profile_end pr ~sim_ns:(Sim_time.to_ns (Engine.now t.engine)));
  match result with
  | Value v ->
      Container.stop_execution container;
      Returned v
  | Err e ->
      Container.stop_execution container;
      Runtime_error (Printf.sprintf "%s: %s" (Events.name event) e)
  | Tout ->
      (* leave the timestamp in place: the security checker will find it *)
      Timed_out
