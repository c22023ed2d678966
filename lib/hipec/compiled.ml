open Hipec_sim
open Hipec_machine
open Hipec_vm

type services = {
  request_frames : Container.t -> int -> bool;
  release_count : Container.t -> count:int -> int;
  release_page : Container.t -> Vm_page.t -> (unit, string) result;
  flush_page : Container.t -> Vm_page.t -> (unit, string) result;
  resolve_object : int -> Vm_object.t;
}

(* ------------------------------------------------------------------ *)
(* Command semantics, shared by both backends                          *)
(* ------------------------------------------------------------------ *)

exception Policy_error of string
exception Out_of_steps

let fail msg = raise_notrace (Policy_error msg)

let max_activation_depth = 16
let depth_msg = Printf.sprintf "activation depth exceeds %d" max_activation_depth

(* Typed operand access.  Each accessor takes the slot's index and its
   content ([Operand.get]) and returns the bare value, or fails with the
   operand diagnostic. *)

let[@inline] int_of ix = function
  | Some (Operand.Int r) -> !r
  | Some (Operand.Count q) -> Page_queue.length q
  | slot -> fail (Operand.type_error ix slot ~expected:Operand.Kint)

let[@inline] set_int ix slot v =
  match slot with
  | Some (Operand.Int r) -> r := v
  | _ -> fail (Operand.type_error ~write:true ix slot ~expected:Operand.Kint)

let[@inline] bool_of ix = function
  | Some (Operand.Bool r) -> !r
  | slot -> fail (Operand.type_error ix slot ~expected:Operand.Kbool)

let[@inline] set_bool ix slot v =
  match slot with
  | Some (Operand.Bool r) -> r := v
  | _ -> fail (Operand.type_error ~write:true ix slot ~expected:Operand.Kbool)

let[@inline] page_slot_of ix = function
  | Some (Operand.Page r) -> r
  | slot -> fail (Operand.type_error ix slot ~expected:Operand.Kpage)

let page_of ix slot =
  match !(page_slot_of ix slot) with
  | Some page -> page
  | None -> fail (Printf.sprintf "operand %d: empty page register" ix)

let[@inline] queue_of ix = function
  | Some (Operand.Queue q) -> q
  | slot -> fail (Operand.type_error ix slot ~expected:Operand.Kqueue)

let[@inline] arith op a b =
  match op with
  | Opcode.Arith_op.Add -> a + b
  | Opcode.Arith_op.Sub -> a - b
  | Opcode.Arith_op.Mul -> a * b
  | Opcode.Arith_op.Div -> if b = 0 then fail "division by zero" else a / b
  | Opcode.Arith_op.Rem -> if b = 0 then fail "remainder by zero" else a mod b
  | Opcode.Arith_op.Inc -> a + 1
  | Opcode.Arith_op.Dec -> a - 1

(* [Flush], and the implicit launder when a dirty bound page moves to
   the free queue: asynchronous writeback owned by the manager. *)
let flush services container page =
  if Vm_page.dirty page then
    match services.flush_page container page with Ok () -> () | Error e -> fail e

(* A bound page entering the free queue stops caching its object page:
   launder if dirty, drop translations, unbind. *)
let make_free_slot services container page =
  match Vm_page.binding page with
  | None -> ()
  | Some (oid, offset) -> (
      if Hipec_trace.Trace.takes Hipec_trace.Event.Cat.evict then
        Hipec_trace.Trace.evict ~source:Hipec_trace.Event.Policy ~obj:oid ~offset
          ~dirty:(Vm_page.dirty page);
      flush services container page;
      match services.resolve_object oid with
      | obj -> Vm_object.disconnect obj page
      | exception Not_found -> fail (Printf.sprintf "unknown object %d" oid))

let enqueue services container queue page whence =
  if Page_queue.id queue = Page_queue.id (Container.free_queue container) then
    make_free_slot services container page;
  match whence with
  | Opcode.Queue_end.Head -> Page_queue.enqueue_head queue page
  | Opcode.Queue_end.Tail -> Page_queue.enqueue_tail queue page

let dequeue queue slot whence =
  let taken =
    match whence with
    | Opcode.Queue_end.Head -> Page_queue.dequeue_head queue
    | Opcode.Queue_end.Tail -> Page_queue.dequeue_tail queue
  in
  match taken with
  | None -> fail (Printf.sprintf "DeQueue from empty queue %s" (Page_queue.name queue))
  | Some page -> slot := Vm_page.some page

(* [Release]: a count gives back free slots, a page register one slot;
   whether all of it went back. *)
let release services container ix slot =
  match slot with
  | Some (Operand.Int _ | Operand.Count _) ->
      let count = int_of ix slot in
      services.release_count container ~count >= count
  | Some (Operand.Page _) -> (
      match services.release_page container (page_of ix slot) with
      | Ok () -> true
      | Error e -> fail e)
  | Some v ->
      fail
        (Printf.sprintf "Release: operand %d is a %s" ix
           (Operand.kind_name (Operand.kind_of_value v)))
  | None -> fail (Printf.sprintf "Release: operand %d is empty" ix)

let set_bit page action which =
  let v = action = Opcode.Bit_action.Set_bit in
  match which with
  | Opcode.Bit_which.Reference -> Frame.set_referenced (Vm_page.frame page) v
  | Opcode.Bit_which.Modify -> Frame.set_modified (Vm_page.frame page) v

(* [Find]: load the resident page backing the virtual address [va] into
   the page register [slot]; whether there was one. *)
let find container slot va =
  let vpn = Pmap.vpn_of_va va in
  let region = Container.region container in
  let found =
    if vpn >= region.Vm_map.start_vpn && vpn < Vm_map.region_end_vpn region then
      Vm_object.find_resident (Container.obj container)
        ~offset:(Vm_map.offset_of_vpn region vpn)
    else None
  in
  slot := found;
  found != None

(* [FIFO]/[LRU]/[MRU]: evict one page from [queue] chosen by [select]; it
   becomes a free slot on the container's free queue and lands in the
   page register, whose slot content is [reg]. *)
let replace engine costs services container queue select reg =
  Engine.advance engine costs.Costs.hipec_complex_command;
  Engine.advance engine costs.Costs.queue_op;
  match select queue with
  | None -> false
  | Some victim ->
      Page_queue.remove queue victim;
      make_free_slot services container victim;
      Page_queue.enqueue_tail (Container.free_queue container) victim;
      page_slot_of Operand.Std.page_reg reg := Vm_page.some victim;
      true

(* ------------------------------------------------------------------ *)
(* The compiled backend                                                *)
(* ------------------------------------------------------------------ *)

(* One container's binding to a shared program.  [cells] holds the
   contents of the operand slots the program names, in the program's
   dense cell order, so a command reads its operand with one indexed
   load and no lookup; slots are immutable after install, which makes
   the snapshot exact.  The step limit, the activation depth and the
   profiler state are reset at each run's entry.  Runs never nest on the
   same container (the reclaim path's re-entry guard), so one [rt] per
   container is safe and a run allocates nothing. *)
type rt = {
  container : Container.t;
  cells : Operand.value option array;
  handlers : code array;
  mutable limit : int;
  mutable depth : int;
  mutable prof : Hipec_metrics.Metrics.Profile.run option;
}

and code = rt -> Operand.value option

type t = {
  code : code array;  (* per event: entry to its closure array *)
  slots : int array;  (* cell -> operand slot *)
}

type Container.code += Bound of rt

let[@inline] at rt j = Array.unsafe_get rt.cells j

(* Events are a byte in the [Activate] encoding, so 256 slots cover the
   whole dispatch space.  The undefined-event diagnostics (interpreter
   parity text) are formatted once per process, not per call. *)
let undefined_event_code : code array =
  Array.init 256 (fun ev ->
      let msg = Printf.sprintf "undefined event %s" (Events.name ev) in
      fun _ -> fail msg)

(* Dense event dispatch: one depth check, one bounds check and one
   indexed load. *)
let entry event rt =
  if rt.depth > max_activation_depth then fail depth_msg
  else if event land -256 <> 0 then
    fail (Printf.sprintf "undefined event %s" (Events.name event))
  else (Array.unsafe_get rt.handlers event) rt

let compile ~engine ~costs ~services ~counter program =
  let fetch_cost = costs.Costs.hipec_fetch_decode in
  let queue_cost = costs.Costs.queue_op in
  (* every operand slot the program names gets a dense cell index *)
  let cells = Hashtbl.create 16 and slots = ref [] in
  let cell ix =
    match Hashtbl.find_opt cells ix with
    | Some j -> j
    | None ->
        let j = Hashtbl.length cells in
        Hashtbl.add cells ix j;
        slots := ix :: !slots;
        j
  in
  let compile_event event code =
    let len = Array.length code in
    let table : code array = Array.make len (fun _ -> None) in
    let ev_name = Events.name event in
    (* A control transfer: in range it is one indexed call; out of range
       it is the interpreter's bounds error, produced without counting a
       step or charging a fetch (the interpreter checks before both).
       Targets are never negative except a [Jump]'s, checked there. *)
    let[@inline] jump cc rt =
      if cc < len then (Array.unsafe_get table cc) rt
      else fail (Printf.sprintf "%s: control ran past CC %d" ev_name cc)
    in
    let body cc instr : code =
      let[@inline] next rt = jump (cc + 1) rt in
      (* Skip-next semantics (paper Table 2): a test command that
         evaluates TRUE skips the immediately following command. *)
      let[@inline] cond b rt = jump (if b then cc + 2 else cc + 1) rt in
      (* Opcode index resolved at compile time for the profiler. *)
      let opc = Opcode.code (Instr.opcode instr) in
      (* The per-step prologue every command starts with, in the
         interpreter's exact order: profiler boundary, count the step,
         charge the fetch, then check the budget. *)
      let[@inline] fetch rt =
        (match rt.prof with
        | None -> ()
        | Some pr ->
            Hipec_metrics.Metrics.profile_step pr ~opcode:opc
              ~sim_ns:(Sim_time.to_ns (Engine.now engine)));
        incr counter;
        let n = Container.count_command rt.container in
        Engine.advance engine fetch_cost;
        if n > rt.limit then raise_notrace Out_of_steps
      in
      match instr with
      | Instr.Return ix ->
          let x = cell ix in
          fun rt ->
            fetch rt;
            at rt x
      | Instr.Jump target ->
          if target < 0 then fun rt ->
            fetch rt;
            fail (Printf.sprintf "%s: control ran past CC %d" ev_name target)
          else fun rt ->
            fetch rt;
            jump target rt
      | Instr.Arith (a, b, op) -> (
          let xa = cell a in
          match op with
          | Opcode.Arith_op.Inc | Opcode.Arith_op.Dec ->
              fun rt ->
                fetch rt;
                let sa = at rt xa in
                set_int a sa (arith op (int_of a sa) 0);
                next rt
          | _ ->
              let xb = cell b in
              fun rt ->
                fetch rt;
                let sa = at rt xa in
                let va = int_of a sa in
                let vb = int_of b (at rt xb) in
                set_int a sa (arith op va vb);
                next rt)
      | Instr.Comp (a, b, op) ->
          let xa = cell a and xb = cell b in
          fun rt ->
            fetch rt;
            let va = int_of a (at rt xa) in
            let vb = int_of b (at rt xb) in
            cond (Opcode.Comp_op.apply op va vb) rt
      | Instr.Logic (a, b, op) -> (
          let xa = cell a in
          match op with
          | Opcode.Logic_op.Not ->
              fun rt ->
                fetch rt;
                let sa = at rt xa in
                let r = Opcode.Logic_op.apply op (bool_of a sa) false in
                set_bool a sa r;
                cond r rt
          | _ ->
              let xb = cell b in
              fun rt ->
                fetch rt;
                let sa = at rt xa in
                let va = bool_of a sa in
                let vb = bool_of b (at rt xb) in
                let r = Opcode.Logic_op.apply op va vb in
                set_bool a sa r;
                cond r rt)
      | Instr.Emptyq q ->
          let xq = cell q in
          fun rt ->
            fetch rt;
            let queue = queue_of q (at rt xq) in
            Engine.advance engine queue_cost;
            cond (Page_queue.is_empty queue) rt
      | Instr.Inq (q, p) ->
          let xq = cell q and xp = cell p in
          fun rt ->
            fetch rt;
            let queue = queue_of q (at rt xq) in
            let page = page_of p (at rt xp) in
            Engine.advance engine queue_cost;
            cond (Page_queue.mem queue page) rt
      | Instr.Dequeue (p, q, whence) ->
          let xq = cell q and xp = cell p in
          fun rt ->
            fetch rt;
            let queue = queue_of q (at rt xq) in
            let slot = page_slot_of p (at rt xp) in
            Engine.advance engine queue_cost;
            dequeue queue slot whence;
            next rt
      | Instr.Enqueue (p, q, whence) ->
          let xq = cell q and xp = cell p in
          fun rt ->
            fetch rt;
            let queue = queue_of q (at rt xq) in
            let page = page_of p (at rt xp) in
            Engine.advance engine queue_cost;
            enqueue services rt.container queue page whence;
            next rt
      | Instr.Request n ->
          fun rt ->
            fetch rt;
            cond (services.request_frames rt.container n) rt
      | Instr.Release ix ->
          let x = cell ix in
          fun rt ->
            fetch rt;
            cond (release services rt.container ix (at rt x)) rt
      | Instr.Flush p ->
          let xp = cell p in
          fun rt ->
            fetch rt;
            flush services rt.container (page_of p (at rt xp));
            next rt
      | Instr.Set (p, action, which) ->
          let xp = cell p in
          fun rt ->
            fetch rt;
            set_bit (page_of p (at rt xp)) action which;
            next rt
      | Instr.Ref p ->
          let xp = cell p in
          fun rt ->
            fetch rt;
            cond (Vm_page.referenced (page_of p (at rt xp))) rt
      | Instr.Mod p ->
          let xp = cell p in
          fun rt ->
            fetch rt;
            cond (Vm_page.dirty (page_of p (at rt xp))) rt
      | Instr.Find (p, va) ->
          let xp = cell p and xva = cell va in
          fun rt ->
            fetch rt;
            let v = int_of va (at rt xva) in
            let slot = page_slot_of p (at rt xp) in
            cond (find rt.container slot v) rt
      | Instr.Activate ev ->
          fun rt ->
            fetch rt;
            rt.depth <- rt.depth + 1;
            ignore (entry ev rt);
            rt.depth <- rt.depth - 1;
            next rt
      | Instr.Fifo q | Instr.Lru q | Instr.Mru q ->
          let select =
            match instr with
            | Instr.Fifo _ -> Page_queue.peek_head
            | Instr.Lru _ -> Page_queue.find_oldest
            | _ -> Page_queue.find_newest
          in
          let xq = cell q and xreg = cell Operand.Std.page_reg in
          fun rt ->
            fetch rt;
            let queue = queue_of q (at rt xq) in
            cond (replace engine costs services rt.container queue select (at rt xreg)) rt
    in
    Array.iteri (fun cc instr -> table.(cc) <- body cc instr) code;
    Array.unsafe_get table 0
  in
  let handlers = Array.copy undefined_event_code in
  List.iter
    (fun event ->
      if event land -256 = 0 then begin
        let run_code = compile_event event (Program.code_or_empty program ~event) in
        (* the interpreter's run counter ticks on every defined-event
           entry, nested activations included *)
        handlers.(event) <-
          (fun rt ->
            Container.count_event_run rt.container;
            run_code rt)
      end)
    (Program.events program);
  { code = handlers; slots = Array.of_list (List.rev !slots) }

let bind t container =
  let ops = Container.operands container in
  {
    container;
    cells = Array.map (Operand.get ops) t.slots;
    handlers = t.code;
    limit = 0;
    depth = 0;
    prof = None;
  }

let run ?prof rt ~event ~limit =
  rt.limit <- limit;
  rt.depth <- 0;
  rt.prof <- prof;
  entry event rt
