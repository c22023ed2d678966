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

type exec = Value of Operand.value option | Err of string | Tout

(* Mutable state of one top-level [run].  The step budget and the
   activation depth are shared across nested [Activate] frames, exactly
   like the interpreter's [steps] ref and [depth] argument.  [prof] is
   the per-opcode profiler's boundary-timer state, polled by every step
   prologue exactly as the interpreter polls it.  One [rt] lives in each
   [t] and is reset per run — runs never nest on the same container (the
   reclaim path's re-entry guard), so the scratch record is safe to
   reuse and [run] allocates nothing. *)
type rt = {
  mutable steps : int;
  mutable depth : int;
  mutable prof : Hipec_metrics.Metrics.Profile.run option;
}

type code = rt -> exec

type t = {
  container : Container.t;
  engine : Engine.t;
  dispatch_cost : Sim_time.t;
  entry : int -> code;
  scratch : rt;
}

(* Events are a byte in the [Activate] encoding, so 256 slots cover the
   whole dispatch space.  The undefined-event diagnostics (interpreter
   parity text) are formatted once per process, not per call. *)
let undefined_event_code : code array =
  Array.init 256 (fun ev ->
      let msg = Printf.sprintf "undefined event %s" (Events.name ev) in
      fun _ -> Err msg)

(* Compile-time operand resolution: either a direct accessor of the cell
   the slot points at, or the exact diagnostic the interpreter would
   produce on first touch. *)
type 'a getter = G of (unit -> 'a) | Gerr of string
type 'a setter = S of ('a -> unit) | Serr of string

let max_activation_depth = 16
let depth_msg = Printf.sprintf "activation depth exceeds %d" max_activation_depth

let compile ~engine ~costs ~max_steps ~services ~counter container =
  let ops = Container.operands container in
  let free_q = Container.free_queue container in
  let fetch_cost = costs.Costs.hipec_fetch_decode in
  let queue_cost = costs.Costs.queue_op in
  let complex_cost = costs.Costs.hipec_complex_command in

  (* Runtime helpers, verbatim interpreter semantics. *)
  let flush page =
    if Vm_page.dirty page then services.flush_page container page else Ok ()
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
          match services.resolve_object oid with
          | obj ->
              Vm_object.disconnect obj page;
              Ok ()
          | exception Not_found -> Error (Printf.sprintf "unknown object %d" oid))
    end
  in

  (* Operand slots are immutable after install, so kinds (and the cells
     behind them) resolve here, once. *)
  let cread_int ix =
    match Operand.get ops ix with
    | Some (Operand.Int r) -> G (fun () -> !r)
    | Some (Operand.Count q) -> G (fun () -> Page_queue.length q)
    | _ -> (
        match Operand.read_int ops ix with Error e -> Gerr e | Ok _ -> assert false)
  in
  let cwrite_int ix =
    match Operand.get ops ix with
    | Some (Operand.Int r) -> S (fun v -> r := v)
    | _ -> (
        match Operand.write_int ops ix 0 with Error e -> Serr e | Ok () -> assert false)
  in
  let cread_bool ix =
    match Operand.get ops ix with
    | Some (Operand.Bool r) -> G (fun () -> !r)
    | _ -> (
        match Operand.read_bool ops ix with Error e -> Gerr e | Ok _ -> assert false)
  in
  let cwrite_bool ix =
    match Operand.get ops ix with
    | Some (Operand.Bool r) -> S (fun v -> r := v)
    | _ -> (
        match Operand.write_bool ops ix false with
        | Error e -> Serr e
        | Ok () -> assert false)
  in
  let cpage_slot ix = Operand.read_page_slot ops ix in
  let cqueue ix = Operand.read_queue ops ix in
  let empty_page_msg ix = Printf.sprintf "operand %d: empty page register" ix in

  (* Dense event dispatch: one precompiled 256-slot array, preloaded
     with the shared undefined-event error closures.  [entry] is one
     depth check, one bounds check and one indexed load — no hashing,
     no string formatting. *)
  let handlers = Array.copy undefined_event_code in
  let entry event rt =
    if rt.depth > max_activation_depth then Err depth_msg
    else if event land -256 <> 0 then
      Err (Printf.sprintf "undefined event %s" (Events.name event))
    else (Array.unsafe_get handlers event) rt
  in

  let compile_event event code : code =
    let len = Array.length code in
    let table : code array = Array.make len (fun _ -> Tout) in
    let ev_name = Events.name event in
    (* A control transfer: in range it is one indexed call; out of range
       it is the interpreter's bounds error, produced without counting a
       step or charging a fetch (the interpreter checks before both). *)
    let goto cc : code =
      if cc < 0 || cc >= len then
        let msg = Printf.sprintf "%s: control ran past CC %d" ev_name cc in
        fun _ -> Err msg
      else fun rt -> (Array.unsafe_get table cc) rt
    in
    let err e : code = fun _ -> Err e in
    let body cc instr : code =
      let next = goto (cc + 1) in
      (* Skip-next semantics (paper Table 2): a test command that
         evaluates TRUE skips the immediately following command. *)
      let skip = goto (cc + 2) in
      let cond b rt = if b then skip rt else next rt in
      match instr with
      | Instr.Return ix ->
          let v = Operand.get ops ix in
          fun _ -> Value v
      | Instr.Jump target -> goto target
      | Instr.Arith (a, b, op) -> (
          match cread_int a with
          | Gerr e -> err e
          | G geta -> (
              let getb =
                match op with
                | Opcode.Arith_op.Inc | Opcode.Arith_op.Dec -> G (fun () -> 0)
                | _ -> cread_int b
              in
              match getb with
              | Gerr e -> err e
              | G getb -> (
                  match cwrite_int a with
                  | Serr e -> (
                      (* the interpreter applies the operator before the
                         write, so a division by zero outranks the
                         write diagnostic *)
                      match op with
                      | Opcode.Arith_op.Div ->
                          fun _ ->
                            if getb () = 0 then Err "division by zero" else Err e
                      | Opcode.Arith_op.Rem ->
                          fun _ ->
                            if getb () = 0 then Err "remainder by zero" else Err e
                      | _ -> err e)
                  | S seta -> (
                      match op with
                      | Opcode.Arith_op.Add ->
                          fun rt ->
                            seta (geta () + getb ());
                            next rt
                      | Opcode.Arith_op.Sub ->
                          fun rt ->
                            seta (geta () - getb ());
                            next rt
                      | Opcode.Arith_op.Mul ->
                          fun rt ->
                            seta (geta () * getb ());
                            next rt
                      | Opcode.Arith_op.Div ->
                          fun rt ->
                            let d = getb () in
                            if d = 0 then Err "division by zero"
                            else begin
                              seta (geta () / d);
                              next rt
                            end
                      | Opcode.Arith_op.Rem ->
                          fun rt ->
                            let d = getb () in
                            if d = 0 then Err "remainder by zero"
                            else begin
                              seta (geta () mod d);
                              next rt
                            end
                      | Opcode.Arith_op.Inc ->
                          fun rt ->
                            seta (geta () + 1);
                            next rt
                      | Opcode.Arith_op.Dec ->
                          fun rt ->
                            seta (geta () - 1);
                            next rt))))
      | Instr.Comp (a, b, op) -> (
          match cread_int a with
          | Gerr e -> err e
          | G ga -> (
              match cread_int b with
              | Gerr e -> err e
              | G gb -> fun rt -> cond (Opcode.Comp_op.apply op (ga ()) (gb ())) rt))
      | Instr.Logic (a, b, op) -> (
          match cread_bool a with
          | Gerr e -> err e
          | G ga -> (
              let gb =
                match op with
                | Opcode.Logic_op.Not -> G (fun () -> false)
                | _ -> cread_bool b
              in
              match gb with
              | Gerr e -> err e
              | G gb -> (
                  match cwrite_bool a with
                  | Serr e -> err e
                  | S seta ->
                      fun rt ->
                        let r = Opcode.Logic_op.apply op (ga ()) (gb ()) in
                        seta r;
                        cond r rt)))
      | Instr.Emptyq q -> (
          match cqueue q with
          | Error e -> err e
          | Ok queue ->
              fun rt ->
                Engine.advance engine queue_cost;
                cond (Page_queue.is_empty queue) rt)
      | Instr.Inq (q, p) -> (
          match cqueue q with
          | Error e -> err e
          | Ok queue -> (
              match cpage_slot p with
              | Error e -> err e
              | Ok slot ->
                  let empty = empty_page_msg p in
                  fun rt ->
                    (match !slot with
                    | None -> Err empty
                    | Some page ->
                        Engine.advance engine queue_cost;
                        cond (Page_queue.mem queue page) rt)))
      | Instr.Dequeue (p, q, whence) -> (
          match cqueue q with
          | Error e -> err e
          | Ok queue -> (
              match cpage_slot p with
              | Error e -> err e
              | Ok slot ->
                  let deq =
                    match whence with
                    | Opcode.Queue_end.Head -> Page_queue.dequeue_head
                    | Opcode.Queue_end.Tail -> Page_queue.dequeue_tail
                  in
                  let empty =
                    Printf.sprintf "DeQueue from empty queue %s" (Page_queue.name queue)
                  in
                  fun rt ->
                    Engine.advance engine queue_cost;
                    (match deq queue with
                    | None -> Err empty
                    | Some page ->
                        slot := Some page;
                        next rt)))
      | Instr.Enqueue (p, q, whence) -> (
          match cqueue q with
          | Error e -> err e
          | Ok queue -> (
              match cpage_slot p with
              | Error e -> err e
              | Ok slot ->
                  let empty = empty_page_msg p in
                  let enq =
                    match whence with
                    | Opcode.Queue_end.Head -> Page_queue.enqueue_head
                    | Opcode.Queue_end.Tail -> Page_queue.enqueue_tail
                  in
                  if Page_queue.id queue = Page_queue.id free_q then
                    fun rt ->
                      (match !slot with
                      | None -> Err empty
                      | Some page -> (
                          Engine.advance engine queue_cost;
                          match make_free_slot page with
                          | Error e -> Err e
                          | Ok () ->
                              enq queue page;
                              next rt))
                  else
                    fun rt ->
                      (match !slot with
                      | None -> Err empty
                      | Some page ->
                          Engine.advance engine queue_cost;
                          enq queue page;
                          next rt)))
      | Instr.Request n -> fun rt -> cond (services.request_frames container n) rt
      | Instr.Release ix -> (
          match Operand.kind_at ops ix with
          | Some Operand.Kint | Some Operand.Kcount -> (
              match cread_int ix with
              | Gerr e -> err e
              | G get ->
                  fun rt ->
                    let count = get () in
                    let released = services.release_count container ~count in
                    cond (released >= count) rt)
          | Some Operand.Kpage -> (
              match cpage_slot ix with
              | Error e -> err e
              | Ok slot ->
                  let empty = empty_page_msg ix in
                  fun rt ->
                    (match !slot with
                    | None -> Err empty
                    | Some page -> (
                        match services.release_page container page with
                        | Error e -> Err e
                        | Ok () -> skip rt)))
          | Some k ->
              err (Printf.sprintf "Release: operand %d is a %s" ix (Operand.kind_name k))
          | None -> err (Printf.sprintf "Release: operand %d is empty" ix))
      | Instr.Flush p -> (
          match cpage_slot p with
          | Error e -> err e
          | Ok slot ->
              let empty = empty_page_msg p in
              fun rt ->
                (match !slot with
                | None -> Err empty
                | Some page ->
                    if Vm_page.dirty page then
                      match services.flush_page container page with
                      | Error e -> Err e
                      | Ok () -> next rt
                    else next rt))
      | Instr.Set (p, action, which) -> (
          match cpage_slot p with
          | Error e -> err e
          | Ok slot ->
              let empty = empty_page_msg p in
              let v = action = Opcode.Bit_action.Set_bit in
              let apply =
                match which with
                | Opcode.Bit_which.Reference ->
                    fun page -> Frame.set_referenced (Vm_page.frame page) v
                | Opcode.Bit_which.Modify ->
                    fun page -> Frame.set_modified (Vm_page.frame page) v
              in
              fun rt ->
                (match !slot with
                | None -> Err empty
                | Some page ->
                    apply page;
                    next rt))
      | Instr.Ref p -> (
          match cpage_slot p with
          | Error e -> err e
          | Ok slot ->
              let empty = empty_page_msg p in
              fun rt ->
                (match !slot with
                | None -> Err empty
                | Some page -> cond (Vm_page.referenced page) rt))
      | Instr.Mod p -> (
          match cpage_slot p with
          | Error e -> err e
          | Ok slot ->
              let empty = empty_page_msg p in
              fun rt ->
                (match !slot with
                | None -> Err empty
                | Some page -> cond (Vm_page.dirty page) rt))
      | Instr.Find (p, va_ix) -> (
          match cread_int va_ix with
          | Gerr e -> err e
          | G gva -> (
              match cpage_slot p with
              | Error e -> err e
              | Ok slot ->
                  let region = Container.region container in
                  let obj = Container.obj container in
                  let start_vpn = region.Vm_map.start_vpn in
                  let end_vpn = Vm_map.region_end_vpn region in
                  fun rt ->
                    let vpn = Pmap.vpn_of_va (gva ()) in
                    let found =
                      if vpn >= start_vpn && vpn < end_vpn then
                        Vm_object.find_resident obj
                          ~offset:(Vm_map.offset_of_vpn region vpn)
                      else None
                    in
                    slot := found;
                    cond (found <> None) rt))
      | Instr.Activate ev ->
          fun rt ->
            rt.depth <- rt.depth + 1;
            let r = entry ev rt in
            rt.depth <- rt.depth - 1;
            (match r with Value _ -> next rt | (Err _ | Tout) as stop -> stop)
      | Instr.Fifo q | Instr.Lru q | Instr.Mru q -> (
          match cqueue q with
          | Error e -> err e
          | Ok queue ->
              let select =
                match instr with
                | Instr.Fifo _ -> Page_queue.peek_head
                | Instr.Lru _ -> Page_queue.find_oldest
                | _ -> Page_queue.find_newest
              in
              let reg = cpage_slot Operand.Std.page_reg in
              (* Evict one page chosen by [select]; it becomes a free
                 slot on the container's free queue and lands in the
                 page register. *)
              fun rt ->
                Engine.advance engine complex_cost;
                Engine.advance engine queue_cost;
                (match select queue with
                | None -> next rt
                | Some victim -> (
                    Page_queue.remove queue victim;
                    match make_free_slot victim with
                    | Error e -> Err e
                    | Ok () -> (
                        Page_queue.enqueue_tail free_q victim;
                        match reg with
                        | Error e -> Err e
                        | Ok r ->
                            r := Some victim;
                            skip rt))))
    in
    Array.iteri
      (fun cc instr ->
        let b = body cc instr in
        (* Opcode index resolved at compile time for the profiler. *)
        let opc = Opcode.code (Instr.opcode instr) in
        (* The per-step prologue, in the interpreter's exact order:
           profiler boundary, count the step, charge the fetch, then
           check the budget. *)
        table.(cc) <-
          (fun rt ->
            (match rt.prof with
            | None -> ()
            | Some pr ->
                Hipec_metrics.Metrics.profile_step pr ~opcode:opc
                  ~sim_ns:(Sim_time.to_ns (Engine.now engine)));
            rt.steps <- rt.steps + 1;
            incr counter;
            Container.count_commands container 1;
            Engine.advance engine fetch_cost;
            if rt.steps > max_steps then Tout else b rt))
      code;
    goto 0
  in
  List.iter
    (fun event ->
      match Program.code (Container.program container) ~event with
      | None -> ()
      | Some code ->
          if event land -256 = 0 then begin
            let run_code = compile_event event code in
            (* the interpreter's run counter ticks on every defined-event
               entry, nested activations included *)
            handlers.(event) <-
              (fun rt ->
                Container.count_event_run container;
                run_code rt)
          end)
    (Program.events (Container.program container));
  {
    container;
    engine;
    dispatch_cost = costs.Costs.hipec_dispatch;
    entry;
    scratch = { steps = 0; depth = 0; prof = None };
  }

let container t = t.container

let run ?prof t ~event =
  Container.start_execution t.container ~at:(Engine.now t.engine);
  Engine.advance t.engine t.dispatch_cost;
  let rt = t.scratch in
  rt.steps <- 0;
  rt.depth <- 0;
  rt.prof <- prof;
  let r =
    try t.entry event rt
    with Invalid_argument m -> Err (Printf.sprintf "kernel check failed: %s" m)
  in
  rt.prof <- None;
  r
