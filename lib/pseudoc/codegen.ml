open Hipec_core
module Std = Operand.Std

type output = {
  program : Program.t;
  extra_operands : (int * Operand.value) list;
  event_numbers : (string * int) list;
}

exception Compile_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Compile_error m)) fmt

(* name -> (slot, writable) for built-in integer cells *)
let std_ints =
  [
    ("_free_count", (Std.free_count, false));
    ("_active_count", (Std.active_count, false));
    ("_inactive_count", (Std.inactive_count, false));
    ("_fault_va", (Std.fault_va, true));
    ("_reclaim_target", (Std.reclaim_target, true));
    ("inactive_target", (Std.inactive_target, true));
    ("free_target", (Std.free_target, true));
    ("reserved_target", (Std.reserved_target, true));
    ("reserve_target", (Std.reserved_target, true));
  ]

let std_queues =
  [
    ("_free_queue", Std.free_queue);
    ("_active_queue", Std.active_queue);
    ("_inactive_queue", Std.inactive_queue);
  ]

type ctx = {
  vars : (string, int) Hashtbl.t;
  literals : (int, int) Hashtbl.t;
  mutable extras : (int * Operand.value) list;
  mutable next_slot : int;
  mutable free_temps : int list;
  events : (string, int) Hashtbl.t;
  mutable next_label : int;
}

let fresh_label ctx prefix =
  ctx.next_label <- ctx.next_label + 1;
  Printf.sprintf "%s_%d" prefix ctx.next_label

let alloc_slot ctx value =
  if ctx.next_slot >= Operand.size then err "out of operand slots (max %d)" Operand.size;
  let slot = ctx.next_slot in
  ctx.next_slot <- slot + 1;
  ctx.extras <- (slot, value) :: ctx.extras;
  slot

let literal_slot ctx n =
  match Hashtbl.find_opt ctx.literals n with
  | Some slot -> slot
  | None ->
      let slot = alloc_slot ctx (Operand.Int (ref n)) in
      Hashtbl.replace ctx.literals n slot;
      slot

let alloc_temp ctx =
  match ctx.free_temps with
  | slot :: rest ->
      ctx.free_temps <- rest;
      slot
  | [] -> alloc_slot ctx (Operand.Int (ref 0))

let free_temp ctx slot = ctx.free_temps <- slot :: ctx.free_temps

let queue_slot ctx name =
  match List.assoc_opt name std_queues with
  | Some slot -> slot
  | None ->
      if Hashtbl.mem ctx.vars name then err "%s is a variable, not a queue" name
      else err "unknown queue %s" name

let int_slot ctx name =
  match Hashtbl.find_opt ctx.vars name with
  | Some slot -> slot
  | None -> (
      match List.assoc_opt name std_ints with
      | Some (slot, _) -> slot
      | None ->
          if List.mem_assoc name std_queues then
            err "%s is a queue, not an integer" name
          else err "unknown variable %s" name)

let writable_slot ctx name =
  match Hashtbl.find_opt ctx.vars name with
  | Some slot -> slot
  | None -> (
      match List.assoc_opt name std_ints with
      | Some (slot, true) -> slot
      | Some (_, false) -> err "%s is read-only" name
      | None -> err "unknown variable %s" name)

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

open Program.Asm

let binop_arith = function
  | Ast.Add -> Opcode.Arith_op.Add
  | Ast.Sub -> Opcode.Arith_op.Sub
  | Ast.Mul -> Opcode.Arith_op.Mul
  | Ast.Div -> Opcode.Arith_op.Div
  | Ast.Rem -> Opcode.Arith_op.Rem

let cmp_op = function
  | Ast.Lt -> Opcode.Comp_op.Lt
  | Ast.Le -> Opcode.Comp_op.Le
  | Ast.Gt -> Opcode.Comp_op.Gt
  | Ast.Ge -> Opcode.Comp_op.Ge
  | Ast.Eq -> Opcode.Comp_op.Eq
  | Ast.Ne -> Opcode.Comp_op.Ne

(* Compile an integer expression; returns (code, slot, temp?) where the
   slot holds the value after the code runs. *)
let rec compile_iexpr ctx = function
  | Ast.Int_lit n -> ([], literal_slot ctx n, false)
  | Ast.Var name -> ([], int_slot ctx name, false)
  | Ast.Binop (op, lhs, rhs) ->
      let lhs_code, lhs_slot, lhs_temp = compile_iexpr ctx lhs in
      let rhs_code, rhs_slot, rhs_temp = compile_iexpr ctx rhs in
      let dst = alloc_temp ctx in
      let code =
        lhs_code @ rhs_code
        @ [
            (* dst := 0; dst += lhs; dst (op)= rhs *)
            Op (Instr.Arith (dst, dst, Opcode.Arith_op.Sub));
            Op (Instr.Arith (dst, lhs_slot, Opcode.Arith_op.Add));
            Op (Instr.Arith (dst, rhs_slot, binop_arith op));
          ]
      in
      if lhs_temp then free_temp ctx lhs_slot;
      if rhs_temp then free_temp ctx rhs_slot;
      (code, dst, true)

(* Compile a condition: emitted code falls through when the condition
   holds and jumps to [false_lbl] otherwise. *)
let rec compile_cond ctx cond ~false_lbl =
  let simple_test instr = [ Op instr; Jump_to false_lbl ] in
  match cond with
  | Ast.Cmp (op, a, b) ->
      let a_code, a_slot, a_temp = compile_iexpr ctx a in
      let b_code, b_slot, b_temp = compile_iexpr ctx b in
      let code = a_code @ b_code @ simple_test (Instr.Comp (a_slot, b_slot, cmp_op op)) in
      if a_temp then free_temp ctx a_slot;
      if b_temp then free_temp ctx b_slot;
      code
  | Ast.Empty q -> simple_test (Instr.Emptyq (queue_slot ctx q))
  | Ast.In_queue q -> simple_test (Instr.Inq (queue_slot ctx q, Std.page_reg))
  | Ast.Referenced -> simple_test (Instr.Ref Std.page_reg)
  | Ast.Modified -> simple_test (Instr.Mod Std.page_reg)
  | Ast.Request n ->
      if n < 0 || n > 255 then err "request(%d) outside 0..255" n;
      simple_test (Instr.Request n)
  | Ast.Release_n e ->
      let code, slot, temp = compile_iexpr ctx e in
      let out = code @ simple_test (Instr.Release slot) in
      if temp then free_temp ctx slot;
      out
  | Ast.Evict (flavour, q) ->
      let qs = queue_slot ctx q in
      let instr =
        match flavour with
        | `Fifo -> Instr.Fifo qs
        | `Lru -> Instr.Lru qs
        | `Mru -> Instr.Mru qs
      in
      simple_test instr
  | Ast.Find e ->
      let code, slot, temp = compile_iexpr ctx e in
      let out = code @ simple_test (Instr.Find (Std.page_reg, slot)) in
      if temp then free_temp ctx slot;
      out
  | Ast.Not c ->
      (* c false -> fall through (Not true); c true -> jump to false_lbl *)
      let after = fresh_label ctx "not" in
      compile_cond ctx c ~false_lbl:after @ [ Jump_to false_lbl; Label after ]
  | Ast.And (a, b) ->
      compile_cond ctx a ~false_lbl @ compile_cond ctx b ~false_lbl
  | Ast.Or (a, b) ->
      let try_b = fresh_label ctx "or_rhs" in
      let done_ = fresh_label ctx "or_done" in
      compile_cond ctx a ~false_lbl:try_b
      @ [ Jump_to done_; Label try_b ]
      @ compile_cond ctx b ~false_lbl
      @ [ Label done_ ]

(* ------------------------------------------------------------------ *)
(* Statement compilation                                               *)
(* ------------------------------------------------------------------ *)

let rec compile_stmt ctx = function
  | Ast.Assign (name, e) ->
      let code, slot, temp = compile_iexpr ctx e in
      let dst = writable_slot ctx name in
      let out =
        code
        @ [
            Op (Instr.Arith (dst, dst, Opcode.Arith_op.Sub));
            Op (Instr.Arith (dst, slot, Opcode.Arith_op.Add));
          ]
      in
      if temp then free_temp ctx slot;
      out
  | Ast.Dequeue (whence, q) ->
      let e = match whence with `Head -> Opcode.Queue_end.Head | `Tail -> Opcode.Queue_end.Tail in
      [ Op (Instr.Dequeue (Std.page_reg, queue_slot ctx q, e)) ]
  | Ast.Enqueue (whence, q) ->
      let e = match whence with `Head -> Opcode.Queue_end.Head | `Tail -> Opcode.Queue_end.Tail in
      [ Op (Instr.Enqueue (Std.page_reg, queue_slot ctx q, e)) ]
  | Ast.Flush -> [ Op (Instr.Flush Std.page_reg) ]
  | Ast.Set_bit (action, which) ->
      let action =
        match action with `Set -> Opcode.Bit_action.Set_bit | `Reset -> Opcode.Bit_action.Reset_bit
      in
      let which =
        match which with
        | `Reference -> Opcode.Bit_which.Reference
        | `Modify -> Opcode.Bit_which.Modify
      in
      [ Op (Instr.Set (Std.page_reg, action, which)) ]
  | Ast.Cond_stmt c ->
      (* run for effect; neutralize the condition flag so a following
         unconditional Jump is not hijacked *)
      let l = fresh_label ctx "discard" in
      compile_cond ctx c ~false_lbl:l @ [ Label l ]
  | Ast.Activate name -> (
      match Hashtbl.find_opt ctx.events name with
      | Some n -> [ Op (Instr.Activate n) ]
      | None -> err "call to undefined event %s" name)
  | Ast.If (c, then_branch, else_branch) -> (
      match else_branch with
      | [] ->
          let l_end = fresh_label ctx "if_end" in
          compile_cond ctx c ~false_lbl:l_end
          @ compile_stmts ctx then_branch
          @ [ Label l_end ]
      | _ ->
          let l_else = fresh_label ctx "if_else" in
          let l_end = fresh_label ctx "if_end" in
          compile_cond ctx c ~false_lbl:l_else
          @ compile_stmts ctx then_branch
          @ [ Jump_to l_end; Label l_else ]
          @ compile_stmts ctx else_branch
          @ [ Label l_end ])
  | Ast.While (c, body) ->
      let l_top = fresh_label ctx "while" in
      let l_end = fresh_label ctx "while_end" in
      [ Label l_top ]
      @ compile_cond ctx c ~false_lbl:l_end
      @ compile_stmts ctx body
      @ [ Jump_to l_top; Label l_end ]
  | Ast.Return_page -> [ Op (Instr.Return Std.page_reg) ]
  | Ast.Return_void -> [ Op (Instr.Return Std.null) ]

and compile_stmts ctx stmts = List.concat_map (compile_stmt ctx) stmts

(* ------------------------------------------------------------------ *)
(* Whole programs                                                      *)
(* ------------------------------------------------------------------ *)

let event_number ctx name = Hashtbl.find_opt ctx.events name

let compile (ast : Ast.program) =
  try
    let ctx =
      {
        vars = Hashtbl.create 16;
        literals = Hashtbl.create 16;
        extras = [];
        next_slot = Std.first_user;
        free_temps = [];
        events = Hashtbl.create 8;
        next_label = 0;
      }
    in
    (* declare variables *)
    List.iter
      (fun (name, init) ->
        if Hashtbl.mem ctx.vars name then err "variable %s declared twice" name;
        if List.mem_assoc name std_ints || List.mem_assoc name std_queues || name = "page"
        then err "%s is a built-in name" name;
        Hashtbl.replace ctx.vars name (alloc_slot ctx (Operand.Int (ref init))))
      ast.Ast.vars;
    (* number events: PageFault = 0, ReclaimFrame = 1, rest in order *)
    List.iter
      (fun decl ->
        if Hashtbl.mem ctx.events decl.Ast.event_name then
          err "event %s declared twice" decl.Ast.event_name;
        Hashtbl.replace ctx.events decl.Ast.event_name (-1))
      ast.Ast.events;
    Hashtbl.reset ctx.events;
    Hashtbl.replace ctx.events "PageFault" Events.page_fault;
    Hashtbl.replace ctx.events "ReclaimFrame" Events.reclaim_frame;
    List.iteri
      (fun i decl -> Hashtbl.replace ctx.events decl.Ast.event_name (Events.first_user + i))
      (List.filter
         (fun d -> d.Ast.event_name <> "PageFault" && d.Ast.event_name <> "ReclaimFrame")
         ast.Ast.events);
    let declared name = List.exists (fun d -> d.Ast.event_name = name) ast.Ast.events in
    if not (declared "PageFault") then err "missing mandatory event PageFault";
    if not (declared "ReclaimFrame") then err "missing mandatory event ReclaimFrame";
    let bindings =
      List.map
        (fun decl ->
          let number = Option.get (event_number ctx decl.Ast.event_name) in
          let items =
            compile_stmts ctx decl.Ast.body @ [ Op (Instr.Return Std.null) ]
          in
          match Program.Asm.assemble items with
          | Ok code ->
              (* the safety epilogue Return is only kept when control can
                 actually fall through to it *)
              let code =
                let len = Array.length code in
                if len > 1 && not (Analysis.reachable code).(len - 1) then
                  Array.sub code 0 (len - 1)
                else code
              in
              (number, code)
          | Error e -> err "event %s: %s" decl.Ast.event_name e)
        ast.Ast.events
    in
    let program = Program.make bindings in
    Ok
      {
        program;
        extra_operands = List.rev ctx.extras;
        event_numbers =
          Hashtbl.fold (fun name number acc -> (name, number) :: acc) ctx.events [];
      }
  with Compile_error msg -> Error msg | Invalid_argument msg -> Error msg
