open Hipec_core

(* Is [cc] the else-branch Jump of a test command?  Those are load-bearing
   (skip-next discipline) and must never be removed. *)
let is_else_branch code cc = cc > 0 && Opcode.is_test (Instr.opcode code.(cc - 1))

(* Jump threading: retarget each Jump through chains of Jumps to the
   final destination (cycle-safe). *)
let thread_jumps code =
  let len = Array.length code in
  let final_target start =
    let rec follow t visited =
      if t < 0 || t >= len || List.mem t visited then t
      else match code.(t) with Instr.Jump u -> follow u (t :: visited) | _ -> t
    in
    follow start []
  in
  let changed = ref false in
  let out =
    Array.map
      (function
        | Instr.Jump t ->
            let t' = final_target t in
            if t' <> t then changed := true;
            Instr.Jump t'
        | instr -> instr)
      code
  in
  (out, !changed)

(* Remove the commands marked [dead], remapping every jump target.  A
   removed index maps forward to the next kept index (correct both for
   removed jump-to-next commands and for positional skip targets). *)
let compact code dead =
  let len = Array.length code in
  let new_index = Array.make (len + 1) 0 in
  let next = ref 0 in
  for cc = 0 to len - 1 do
    new_index.(cc) <- !next;
    if not dead.(cc) then incr next
  done;
  new_index.(len) <- !next;
  (* forward-map removed slots to the following kept slot *)
  for cc = len - 1 downto 0 do
    if dead.(cc) then new_index.(cc) <- new_index.(cc + 1)
  done;
  let out = Array.make !next (Instr.Return 0) in
  let pos = ref 0 in
  Array.iteri
    (fun cc instr ->
      if not dead.(cc) then begin
        out.(!pos) <-
          (match instr with Instr.Jump t -> Instr.Jump new_index.(t) | i -> i);
        incr pos
      end)
    code;
  out

let one_pass code =
  let code, threaded = thread_jumps code in
  let len = Array.length code in
  let reachable = Analysis.reachable code in
  (* Constant facts from the bare-code abstract interpreter (no operand
     environment, so every fact holds whatever the install-time operand
     values are).  Lazy: most passes never decide a branch. *)
  let facts = lazy (Analysis.Code.analyze code) in
  let dead = Array.make len false in
  let changed = ref threaded in
  for cc = 0 to len - 1 do
    if not reachable.(cc) then begin
      dead.(cc) <- true;
      changed := true
    end
    else
      match code.(cc) with
      | Instr.Jump t when t = cc + 1 && not (is_else_branch code cc) ->
          dead.(cc) <- true;
          changed := true
      | Instr.Comp _
        when cc + 1 < len
             && (not (is_else_branch code cc))
             && (match code.(cc + 1) with Instr.Jump _ -> true | _ -> false) -> (
          (* Dead-branch elimination.  A provably-true test always skips
             its else-branch Jump: drop both (fallthrough now lands on
             the skip target, and jump threading has already retargeted
             any Jump aimed at the else branch).  A provably-false test
             never skips: drop the test, leaving its else-branch Jump as
             the unconditional continuation. *)
          match Analysis.Code.comp_verdict (Lazy.force facts) cc with
          | `Always_true ->
              dead.(cc) <- true;
              dead.(cc + 1) <- true;
              changed := true
          | `Always_false ->
              dead.(cc) <- true;
              changed := true
          | `Unknown -> ())
      | _ -> ()
  done;
  if !changed then Some (compact code dead) else None

let optimize_code code =
  if Array.length code = 0 then code
  else begin
    let current = ref code in
    let continue = ref true in
    while !continue do
      match one_pass !current with
      | Some better when Array.length better > 0 -> current := better
      | Some _ | None -> continue := false
    done;
    !current
  end

let optimize program =
  Program.make
    (List.map
       (fun event -> (event, optimize_code (Option.get (Program.code program ~event))))
       (Program.events program))

let savings ~before ~after = (Program.total_commands before, Program.total_commands after)
