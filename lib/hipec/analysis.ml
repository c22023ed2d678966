(* Abstract interpretation of HiPEC policy programs.

   One shared CFG per event (skip-next semantics: a test's TRUE edge is
   cc+2, its FALSE edge the else-branch Jump at cc+1), one worklist
   fixpoint, three cooperating abstract domains:

   - intervals over the int operands (joins at merges, threshold
     widening on back-edges), with branch refinement on Comp edges and
     queue-length intervals keyed by the queue object so Count operands
     alias their Queue correctly;
   - page/queue typestate per page operand: provably-empty register,
     register-held but unlinked, linked into a specific queue, held
     with unknown linkage, or unknown;
   - static fuel bounds: DAG events get an exact worst-case command
     count (activations composed bottom-up), cyclic events are proved
     terminating when every cycle both bumps a monotonic counter and
     passes an exit guard on it, and everything else is tagged
     unbounded with a reason.

   Soundness model.  Entry state is Top for every mutable operand —
   the kernel writes fault_va/reclaim_target between entries, queue
   contents drift, and the application holds the refs behind its user
   operands.  The only entry facts admitted are the install-time values
   of int operands that no event ever writes (when [analyze] is given
   the operand array); those are the "install-time constants" the
   divisor-nonzero facts rest on.  Must-facts (typestate
   warnings, dead edges) are derived only from within-event transfer,
   so a proven fact holds on every concrete execution of the event.

   Aliasing: two page operands can come to hold the same page (Find).
   Every queue-mutating command therefore demotes the *other* page
   operands' linked-into-queue facts to "held, linkage unknown", which
   keeps the double-EnQueue / Release-while-linked warnings sound. *)

module IMap = Map.Make (Int)

(* ------------------------------------------------------------------ *)
(* Intervals                                                           *)
(* ------------------------------------------------------------------ *)

module Interval = struct
  (* [None] bounds are infinities. *)
  type t = { lo : int option; hi : int option }

  let top = { lo = None; hi = None }
  let const n = { lo = Some n; hi = Some n }
  let nonneg = { lo = Some 0; hi = None }
  let make lo hi = { lo; hi }
  let is_top v = v.lo = None && v.hi = None

  let is_const v =
    match (v.lo, v.hi) with Some a, Some b when a = b -> Some a | _ -> None

  let contains v n =
    (match v.lo with None -> true | Some l -> l <= n)
    && match v.hi with None -> true | Some h -> n <= h

  let equal a b = a.lo = b.lo && a.hi = b.hi

  let join a b =
    {
      lo = (match (a.lo, b.lo) with Some x, Some y -> Some (min x y) | _ -> None);
      hi = (match (a.hi, b.hi) with Some x, Some y -> Some (max x y) | _ -> None);
    }

  (* [None] on an empty meet: the edge carrying it is infeasible. *)
  let meet a b =
    let lo = match (a.lo, b.lo) with Some x, Some y -> Some (max x y) | x, y -> (match x with None -> y | _ -> x) in
    let hi = match (a.hi, b.hi) with Some x, Some y -> Some (min x y) | x, y -> (match x with None -> y | _ -> x) in
    match (lo, hi) with Some l, Some h when l > h -> None | _ -> Some { lo; hi }

  (* Threshold widening: an unstable bound jumps to the nearest
     threshold, then to infinity.  Thresholds come from install-time
     constants so guard bounds like "x < limit" converge to [_, limit]
     instead of [_, +inf). *)
  let widen ~thresholds old next =
    let lo =
      match (old.lo, next.lo) with
      | None, _ -> None
      | Some o, Some n when n >= o -> old.lo
      | _, n -> (
          let cand = List.filter (fun t -> match n with Some n -> t <= n | None -> false) thresholds in
          match cand with [] -> None | l -> Some (List.fold_left max (List.hd l) l))
    in
    let hi =
      match (old.hi, next.hi) with
      | None, _ -> None
      | Some o, Some n when n <= o -> old.hi
      | _, n -> (
          let cand = List.filter (fun t -> match n with Some n -> t >= n | None -> false) thresholds in
          match cand with [] -> None | l -> Some (List.fold_left min (List.hd l) l))
    in
    { lo; hi }

  let shift v n =
    {
      lo = Option.map (fun x -> x + n) v.lo;
      hi = Option.map (fun x -> x + n) v.hi;
    }

  let add a b =
    {
      lo = (match (a.lo, b.lo) with Some x, Some y -> Some (x + y) | _ -> None);
      hi = (match (a.hi, b.hi) with Some x, Some y -> Some (x + y) | _ -> None);
    }

  let sub a b =
    {
      lo = (match (a.lo, b.hi) with Some x, Some y -> Some (x - y) | _ -> None);
      hi = (match (a.hi, b.lo) with Some x, Some y -> Some (x - y) | _ -> None);
    }

  let mul a b =
    match (is_const a, is_const b) with
    | Some 0, _ | _, Some 0 -> const 0
    | _ -> (
        match (a.lo, a.hi, b.lo, b.hi) with
        | Some al, Some ah, Some bl, Some bh ->
            let ps = [ al * bl; al * bh; ah * bl; ah * bh ] in
            { lo = Some (List.fold_left min (List.hd ps) ps);
              hi = Some (List.fold_left max (List.hd ps) ps) }
        | _ -> top)

  let div a b =
    if contains b 0 then top
    else
      match (a.lo, a.hi, b.lo, b.hi) with
      | Some al, Some ah, Some bl, Some bh ->
          let qs = [ al / bl; al / bh; ah / bl; ah / bh ] in
          { lo = Some (List.fold_left min (List.hd qs) qs);
            hi = Some (List.fold_left max (List.hd qs) qs) }
      | _ -> top

  let rem a b =
    (* OCaml's mod follows the dividend's sign. *)
    match b.lo with
    | Some bl when bl >= 1 && not (contains b 0) -> (
        match b.hi with
        | Some bh -> (
            match a.lo with
            | Some al when al >= 0 -> { lo = Some 0; hi = Some (bh - 1) }
            | _ -> { lo = Some (1 - bh); hi = Some (bh - 1) })
        | None -> top)
    | _ -> top

  let apply op a b =
    match op with
    | Opcode.Arith_op.Add -> add a b
    | Sub -> sub a b
    | Mul -> mul a b
    | Div -> div a b
    | Rem -> rem a b
    | Inc -> shift a 1
    | Dec -> shift a (-1)

  (* Definite comparison verdicts over intervals. *)
  let comp op a b =
    let lt x y =
      (* x definitely < y *)
      match (x.hi, y.lo) with Some xh, Some yl -> xh < yl | _ -> false
    in
    let le x y =
      match (x.hi, y.lo) with Some xh, Some yl -> xh <= yl | _ -> false
    in
    let definitely = function true -> `Always_true | false -> `Unknown in
    let definitely_not = function true -> `Always_false | false -> `Unknown in
    let first v k = if v <> `Unknown then v else k () in
    match op with
    | Opcode.Comp_op.Lt -> first (definitely (lt a b)) (fun () -> definitely_not (le b a))
    | Le -> first (definitely (le a b)) (fun () -> definitely_not (lt b a))
    | Gt -> first (definitely (lt b a)) (fun () -> definitely_not (le a b))
    | Ge -> first (definitely (le b a)) (fun () -> definitely_not (lt a b))
    | Eq -> (
        match (is_const a, is_const b) with
        | Some x, Some y when x = y -> `Always_true
        | _ -> if lt a b || lt b a then `Always_false else `Unknown)
    | Ne -> (
        match (is_const a, is_const b) with
        | Some x, Some y when x = y -> `Always_false
        | _ -> if lt a b || lt b a then `Always_true else `Unknown)

  (* Refine (a, b) under the assumption that [op a b] held.  [None] on a
     contradiction (the edge is infeasible). *)
  let refine op a b =
    let pred = Option.map (fun x -> x - 1) in
    let succ = Option.map (fun x -> x + 1) in
    let pair ra rb = match (ra, rb) with Some a, Some b -> Some (a, b) | _ -> None in
    match op with
    | Opcode.Comp_op.Lt ->
        pair (meet a { lo = None; hi = pred b.hi }) (meet b { lo = succ a.lo; hi = None })
    | Le -> pair (meet a { lo = None; hi = b.hi }) (meet b { lo = a.lo; hi = None })
    | Gt ->
        pair (meet a { lo = succ b.lo; hi = None }) (meet b { lo = None; hi = pred a.hi })
    | Ge -> pair (meet a { lo = b.lo; hi = None }) (meet b { lo = None; hi = a.hi })
    | Eq -> (
        match meet a b with None -> None | Some m -> Some (m, m))
    | Ne -> (
        let trim x other =
          match is_const other with
          | Some c ->
              let lo = match x.lo with Some l when l = c -> Some (c + 1) | l -> l in
              let hi = match x.hi with Some h when h = c -> Some (c - 1) | h -> h in
              (match (lo, hi) with Some l, Some h when l > h -> None | _ -> Some { lo; hi })
          | None -> Some x
        in
        pair (trim a b) (trim b a))

  let negate = function
    | Opcode.Comp_op.Lt -> Opcode.Comp_op.Ge
    | Le -> Gt
    | Gt -> Le
    | Ge -> Lt
    | Eq -> Ne
    | Ne -> Eq

  let pp fmt v =
    match (v.lo, v.hi) with
    | Some a, Some b when a = b -> Format.fprintf fmt "[%d,%d]" a b
    | lo, hi ->
        let b fmt = function
          | Some n -> Format.pp_print_int fmt n
          | None -> Format.pp_print_string fmt "inf"
        in
        Format.fprintf fmt "[%a,%a]" b lo b hi

  let to_string v = Format.asprintf "%a" pp v
end

(* ------------------------------------------------------------------ *)
(* Structural CFG helpers (shared with the pseudoc compiler)          *)
(* ------------------------------------------------------------------ *)

let successors code cc =
  let len = Array.length code in
  let keep = List.filter (fun t -> t >= 0 && t < len) in
  match code.(cc) with
  | Instr.Return _ -> []
  | Instr.Jump target -> keep [ target ]
  | instr when Opcode.is_test (Instr.opcode instr) -> keep [ cc + 1; cc + 2 ]
  | _ -> keep [ cc + 1 ]

let reachable code =
  let seen = Array.make (Array.length code) false in
  let rec visit cc =
    if not seen.(cc) then begin
      seen.(cc) <- true;
      List.iter visit (successors code cc)
    end
  in
  if Array.length code > 0 then visit 0;
  seen

(* Multi-command cycles consisting solely of unconditional Jumps: once
   entered, control can never leave — no test, no Return.  Single-node
   self-jumps are reported separately (the self-loop rule). *)
let jump_only_cycles code =
  let len = Array.length code in
  let cycles = ref [] in
  let claimed = Array.make len false in
  for start = 0 to len - 1 do
    if not claimed.(start) then
      match code.(start) with
      | Instr.Jump _ ->
          let rec walk cc trail =
            if cc < 0 || cc >= len then ()
            else if List.mem cc trail then begin
              (* the cycle is the trail suffix from [cc] *)
              let rec cut = function
                | [] -> []
                | x :: rest -> if x = cc then [ x ] else x :: cut rest
              in
              let cycle = List.sort compare (cut trail) in
              if List.length cycle >= 2 then begin
                List.iter (fun c -> claimed.(c) <- true) cycle;
                cycles := cycle :: !cycles
              end
            end
            else
              match code.(cc) with
              | Instr.Jump t -> walk t (cc :: trail)
              | _ -> ()
          in
          walk start []
      | _ -> ()
  done;
  List.rev !cycles

(* ------------------------------------------------------------------ *)
(* Abstract state                                                      *)
(* ------------------------------------------------------------------ *)

type pagev =
  | Pempty  (* register provably holds no page *)
  | Punlinked  (* holds a page linked into no queue *)
  | Plinked of int  (* holds a page linked into the queue behind this key *)
  | Psome  (* holds a page, linkage unknown *)
  | Ptop

let page_join a b =
  if a = b then a
  else
    match (a, b) with
    | (Punlinked | Plinked _ | Psome), (Punlinked | Plinked _ | Psome) -> Psome
    | _ -> Ptop

(* Asserting the register is non-empty; [None] = contradiction. *)
let page_meet_some = function
  | Pempty -> None
  | Ptop -> Some Psome
  | (Punlinked | Plinked _ | Psome) as p -> Some p

type state = {
  ints : Interval.t IMap.t;  (* Kint operands; absent = Top *)
  counts : Interval.t IMap.t;  (* canonical queue key -> length; absent = [0,inf) *)
  pages : pagev IMap.t;  (* Kpage operands; absent = Ptop *)
}

let norm_int v m ix = if Interval.is_top v then IMap.remove ix m else IMap.add ix v m
let norm_count v m k = if Interval.equal v Interval.nonneg then IMap.remove k m else IMap.add k v m
let norm_page v m ix = if v = Ptop then IMap.remove ix m else IMap.add ix v m

let state_join a b =
  let ints =
    IMap.merge
      (fun _ x y ->
        match (x, y) with
        | Some x, Some y ->
            let j = Interval.join x y in
            if Interval.is_top j then None else Some j
        | _ -> None)
      a.ints b.ints
  in
  let counts =
    IMap.merge
      (fun _ x y ->
        match (x, y) with
        | Some x, Some y ->
            let j = Interval.join x y in
            if Interval.equal j Interval.nonneg then None else Some j
        | _ -> None)
      a.counts b.counts
  in
  let pages =
    IMap.merge
      (fun _ x y ->
        match (x, y) with
        | Some x, Some y -> ( match page_join x y with Ptop -> None | p -> Some p)
        | _ -> None)
      a.pages b.pages
  in
  { ints; counts; pages }

let state_equal a b =
  IMap.equal Interval.equal a.ints b.ints
  && IMap.equal Interval.equal a.counts b.counts
  && IMap.equal ( = ) a.pages b.pages

let state_widen ~thresholds old next =
  let w dflt m_old m_next =
    IMap.merge
      (fun _ x y ->
        match (x, y) with
        | Some x, Some y -> Some (Interval.widen ~thresholds x y)
        | Some x, None -> Some (Interval.widen ~thresholds x dflt)
        | None, _ -> None)
      m_old m_next
    |> IMap.filter (fun _ v -> not (Interval.equal v dflt))
  in
  {
    ints = w Interval.top old.ints next.ints;
    counts = w Interval.nonneg old.counts next.counts;
    pages = next.pages (* finite lattice, no widening needed *);
  }

(* ------------------------------------------------------------------ *)
(* Findings and fuel                                                   *)
(* ------------------------------------------------------------------ *)

type severity = Error | Warning | Info

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"

type finding = {
  event : int;
  cc : int option;
  severity : severity;
  rule : string;
  message : string;
}

let pp_finding fmt f =
  Format.fprintf fmt "%s: %s%s: [%s] %s" (severity_name f.severity) (Events.name f.event)
    (match f.cc with Some cc -> Printf.sprintf " CC %d" cc | None -> "")
    f.rule f.message

type fuel =
  | Bounded of int
  | Terminates
  | Unbounded of string

let pp_fuel fmt = function
  | Bounded n -> Format.fprintf fmt "bounded: <= %d commands per entry" n
  | Terminates -> Format.pp_print_string fmt "terminates (no static command bound)"
  | Unbounded reason -> Format.fprintf fmt "unbounded: %s" reason

type trap = Div_by_zero | Deq_empty | Empty_page_register

let trap_name = function
  | Div_by_zero -> "div-by-zero"
  | Deq_empty -> "deq-empty"
  | Empty_page_register -> "empty-page-register"

(* ------------------------------------------------------------------ *)
(* Per-event analysis                                                  *)
(* ------------------------------------------------------------------ *)

type ctx = {
  kinds : Operand.kind option array option;  (* None without an operand array *)
  canon : int array;  (* queue/count operand -> canonical queue key (queue operand ix) *)
  free_key : int option;
  known_int : bool array;  (* operand is an Arith target somewhere in the program *)
  init : Interval.t IMap.t;
  thresholds : int list;
}

let kind_of ctx ix =
  match ctx.kinds with
  | Some kinds when ix >= 0 && ix < Array.length kinds -> kinds.(ix)
  | _ -> None

let trackable_int ctx ix =
  match ctx.kinds with
  | Some _ -> kind_of ctx ix = Some Operand.Kint
  | None -> ix >= 0 && ix < Array.length ctx.known_int && ctx.known_int.(ix)

let count_key ctx ix =
  match kind_of ctx ix with
  | Some Operand.Kqueue | Some Operand.Kcount -> Some ctx.canon.(ix)
  | _ -> None

let page_operand ctx ix = kind_of ctx ix = Some Operand.Kpage

let read_ivl ctx s ix =
  if trackable_int ctx ix then
    Option.value (IMap.find_opt ix s.ints) ~default:Interval.top
  else
    match count_key ctx ix with
    | Some k -> Option.value (IMap.find_opt k s.counts) ~default:Interval.nonneg
    | None -> Interval.top

let write_ivl ctx s ix v =
  if trackable_int ctx ix then { s with ints = norm_int v s.ints ix } else s

(* Refinement writes: an int operand refines in place; a count operand
   (or queue operand used in Emptyq-style tests) refines the canonical
   queue length. *)
let refine_ivl ctx s ix v =
  if trackable_int ctx ix then Some { s with ints = norm_int v s.ints ix }
  else
    match count_key ctx ix with
    | Some k -> (
        match Interval.meet v Interval.nonneg with
        | None -> None
        | Some v -> Some { s with counts = norm_count v s.counts k })
    | None -> Some s

let read_count _ctx s key = Option.value (IMap.find_opt key s.counts) ~default:Interval.nonneg

let write_count ctx s key v =
  ignore ctx;
  match Interval.meet v Interval.nonneg with
  | None -> { s with counts = IMap.remove key s.counts }
  | Some v -> { s with counts = norm_count v s.counts key }

let read_page ctx s ix =
  if page_operand ctx ix then Option.value (IMap.find_opt ix s.pages) ~default:Ptop
  else Ptop

let write_page ctx s ix v =
  if page_operand ctx ix then { s with pages = norm_page v s.pages ix } else s

(* A queue-mutating command may unlink a page aliased by another
   operand: demote every *other* linked fact to "held, unknown". *)
let smash_links ?(keep = -1) s =
  {
    s with
    pages =
      IMap.map (fun p -> p) s.pages
      |> IMap.mapi (fun ix p ->
             match p with Plinked _ when ix <> keep -> Psome | p -> p)
      |> IMap.filter (fun _ p -> p <> Ptop);
  }

let smash_counts s = { s with counts = IMap.empty }

(* What a command might do wrong, evaluated at its fixpoint state. *)
type site =
  | Sdiv of { op : Opcode.Arith_op.t; divisor : Interval.t }
  | Sdeq of { count : Interval.t }
  | Sread_page of { ix : int; v : pagev }
  | Sdouble_enqueue of { linked : int }
  | Srelease_linked of { linked : int }

type step_result = { edges : (int * state) list; sites : site list }

let transfer ctx code cc s =
  let len = Array.length code in
  let goto t s = if t >= 0 && t < len then [ (t, s) ] else [] in
  let fall s = goto (cc + 1) s in
  (* test semantics: TRUE skips the else-branch Jump *)
  let true_edge s = goto (cc + 2) s in
  let false_edge s = goto (cc + 1) s in
  let both s = true_edge s @ false_edge s in
  (* a successful read_page refines the register to "holds a page";
     a provably empty register means the command must trap: no edges. *)
  let with_page p k =
    let v = read_page ctx s p in
    let site = Sread_page { ix = p; v } in
    match page_meet_some v with
    | None -> { edges = []; sites = [ site ] }
    | Some v' -> k v' site
  in
  match code.(cc) with
  | Instr.Return _ -> { edges = []; sites = [] }
  | Instr.Jump t -> { edges = goto t s; sites = [] }
  | Instr.Arith (a, b, op) -> (
      let va = read_ivl ctx s a in
      match op with
      | Opcode.Arith_op.Div | Opcode.Arith_op.Rem ->
          let vb = read_ivl ctx s b in
          let site = Sdiv { op; divisor = vb } in
          if Interval.equal vb (Interval.const 0) then { edges = []; sites = [ site ] }
          else
            (* on the continuing edge the divisor was nonzero *)
            let vb' =
              match vb with
              | { Interval.lo = Some 0; hi } -> { Interval.lo = Some 1; hi }
              | { lo; hi = Some 0 } -> { lo; hi = Some (-1) }
              | v -> v
            in
            let s = match refine_ivl ctx s b vb' with Some s -> s | None -> s in
            let s = write_ivl ctx s a (Interval.apply op va vb') in
            { edges = fall s; sites = [ site ] }
      | _ ->
          let vb = read_ivl ctx s b in
          (* self-subtraction zeroes the operand whatever its value —
             the idiom pseudoc emits for [x = 0] resets *)
          let res =
            if a = b && op = Opcode.Arith_op.Sub then Interval.const 0
            else Interval.apply op va vb
          in
          { edges = fall (write_ivl ctx s a res); sites = [] })
  | Instr.Comp (a, b, op) ->
      let va = read_ivl ctx s a and vb = read_ivl ctx s b in
      let edge which op =
        match Interval.refine op va vb with
        | None -> []
        | Some (va', vb') -> (
            match refine_ivl ctx s a va' with
            | None -> []
            | Some s -> (
                match refine_ivl ctx s b vb' with
                | None -> []
                | Some s -> which s))
      in
      { edges = edge true_edge op @ edge false_edge (Interval.negate op); sites = [] }
  | Instr.Logic _ -> { edges = both s; sites = [] }
  | Instr.Emptyq q -> (
      match count_key ctx q with
      | None -> { edges = both s; sites = [] }
      | Some key ->
          let c = read_count ctx s key in
          let t_edges =
            match Interval.meet c (Interval.const 0) with
            | None -> []
            | Some c -> true_edge (write_count ctx s key c)
          in
          let f_edges =
            match Interval.meet c { Interval.lo = Some 1; hi = None } with
            | None -> []
            | Some c -> false_edge (write_count ctx s key c)
          in
          { edges = t_edges @ f_edges; sites = [] })
  | Instr.Inq (q, p) ->
      with_page p (fun v site ->
          let key = count_key ctx q in
          let t_state =
            match key with Some k -> write_page ctx s p (Plinked k) | None -> write_page ctx s p v
          in
          let f_edges =
            (* FALSE: the page is not in q — contradiction if provably linked there *)
            match (v, key) with
            | Plinked k, Some k' when k = k' -> []
            | _ -> false_edge (write_page ctx s p v)
          in
          { edges = true_edge t_state @ f_edges; sites = [ site ] })
  | Instr.Dequeue (p, q, _) -> (
      match count_key ctx q with
      | None ->
          let s = write_page ctx (smash_links s) p Punlinked in
          { edges = fall s; sites = [] }
      | Some key ->
          let c = read_count ctx s key in
          let site = Sdeq { count = c } in
          (* success requires a non-empty queue; afterwards one fewer *)
          (match Interval.meet c { Interval.lo = Some 1; hi = None } with
          | None -> { edges = []; sites = [ site ] }
          | Some c ->
              let s = write_count ctx s key (Interval.shift c (-1)) in
              let s = write_page ctx (smash_links s) p Punlinked in
              { edges = fall s; sites = [ site ] }))
  | Instr.Enqueue (p, q, _) ->
      with_page p (fun v site ->
          let extra =
            match v with Plinked k -> [ Sdouble_enqueue { linked = k } ] | _ -> []
          in
          let s =
            match count_key ctx q with
            | Some key ->
                let c = read_count ctx s key in
                let s = write_count ctx s key (Interval.shift c 1) in
                write_page ctx s p (Plinked key)
            | None -> write_page ctx s p Psome
          in
          { edges = fall s; sites = (site :: extra) })
  | Instr.Request _ ->
      (* granted frames land on the free queue: lengths are stale *)
      { edges = both (smash_counts s); sites = [] }
  | Instr.Release ix -> (
      match kind_of ctx ix with
      | Some Operand.Kpage ->
          with_page ix (fun v site ->
              let extra =
                match v with Plinked k -> [ Srelease_linked { linked = k } ] | _ -> []
              in
              (* the release path unlinks from any queue, then frees; the
                 register still holds the (now unqueued) page *)
              let s = smash_counts (smash_links s) in
              let s = write_page ctx s ix Psome in
              (* Release on a page register always sets cond: TRUE edge only *)
              { edges = true_edge s; sites = (site :: extra) })
      | Some (Operand.Kint | Operand.Kcount) ->
          (* releases pull pages out of the free queue *)
          { edges = both (smash_counts s); sites = [] }
      | _ ->
          (* unknown kind: could be either flavor *)
          { edges = both (smash_counts (smash_links s)); sites = [] })
  | Instr.Flush p -> with_page p (fun v site -> { edges = fall (write_page ctx s p v); sites = [ site ] })
  | Instr.Set (p, _, _) ->
      with_page p (fun v site -> { edges = fall (write_page ctx s p v); sites = [ site ] })
  | Instr.Ref p | Instr.Mod p ->
      with_page p (fun v site -> { edges = both (write_page ctx s p v); sites = [ site ] })
  | Instr.Find (p, _) ->
      let t = true_edge (write_page ctx s p Psome) in
      let f = false_edge (write_page ctx s p Pempty) in
      { edges = t @ f; sites = [] }
  | Instr.Activate _ ->
      (* the callee may write anything except the install-time constants *)
      { edges = fall { ints = ctx.init; counts = IMap.empty; pages = IMap.empty }; sites = [] }
  | Instr.Fifo q | Instr.Lru q | Instr.Mru q -> (
      match count_key ctx q with
      | None ->
          let s = smash_counts (smash_links s) in
          let s = write_page ctx s Operand.Std.page_reg Psome in
          { edges = both s; sites = [] }
      | Some key ->
          let c = read_count ctx s key in
          (* TRUE: a victim moved from q to the free queue and into the
             page register *)
          let t_edges =
            match Interval.meet c { Interval.lo = Some 1; hi = None } with
            | None -> []
            | Some c ->
                let s = write_count ctx s key (Interval.shift c (-1)) in
                let s =
                  match ctx.free_key with
                  | Some fk -> write_count ctx s fk (Interval.shift (read_count ctx s fk) 1)
                  | None -> s
                in
                let s = smash_links s in
                let s =
                  match ctx.free_key with
                  | Some fk -> write_page ctx s Operand.Std.page_reg (Plinked fk)
                  | None -> write_page ctx s Operand.Std.page_reg Psome
                in
                true_edge s
          in
          (* FALSE: the queue was empty *)
          let f_edges =
            match Interval.meet c (Interval.const 0) with
            | None -> []
            | Some c -> false_edge (write_count ctx s key c)
          in
          { edges = t_edges @ f_edges; sites = [] })

(* Worklist fixpoint over one event's code. *)
let fixpoint ctx code =
  let len = Array.length code in
  let in_state : state option array = Array.make len None in
  let joins = Array.make len 0 in
  let widen_after = 6 in
  let work = Queue.create () in
  let push cc = Queue.push cc work in
  let entry = { ints = ctx.init; counts = IMap.empty; pages = IMap.empty } in
  if len > 0 then begin
    in_state.(0) <- Some entry;
    push 0
  end;
  let budget = ref (len * 64 * (widen_after + 4) + 1024) in
  while (not (Queue.is_empty work)) && !budget > 0 do
    decr budget;
    let cc = Queue.pop work in
    match in_state.(cc) with
    | None -> ()
    | Some s ->
        let { edges; _ } = transfer ctx code cc s in
        List.iter
          (fun (t, s') ->
            match in_state.(t) with
            | None ->
                in_state.(t) <- Some s';
                push t
            | Some old ->
                let j = state_join old s' in
                if not (state_equal j old) then begin
                  joins.(t) <- joins.(t) + 1;
                  let j =
                    if joins.(t) > widen_after then
                      state_widen ~thresholds:ctx.thresholds old j
                    else j
                  in
                  if not (state_equal j old) then begin
                    in_state.(t) <- Some j;
                    push t
                  end
                end)
          edges
  done;
  (* If the budget ran out (it should not: widening bounds the chain
     height), fall back to Top states on structurally reachable nodes —
     still sound, just fact-free. *)
  if !budget <= 0 then begin
    let r = reachable code in
    let top = { ints = IMap.empty; counts = IMap.empty; pages = IMap.empty } in
    Array.iteri (fun cc b -> if b then in_state.(cc) <- Some top) r
  end;
  in_state

(* ------------------------------------------------------------------ *)
(* Fuel: DAG bounds and loop-termination proofs                        *)
(* ------------------------------------------------------------------ *)

(* Tarjan SCC over the feasible edge lists. *)
let sccs ~len ~succs =
  let index = Array.make len (-1) in
  let lowlink = Array.make len 0 in
  let on_stack = Array.make len false in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      (succs v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      out := pop [] :: !out
    end
  in
  for v = 0 to len - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  !out

let has_cycle_within ~nodes ~succs =
  (* DFS cycle detection restricted to [nodes] (a bool array). *)
  let len = Array.length nodes in
  let color = Array.make len 0 in
  (* 0 white, 1 grey, 2 black *)
  let rec visit v =
    if color.(v) = 1 then true
    else if color.(v) = 2 then false
    else begin
      color.(v) <- 1;
      let cyc = List.exists (fun w -> nodes.(w) && visit w) (succs v) in
      color.(v) <- 2;
      cyc
    end
  in
  let found = ref false in
  for v = 0 to len - 1 do
    if nodes.(v) && color.(v) = 0 && visit v then found := true
  done;
  !found

(* Try to prove one nontrivial SCC terminating: find an int operand x
   such that (1) every write to x inside the SCC is the same monotonic
   Inc or Dec, (2) removing the updates breaks every cycle (each
   iteration moves x), and (3) removing the qualifying exit guards on x
   breaks every cycle (each iteration tests x against a bound that the
   monotone movement must eventually violate, with the bound operand
   stable inside the SCC). *)
let scc_terminates ctx code ~in_scc ~succs =
  let len = Array.length code in
  let scc_nodes = List.filter (fun cc -> in_scc.(cc)) (List.init len Fun.id) in
  let writes_to x =
    List.filter
      (fun cc -> match code.(cc) with Instr.Arith (a, _, _) -> a = x | _ -> false)
      scc_nodes
  in
  let mutates_counts =
    List.exists
      (fun cc ->
        match code.(cc) with
        | Instr.Dequeue _ | Instr.Enqueue _ | Instr.Fifo _ | Instr.Lru _ | Instr.Mru _
        | Instr.Request _ | Instr.Release _ | Instr.Activate _ ->
            true
        | _ -> false)
      scc_nodes
  in
  let stable k =
    k >= 0
    && writes_to k = []
    && (trackable_int ctx k || ((not mutates_counts) && count_key ctx k <> None))
  in
  let candidates =
    List.sort_uniq compare
      (List.filter_map
         (fun cc ->
           match code.(cc) with
           | Instr.Arith (a, _, (Opcode.Arith_op.Inc | Opcode.Arith_op.Dec)) -> Some a
           | _ -> None)
         scc_nodes)
  in
  let try_candidate x =
    let updates = writes_to x in
    let dir =
      List.fold_left
        (fun acc cc ->
          match (acc, code.(cc)) with
          | Some `Bad, _ -> Some `Bad
          | _, Instr.Arith (_, _, Opcode.Arith_op.Inc) -> (
              match acc with Some `Down -> Some `Bad | _ -> Some `Up)
          | _, Instr.Arith (_, _, Opcode.Arith_op.Dec) -> (
              match acc with Some `Up -> Some `Bad | _ -> Some `Down)
          | _ -> Some `Bad)
        None updates
    in
    match dir with
    | None | Some `Bad -> false
    | Some ((`Up | `Down) as dir) ->
        (* the guard's staying condition must bound x against the
           direction of movement *)
        let bounds_x op a b =
          match dir with
          | `Up -> (a = x && (op = Opcode.Comp_op.Lt || op = Le) && stable b)
                   || (b = x && (op = Opcode.Comp_op.Gt || op = Ge) && stable a)
          | `Down -> (a = x && (op = Opcode.Comp_op.Gt || op = Ge) && stable b)
                     || (b = x && (op = Opcode.Comp_op.Lt || op = Le) && stable a)
        in
        let qualifying_guard cc =
          match code.(cc) with
          | Instr.Comp (a, b, op) ->
              let succ = succs cc in
              let inside = List.filter (fun t -> in_scc.(t)) succ in
              let outside = List.exists (fun t -> not in_scc.(t)) succ in
              outside && inside <> []
              && List.for_all
                   (fun t ->
                     (* t = cc+2 is the TRUE edge, t = cc+1 the FALSE edge *)
                     let op' = if t = cc + 2 then op else Interval.negate op in
                     bounds_x op' a b)
                   inside
          | _ -> false
        in
        let guards = List.filter qualifying_guard scc_nodes in
        guards <> []
        && (let without l =
              let nodes = Array.make len false in
              List.iter (fun cc -> nodes.(cc) <- true) scc_nodes;
              List.iter (fun cc -> nodes.(cc) <- false) l;
              nodes
            in
            let scc_succs cc = List.filter (fun t -> in_scc.(t)) (succs cc) in
            (not (has_cycle_within ~nodes:(without updates) ~succs:scc_succs))
            && not (has_cycle_within ~nodes:(without guards) ~succs:scc_succs))
  in
  List.exists try_candidate candidates

(* ------------------------------------------------------------------ *)
(* Whole-program results                                               *)
(* ------------------------------------------------------------------ *)

type event_info = {
  ev : int;
  code : Instr.t array;
  states : state option array;
  feasible : int list array;  (* successor lists under the fixpoint states *)
  site_list : (int * site list) list;
  verdicts : [ `Always_true | `Always_false | `Unknown ] array;
}

type t = {
  infos : (int * event_info) list;
  fuels : (int * fuel) list;
  all_findings : finding list;
  traps : trap list;
}

let analyze ?ops program =
  let events = Program.events program in
  let code_of ev = Option.value (Program.code program ~event:ev) ~default:[||] in
  (* program-wide: which operands does any event write as an int? *)
  let known_int = Array.make Operand.size false in
  List.iter
    (fun ev ->
      Array.iter
        (function Instr.Arith (a, _, _) when a >= 0 && a < Operand.size -> known_int.(a) <- true | _ -> ())
        (code_of ev))
    events;
  let kinds, canon, free_key, init =
    match ops with
    | None -> (None, Array.init Operand.size Fun.id, None, IMap.empty)
    | Some ops ->
        let kinds = Array.init Operand.size (fun ix -> Operand.kind_at ops ix) in
        (* canonicalize queue identity so a Count operand and its Queue
           operand share one length cell *)
        let canon = Array.init Operand.size Fun.id in
        let by_qid = Hashtbl.create 8 in
        Array.iteri
          (fun ix k ->
            let q =
              match k with
              | Some Operand.Kqueue | Some Operand.Kcount -> (
                  match Operand.get ops ix with
                  | Some (Operand.Queue q) | Some (Operand.Count q) -> Some q
                  | _ -> None)
              | _ -> None
            in
            match q with
            | Some q ->
                let qid = Hipec_vm.Page_queue.id q in
                (match Hashtbl.find_opt by_qid qid with
                | Some rep -> canon.(ix) <- rep
                | None -> Hashtbl.add by_qid qid ix)
            | None -> ())
          kinds;
        let free_key =
          match Operand.get ops Operand.Std.free_queue with
          | Some (Operand.Queue _) -> Some canon.(Operand.Std.free_queue)
          | _ -> None
        in
        (* install-time constants: int operands never written by any
           event and not owned by the kernel's fault/reclaim protocol *)
        let kernel_written =
          [ Operand.Std.fault_va; Operand.Std.reclaim_target ]
        in
        let init = ref IMap.empty in
        Array.iteri
          (fun ix k ->
            if
              k = Some Operand.Kint
              && (not known_int.(ix))
              && not (List.mem ix kernel_written)
            then
              match Operand.get ops ix with
              | Some (Operand.Int r) -> init := IMap.add ix (Interval.const !r) !init
              | _ -> ())
          kinds;
        (Some kinds, canon, free_key, !init)
  in
  let thresholds =
    List.sort_uniq compare
      (-1 :: 0 :: 1
      :: List.filter_map
           (fun (_, v) -> Interval.is_const v)
           (IMap.bindings init))
  in
  let ctx = { kinds; canon; free_key; known_int; init; thresholds } in
  (* per-event fixpoints *)
  let infos =
    List.map
      (fun ev ->
        let code = code_of ev in
        let states = fixpoint ctx code in
        let len = Array.length code in
        let feasible = Array.make len [] in
        let site_list = ref [] in
        let verdicts = Array.make len `Unknown in
        Array.iteri
          (fun cc st ->
            match st with
            | None -> ()
            | Some s ->
                let { edges; sites } = transfer ctx code cc s in
                feasible.(cc) <- List.sort_uniq compare (List.map fst edges);
                if sites <> [] then site_list := (cc, sites) :: !site_list;
                (match code.(cc) with
                | Instr.Comp (a, b, op) ->
                    verdicts.(cc) <-
                      Interval.comp op (read_ivl ctx s a) (read_ivl ctx s b)
                | _ -> ()))
          states;
        (ev, { ev; code; states; feasible; site_list = List.rev !site_list; verdicts }))
      events
  in
  (* fuel, composed across activations (memoized; cycles = unbounded) *)
  let fuel_tbl = Hashtbl.create 8 in
  let rec fuel_of visiting ev =
    match Hashtbl.find_opt fuel_tbl ev with
    | Some f -> f
    | None ->
        let f =
          if List.mem ev visiting then Unbounded "recursive activation"
          else
            match List.assoc_opt ev infos with
            | None -> Unbounded "event not defined"
            | Some info -> event_fuel (ev :: visiting) info
        in
        Hashtbl.replace fuel_tbl ev f;
        f
  and event_fuel visiting info =
    let len = Array.length info.code in
    let live cc = cc >= 0 && cc < len && info.states.(cc) <> None in
    let succs cc = if live cc then info.feasible.(cc) else [] in
    let live_nodes = Array.init len live in
    if not (Array.exists Fun.id live_nodes) then Bounded 0
    else begin
      let components = sccs ~len ~succs in
      let nontrivial =
        List.filter
          (fun comp ->
            match comp with
            | [ v ] -> List.mem v (succs v)
            | _ :: _ :: _ -> true
            | _ -> false)
          (List.map (List.filter live) components)
        |> List.filter (fun comp -> comp <> [])
      in
      (* callee fuel for every live Activate *)
      let callee_fuel = Array.make len (Bounded 0) in
      let degrade = ref (Bounded 0) in
      let worse a b =
        match (a, b) with
        | Unbounded _, _ -> a
        | _, Unbounded _ -> b
        | Terminates, _ | _, Terminates -> Terminates
        | Bounded x, Bounded y -> Bounded (max x y)
      in
      Array.iteri
        (fun cc instr ->
          if live cc then
            match instr with
            | Instr.Activate callee ->
                let f = fuel_of visiting callee in
                callee_fuel.(cc) <- f;
                (match f with
                | Bounded _ -> ()
                | Terminates -> degrade := worse !degrade Terminates
                | Unbounded _ ->
                    degrade := worse !degrade (Unbounded "activates an unbounded event"))
            | _ -> ())
        info.code;
      if nontrivial = [] then begin
        match !degrade with
        | Unbounded _ as u -> u
        | Terminates -> Terminates
        | Bounded _ ->
            (* acyclic: longest path in commands, activations inlined *)
            let memo = Array.make len (-1) in
            let rec cost cc =
              if memo.(cc) >= 0 then memo.(cc)
              else begin
                memo.(cc) <- 0 (* acyclic, but stay defensive *);
                let extra =
                  match callee_fuel.(cc) with Bounded n -> n | _ -> 0
                in
                let best =
                  List.fold_left (fun acc t -> max acc (cost t)) 0 (succs cc)
                in
                let c = 1 + extra + best in
                memo.(cc) <- c;
                c
              end
            in
            Bounded (cost 0)
      end
      else begin
        (* every nontrivial SCC needs a termination proof *)
        let all_proven =
          List.for_all
            (fun comp ->
              let in_scc = Array.make len false in
              List.iter (fun cc -> in_scc.(cc) <- true) comp;
              let jump_only =
                List.for_all
                  (fun cc -> match info.code.(cc) with Instr.Jump _ -> true | _ -> false)
                  comp
              in
              (not jump_only) && scc_terminates ctx info.code ~in_scc ~succs)
            nontrivial
        in
        if not all_proven then
          Unbounded
            (Printf.sprintf "cycle at CC %s without a provably monotonic exit counter"
               (match List.concat nontrivial with
               | [] -> "?"
               | ccs -> string_of_int (List.fold_left min max_int ccs)))
        else
          match !degrade with Unbounded _ as u -> u | _ -> Terminates
      end
    end
  in
  let fuels = List.map (fun (ev, _) -> (ev, fuel_of [] ev)) infos in
  (* findings *)
  let findings = ref [] in
  let add ev cc severity rule message =
    findings := { event = ev; cc; severity; rule; message } :: !findings
  in
  let queue_desc key =
    match ops with
    | None -> Printf.sprintf "operand %d" key
    | Some o -> (
        match Operand.get o key with
        | Some (Operand.Queue q) | Some (Operand.Count q) ->
            Hipec_vm.Page_queue.name q
        | _ -> Printf.sprintf "operand %d" key)
  in
  List.iter
    (fun (ev, info) ->
      let code = info.code in
      (* structural rules *)
      Array.iteri
        (fun cc instr ->
          match instr with
          | Instr.Jump t when t = cc ->
              add ev (Some cc) Error "self-loop" "unconditional self-jump never terminates"
          | _ -> ())
        code;
      List.iter
        (fun cycle ->
          match cycle with
          | head :: _ ->
              add ev (Some head) Error "jump-cycle"
                (Printf.sprintf
                   "unconditional jump cycle through CC %s never terminates"
                   (String.concat ", " (List.map string_of_int cycle)))
          | [] -> ())
        (jump_only_cycles code);
      let struct_reach = reachable code in
      Array.iteri
        (fun cc r ->
          if not r then add ev (Some cc) Warning "unreachable" "command is unreachable")
        struct_reach;
      (* semantic rules from the fixpoint *)
      let returns_live =
        Array.exists Fun.id
          (Array.mapi
             (fun cc st ->
               st <> None
               && match code.(cc) with Instr.Return _ -> true | _ -> false)
             info.states)
      in
      if Array.length code > 0 && not returns_live then
        add ev None Error "no-return-reachable"
          "no Return is reachable: every entry provably traps or loops forever";
      List.iter
        (fun (cc, sites) ->
          List.iter
            (function
              | Sdiv { op; divisor } ->
                  if Interval.equal divisor (Interval.const 0) then
                    add ev (Some cc) Warning "div-by-zero"
                      (Printf.sprintf "%s always traps: the divisor is provably zero"
                         (if op = Opcode.Arith_op.Div then "division" else "remainder"))
              | Sdeq { count } ->
                  if Interval.equal count (Interval.const 0) then
                    add ev (Some cc) Warning "deq-empty"
                      "DeQueue from a provably empty queue always traps"
              | Sread_page { ix; v } ->
                  if v = Pempty then
                    add ev (Some cc) Warning "empty-page-register"
                      (Printf.sprintf
                         "operand %d is provably empty here: this command always traps" ix)
              | Sdouble_enqueue { linked } ->
                  add ev (Some cc) Warning "double-enqueue"
                    (Printf.sprintf
                       "page is provably still linked into %s; EnQueue would corrupt the queue"
                       (queue_desc linked))
              | Srelease_linked { linked } ->
                  add ev (Some cc) Warning "release-linked"
                    (Printf.sprintf
                       "Release of a page provably still linked into %s (unlinked defensively at run time)"
                       (queue_desc linked)))
            sites)
        info.site_list)
    infos;
  (* orphan user events / Request under reclaim: program-shape rules *)
  let activations code =
    Array.to_list code
    |> List.filter_map (function Instr.Activate ev -> Some ev | _ -> None)
  in
  let activated = List.concat_map (fun (_, info) -> activations info.code) infos in
  List.iter
    (fun (ev, _) ->
      if ev >= Events.first_user && not (List.mem ev activated) then
        add ev None Warning "orphan-event" "user event is never activated")
    infos;
  let rec reaches_request visited ev =
    if List.mem ev visited then false
    else
      match List.assoc_opt ev infos with
      | None -> false
      | Some info ->
          Array.exists (function Instr.Request _ -> true | _ -> false) info.code
          || List.exists (reaches_request (ev :: visited)) (activations info.code)
  in
  if reaches_request [] Events.reclaim_frame then
    add Events.reclaim_frame None Warning "request-in-reclaim"
      "Request while the manager is reclaiming can thrash";
  (* unbounded-fuel tags *)
  List.iter
    (fun (ev, f) ->
      match f with
      | Unbounded reason ->
          add ev None Info "unbounded-fuel"
            (Printf.sprintf "no static fuel bound: %s" reason)
      | _ -> ())
    fuels;
  (* possible trap classes *)
  let traps = ref [] in
  let note t = if not (List.mem t !traps) then traps := t :: !traps in
  List.iter
    (fun (_, info) ->
      List.iter
        (fun (_, sites) ->
          List.iter
            (function
              | Sdiv { divisor; _ } -> if Interval.contains divisor 0 then note Div_by_zero
              | Sdeq { count } -> if Interval.contains count 0 then note Deq_empty
              | Sread_page { v; _ } -> (
                  match v with
                  | Pempty | Ptop -> note Empty_page_register
                  | Punlinked | Plinked _ | Psome -> ())
              | Sdouble_enqueue _ | Srelease_linked _ -> ())
            sites)
        info.site_list)
    infos;
  {
    infos;
    fuels;
    all_findings = List.rev !findings;
    traps = !traps;
  }

let findings t = t.all_findings
let fuel t ~event = List.assoc_opt event t.fuels
let fuel_table t = t.fuels
let possible_traps t = t.traps

let comp_verdict t ~event ~cc =
  match List.assoc_opt event t.infos with
  | None -> `Unknown
  | Some info ->
      if cc >= 0 && cc < Array.length info.verdicts then info.verdicts.(cc) else `Unknown

let reachable_cc t ~event ~cc =
  match List.assoc_opt event t.infos with
  | None -> false
  | Some info -> cc >= 0 && cc < Array.length info.states && info.states.(cc) <> None

(* ------------------------------------------------------------------ *)
(* Code-level entry point (the pseudoc optimizer's view)               *)
(* ------------------------------------------------------------------ *)

module Code = struct
  type info = {
    c_states : state option array;
    c_verdicts : [ `Always_true | `Always_false | `Unknown ] array;
  }

  let analyze code =
    let known_int = Array.make Operand.size false in
    Array.iter
      (function
        | Instr.Arith (a, _, _) when a >= 0 && a < Operand.size -> known_int.(a) <- true
        | _ -> ())
      code;
    let ctx =
      {
        kinds = None;
        canon = Array.init Operand.size Fun.id;
        free_key = None;
        known_int;
        init = IMap.empty;
        thresholds = [ -1; 0; 1 ];
      }
    in
    let states = fixpoint ctx code in
    let verdicts = Array.make (Array.length code) `Unknown in
    Array.iteri
      (fun cc st ->
        match (st, code.(cc)) with
        | Some s, Instr.Comp (a, b, op) ->
            verdicts.(cc) <- Interval.comp op (read_ivl ctx s a) (read_ivl ctx s b)
        | _ -> ())
      states;
    { c_states = states; c_verdicts = verdicts }

  let comp_verdict info cc =
    if cc >= 0 && cc < Array.length info.c_verdicts then info.c_verdicts.(cc)
    else `Unknown

  let reachable_cc info cc =
    cc >= 0 && cc < Array.length info.c_states && info.c_states.(cc) <> None
end
