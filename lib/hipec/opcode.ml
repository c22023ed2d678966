type t =
  | Return
  | Arith
  | Comp
  | Logic
  | Emptyq
  | Inq
  | Jump
  | Dequeue
  | Enqueue
  | Request
  | Release
  | Flush
  | Set
  | Ref
  | Mod
  | Find
  | Activate
  | Fifo
  | Lru
  | Mru

let all =
  [ Return; Arith; Comp; Logic; Emptyq; Inq; Jump; Dequeue; Enqueue; Request; Release;
    Flush; Set; Ref; Mod; Find; Activate; Fifo; Lru; Mru ]

let code = function
  | Return -> 0x00
  | Arith -> 0x01
  | Comp -> 0x02
  | Logic -> 0x03
  | Emptyq -> 0x04
  | Inq -> 0x05
  | Jump -> 0x06
  | Dequeue -> 0x07
  | Enqueue -> 0x08
  | Request -> 0x09
  | Release -> 0x0A
  | Flush -> 0x0B
  | Set -> 0x0C
  | Ref -> 0x0D
  | Mod -> 0x0E
  | Find -> 0x0F
  | Activate -> 0x10
  | Fifo -> 0x11
  | Lru -> 0x12
  | Mru -> 0x13

let of_code c = List.find_opt (fun op -> code op = c) all

let name = function
  | Return -> "Return"
  | Arith -> "Arith"
  | Comp -> "Comp"
  | Logic -> "Logic"
  | Emptyq -> "EmptyQ"
  | Inq -> "InQ"
  | Jump -> "Jump"
  | Dequeue -> "DeQueue"
  | Enqueue -> "EnQueue"
  | Request -> "Request"
  | Release -> "Release"
  | Flush -> "Flush"
  | Set -> "Set"
  | Ref -> "Ref"
  | Mod -> "Mod"
  | Find -> "Find"
  | Activate -> "Activate"
  | Fifo -> "FIFO"
  | Lru -> "LRU"
  | Mru -> "MRU"

let of_name s =
  let s = String.lowercase_ascii s in
  List.find_opt (fun op -> String.lowercase_ascii (name op) = s) all

let is_test = function
  | Comp | Logic | Emptyq | Inq | Ref | Mod | Find | Request | Release | Fifo | Lru | Mru
    -> true
  | Return | Arith | Jump | Dequeue | Enqueue | Flush | Set | Activate -> false

let pp fmt t = Format.pp_print_string fmt (name t)

module type FLAG = sig
  type t

  val all : (t * int * string) list
end

module Make_flag (F : FLAG) = struct
  let code t =
    let _, c, _ = List.find (fun (x, _, _) -> x = t) F.all in
    c

  let of_code c =
    List.find_opt (fun (_, x, _) -> x = c) F.all |> Option.map (fun (t, _, _) -> t)

  let name t =
    let _, _, n = List.find (fun (x, _, _) -> x = t) F.all in
    n

  let of_name s =
    let s = String.lowercase_ascii s in
    List.find_opt (fun (_, _, n) -> String.lowercase_ascii n = s) F.all
    |> Option.map (fun (t, _, _) -> t)
end

module Arith_op = struct
  type t = Add | Sub | Mul | Div | Rem | Inc | Dec

  module F = struct
    type nonrec t = t

    let all =
      [ (Add, 1, "add"); (Sub, 2, "sub"); (Mul, 3, "mul"); (Div, 4, "div");
        (Rem, 5, "rem"); (Inc, 6, "inc"); (Dec, 7, "dec") ]
  end

  include Make_flag (F)
end

module Comp_op = struct
  type t = Gt | Lt | Eq | Ne | Ge | Le

  module F = struct
    type nonrec t = t

    let all =
      [ (Gt, 1, "gt"); (Lt, 2, "lt"); (Eq, 3, "eq"); (Ne, 4, "ne"); (Ge, 5, "ge");
        (Le, 6, "le") ]
  end

  include Make_flag (F)

  let apply op a b =
    match op with Gt -> a > b | Lt -> a < b | Eq -> a = b | Ne -> a <> b | Ge -> a >= b
    | Le -> a <= b
end

module Logic_op = struct
  type t = And | Or | Not | Xor

  module F = struct
    type nonrec t = t

    let all = [ (And, 1, "and"); (Or, 2, "or"); (Not, 3, "not"); (Xor, 4, "xor") ]
  end

  include Make_flag (F)

  let apply op a b =
    match op with And -> a && b | Or -> a || b | Not -> not a | Xor -> a <> b
end

module Queue_end = struct
  type t = Head | Tail

  module F = struct
    type nonrec t = t

    let all = [ (Head, 1, "head"); (Tail, 2, "tail") ]
  end

  include Make_flag (F)
end

module Bit_action = struct
  type t = Set_bit | Reset_bit

  module F = struct
    type nonrec t = t

    let all = [ (Set_bit, 1, "set"); (Reset_bit, 2, "reset") ]
  end

  include Make_flag (F)
end

module Bit_which = struct
  type t = Reference | Modify

  module F = struct
    type nonrec t = t

    let all = [ (Reference, 1, "reference"); (Modify, 2, "modify") ]
  end

  include Make_flag (F)
end
