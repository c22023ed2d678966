type t = {
  table : (int * Instr.t array) list;
  (* the same bindings as parallel arrays, for the executor's lookup *)
  events : int array;
  codes : Instr.t array array;
}

(* "HP" ^ "EC" read as bytes *)
let magic = 0x48695045l

let make bindings =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (event, code) ->
      if event < 0 then invalid_arg "Program.make: negative event number";
      if Array.length code = 0 then invalid_arg "Program.make: empty event code";
      if Hashtbl.mem seen event then invalid_arg "Program.make: duplicate event";
      Hashtbl.replace seen event ())
    bindings;
  let table = List.sort (fun (a, _) (b, _) -> compare a b) bindings in
  {
    table;
    events = Array.of_list (List.map fst table);
    codes = Array.of_list (List.map snd table);
  }

let events t = List.map fst t.table
let code t ~event = List.assoc_opt event t.table

let rec find_code t event i =
  if i = Array.length t.events then [||]
  else if Array.unsafe_get t.events i = event then Array.unsafe_get t.codes i
  else find_code t event (i + 1)

let code_or_empty t ~event = find_code t event 0
let has_event t ~event = List.mem_assoc event t.table
let total_commands t = List.fold_left (fun acc (_, c) -> acc + Array.length c) 0 t.table

let to_image t =
  List.map
    (fun (event, code) -> (event, Array.append [| magic |] (Instr.encode_program code)))
    t.table

let of_image image =
  let rec decode_events acc = function
    | [] -> Ok (List.rev acc)
    | (event, words) :: rest ->
        if Array.length words < 2 then
          Error (Printf.sprintf "event %d: truncated command block" event)
        else if words.(0) <> magic then
          Error (Printf.sprintf "event %d: bad magic number" event)
        else
          let body = Array.sub words 1 (Array.length words - 1) in
          (match Instr.decode_program body with
          | Ok code -> decode_events ((event, code) :: acc) rest
          | Error e -> Error (Printf.sprintf "event %d: %s" event e))
  in
  match decode_events [] image with
  | Ok t -> (
      (* re-validate construction invariants *)
      try Ok (make t) with Invalid_argument m -> Error m)
  | Error _ as e -> e

(* Wire format: "HPEC" file magic, u32 event count, then per event:
   u32 event number, u32 word count, that many u32 command words
   (the first being the per-event magic).  All big-endian. *)
let file_magic = 0x48504543l

let to_bytes t =
  let image = to_image t in
  let total_words =
    List.fold_left (fun acc (_, words) -> acc + 2 + Array.length words) 2 image
  in
  let buf = Bytes.create (total_words * 4) in
  let pos = ref 0 in
  let put w =
    Bytes.set_int32_be buf !pos w;
    pos := !pos + 4
  in
  put file_magic;
  put (Int32.of_int (List.length image));
  List.iter
    (fun (event, words) ->
      put (Int32.of_int event);
      put (Int32.of_int (Array.length words));
      Array.iter put words)
    image;
  buf

let of_bytes buf =
  let len = Bytes.length buf in
  let pos = ref 0 in
  let take () =
    if !pos + 4 > len then Error "truncated command buffer"
    else begin
      let w = Bytes.get_int32_be buf !pos in
      pos := !pos + 4;
      Ok w
    end
  in
  let ( let* ) = Result.bind in
  let* m = take () in
  if m <> file_magic then Error "bad file magic"
  else
    let* count = take () in
    let count = Int32.to_int count in
    if count < 0 || count > 256 then Error "implausible event count"
    else begin
      let rec events acc k =
        if k = 0 then Ok (List.rev acc)
        else
          let* event = take () in
          let* nwords = take () in
          let event = Int32.to_int event and nwords = Int32.to_int nwords in
          if nwords < 0 || !pos + (nwords * 4) > len then
            Error (Printf.sprintf "event %d: truncated body" event)
          else begin
            let words = Array.make nwords 0l in
            for i = 0 to nwords - 1 do
              match take () with Ok w -> words.(i) <- w | Error _ -> assert false
            done;
            events ((event, words) :: acc) (k - 1)
          end
      in
      let* image = events [] count in
      if !pos <> len then Error "trailing bytes after command buffer"
      else of_image image
    end

module Asm = struct
  type item = Label of string | Op of Instr.t | Jump_to of string

  let assemble items =
    (* first pass: label -> command counter *)
    let labels = Hashtbl.create 16 in
    let rec scan cc = function
      | [] -> Ok ()
      | Label l :: rest ->
          if Hashtbl.mem labels l then Error (Printf.sprintf "duplicate label %S" l)
          else begin
            Hashtbl.replace labels l cc;
            scan cc rest
          end
      | (Op _ | Jump_to _) :: rest -> scan (cc + 1) rest
    in
    match scan 0 items with
    | Error _ as e -> e
    | Ok () ->
        let rec emit acc = function
          | [] -> Ok (Array.of_list (List.rev acc))
          | Label _ :: rest -> emit acc rest
          | Op i :: rest -> emit (i :: acc) rest
          | Jump_to l :: rest -> (
              match Hashtbl.find_opt labels l with
              | Some cc -> emit (Instr.Jump cc :: acc) rest
              | None -> Error (Printf.sprintf "undefined label %S" l))
        in
        Result.bind (emit [] items) (fun code ->
            if Array.length code = 0 then Error "empty code block" else Ok code)
end

let pp fmt t =
  List.iter
    (fun (event, code) ->
      Format.fprintf fmt "@[<v>;; %s@," (Events.name event);
      Format.fprintf fmt "  .  %a  %s@," Instr.pp_word magic "HiPEC Magic No";
      Array.iteri
        (fun i instr ->
          Format.fprintf fmt "%3d  %a  %a@," i Instr.pp_word (Instr.encode instr) Instr.pp
            instr)
        code;
      Format.fprintf fmt "@]@.")
    t.table
