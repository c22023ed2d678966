type 'a entry = { time : Sim_time.t; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }
let length t = t.size
let is_empty t = t.size = 0

let entry_before a b =
  let c = Sim_time.compare a.time b.time in
  if c <> 0 then c < 0 else a.seq < b.seq

(* Double capacity; only called with a non-empty heap, so [heap.(0)] is a
   valid filler for the slots beyond [size] (never read). *)
let grow t =
  let fresh = Array.make (2 * Array.length t.heap) t.heap.(0) in
  Array.blit t.heap 0 fresh 0 t.size;
  t.heap <- fresh

(* Top-level loops: a local [let rec] would build a closure per call. *)
let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_before t.heap.(i) t.heap.(parent) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(parent);
      t.heap.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && entry_before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && entry_before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(!smallest);
    t.heap.(!smallest) <- tmp;
    sift_down t !smallest
  end

let add t ~time payload =
  let entry = { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.heap then
    if t.size = 0 then t.heap <- Array.make 16 entry else grow t;
  t.heap.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let min_time t =
  if t.size = 0 then invalid_arg "Event_queue.min_time: empty";
  t.heap.(0).time

let take t =
  if t.size = 0 then invalid_arg "Event_queue.take: empty";
  let e = t.heap.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.heap.(0) <- t.heap.(t.size);
    sift_down t 0
  end;
  e.payload

let clear t =
  t.heap <- [||];
  t.size <- 0
