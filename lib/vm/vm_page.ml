open Hipec_sim
open Hipec_machine

(* A page carries its own links for the one queue that may hold it, so
   relinking never allocates: [self] is the page's preallocated [Some]
   cell, and every [t option] link points at some page's [self].  The
   links are cyclic, so pages must never be compared with structural
   equality — use [==] or ids. *)
type t = {
  id : int;
  frame : Frame.t;
  mutable binding : (int * int) option;
  mutable mappings : (Pmap.t * int) list;
  mutable wired : bool;
  mutable last_access : Sim_time.t;
  mutable queue : queue;  (* [detached] when on no queue *)
  mutable rank : int;  (* position in queue order: head lowest *)
  mutable prev : t option;  (* queue order *)
  mutable next : t option;
  mutable older : t option;  (* recency order, by (last_access, rank) *)
  mutable newer : t option;
  self : t option;
}

(* The link core of one page queue: the queue-order list and, over the
   same members, the recency list sorted ascending by
   (last_access, rank).  Ranks come from [lo - 1] (head) or [hi + 1]
   (tail) and never change while the page is queued, so rank order is
   head-to-tail order.  The recency list is built on the first
   [oldest]/[newest] query and kept from then on ([indexed]): queues
   nobody asks for a victim, such as the pageout daemon's, never pay
   for it. *)
and queue = {
  qid : int;
  qname : string;
  some_qid : int option;  (* [Some qid], preallocated for [on_queue] *)
  mutable head : t option;
  mutable tail : t option;
  mutable indexed : bool;
  mutable oldest : t option;
  mutable newest : t option;
  mutable length : int;
  mutable lo : int;
  mutable hi : int;
}

let empty_queue ~qid ~qname ~some_qid =
  {
    qid;
    qname;
    some_qid;
    head = None;
    tail = None;
    indexed = false;
    oldest = None;
    newest = None;
    length = 0;
    lo = 0;
    hi = -1;
  }

let detached = empty_queue ~qid:0 ~qname:"" ~some_qid:None

(* A frame table's frame -> page index, kept in the table's page slot.
   [holders] counts the pages that hold a frame (created and not yet
   released); [mapped] counts their mapping entries. *)
type index = { slots : t option array; mutable holders : int; mutable mapped : int }
type Frame.pages += Index of index

let index tbl =
  match Frame.Table.pages tbl with
  | Index i -> i
  | _ ->
      let i = { slots = Array.make (Frame.Table.total tbl) None; holders = 0; mapped = 0 } in
      Frame.Table.set_pages tbl (Index i);
      i

let index_of_frame frame = index (Frame.table frame)
let holding i frame = i.slots.(frame)
let holding_count i = i.holders
let mapping_count i = i.mapped

let next_id = ref 0

let create ~frame =
  incr next_id;
  let id = !next_id in
  Frame.claim frame ~holder:id;
  let rec page =
    {
      id;
      frame;
      binding = None;
      mappings = [];
      wired = false;
      last_access = Sim_time.zero;
      queue = detached;
      rank = 0;
      prev = None;
      next = None;
      older = None;
      newer = None;
      self = Some page;
    }
  in
  let i = index_of_frame frame in
  i.slots.(Frame.index frame) <- page.self;
  i.holders <- i.holders + 1;
  page

let id t = t.id
let frame t = t.frame
let some t = t.self
let binding t = t.binding

let bind t ~object_id ~offset =
  match t.binding with
  | Some _ -> invalid_arg "Vm_page.bind: already bound"
  | None -> t.binding <- Some (object_id, offset)

let unbind t =
  match t.binding with
  | None -> invalid_arg "Vm_page.unbind: not bound"
  | Some _ -> t.binding <- None

let is_bound t = t.binding <> None
let mappings t = t.mappings
let count_mappings t n =
  let i = index_of_frame t.frame in
  i.mapped <- i.mapped + n

let add_mapping t pmap ~vpn =
  t.mappings <- (pmap, vpn) :: t.mappings;
  count_mappings t 1

let remove_mapping t pmap ~vpn =
  let kept = List.filter (fun (p, v) -> not (p == pmap && v = vpn)) t.mappings in
  count_mappings t (List.length kept - List.length t.mappings);
  t.mappings <- kept

let unmap_all t =
  List.iter (fun (pmap, vpn) -> Pmap.remove pmap ~vpn) t.mappings;
  count_mappings t (-List.length t.mappings);
  t.mappings <- []

let dirty t = Frame.modified t.frame
let referenced t = Frame.referenced t.frame
let clear_modified t = Frame.set_modified t.frame false
let clear_referenced t = Frame.set_referenced t.frame false
let wired t = t.wired

let set_wired t b =
  t.wired <- b;
  Frame.set_wired t.frame b

let last_access t = t.last_access

let holds_frame t = Frame.holder t.frame = t.id

(* The one way a page gives its frame back: the page must still hold the
   frame, and must be unbound and off every queue, so no object, pmap or
   queue can reach the frame once it is in the pool. *)
let releasable t =
  if not (holds_frame t) then
    Error
      (Printf.sprintf "page %d does not hold frame %d (it is %s)" t.id
         (Frame.index t.frame)
         (Frame.describe_holder (Frame.holder t.frame)))
  else if t.binding <> None then
    Error (Printf.sprintf "page %d on frame %d is still bound" t.id (Frame.index t.frame))
  else if t.queue != detached then
    Error
      (Printf.sprintf "page %d on frame %d is still on queue %s" t.id
         (Frame.index t.frame) t.queue.qname)
  else Ok ()

let release_frame tbl t =
  match releasable t with
  | Error msg -> invalid_arg ("Vm_page.release_frame: " ^ msg)
  | Ok () ->
      set_wired t false;
      Frame.set_modified t.frame false;
      let i = index tbl in
      i.slots.(Frame.index t.frame) <- None;
      i.holders <- i.holders - 1;
      Frame.Table.free tbl t.frame

(* ------------------------------------------------------------------ *)
(* Recency list                                                        *)
(* ------------------------------------------------------------------ *)

(* Strict (last_access, rank) order; ranks are unique within a queue. *)
let before a b =
  let ta = (a.last_access :> int) and tb = (b.last_access :> int) in
  ta < tb || (ta = tb && a.rank < b.rank)

let recency_unlink q p =
  (match p.older with Some o -> o.newer <- p.newer | None -> q.oldest <- p.newer);
  (match p.newer with Some n -> n.older <- p.older | None -> q.newest <- p.older);
  p.older <- None;
  p.newer <- None

(* Link [p] just after [after] ([None]: at the oldest end). *)
let recency_link_after q p after =
  let succ = match after with None -> q.oldest | Some a -> a.newer in
  p.older <- after;
  p.newer <- succ;
  (match after with None -> q.oldest <- p.self | Some a -> a.newer <- p.self);
  match succ with None -> q.newest <- p.self | Some s -> s.older <- p.self

(* Find [p]'s slot by walking from both ends in lockstep, so the cost is
   the distance to the nearer end: O(1) for the pages LRU and MRU
   recycle (the queue's minimum and maximum time) and for a touch, whose
   time is the newest. *)
let rec recency_step q p fwd bwd =
  match bwd with
  | None -> recency_link_after q p None
  | Some b when before b p -> recency_link_after q p bwd
  | Some b -> (
      match fwd with
      | None -> recency_link_after q p q.newest
      | Some f when before p f -> recency_link_after q p f.older
      | Some f -> recency_step q p f.newer b.older)

let recency_insert q p = recency_step q p q.oldest q.newest

let touch t now =
  t.last_access <- now;
  if t.queue.indexed then begin
    recency_unlink t.queue t;
    recency_insert t.queue t
  end

(* ------------------------------------------------------------------ *)
(* Queue links                                                         *)
(* ------------------------------------------------------------------ *)

let next_queue_id = ref 0

let new_queue name =
  incr next_queue_id;
  let qid = !next_queue_id in
  empty_queue ~qid ~qname:name ~some_qid:(Some qid)

let queue_id q = q.qid
let queue_name q = q.qname
let queue_length q = q.length
let on_queue t = t.queue.some_qid
let linked_on q t = t.queue == q
let head q = q.head
let tail q = q.tail
let next t = t.next

(* Sort the members by time, stably, so ties stay in rank order. *)
let build_index q =
  let rec members acc = function None -> acc | Some p -> members (p :: acc) p.prev in
  let by_time a b = compare (a.last_access :> int) (b.last_access :> int) in
  List.iter
    (fun p -> recency_link_after q p q.newest)
    (List.stable_sort by_time (members [] q.tail));
  q.indexed <- true

let oldest q =
  if not q.indexed then build_index q;
  q.oldest

(* The maximum time with the lowest rank among its ties: the page
   nearest the head, as a first-maximum scan would pick. *)
let rec lowest_rank_of_newest p =
  match p.older with
  | Some o when (o.last_access :> int) = (p.last_access :> int) -> lowest_rank_of_newest o
  | _ -> p.self

let newest q =
  if not q.indexed then build_index q;
  match q.newest with None -> None | Some p -> lowest_rank_of_newest p

let link q p ~at_head =
  p.queue <- q;
  q.length <- q.length + 1;
  if at_head then begin
    q.lo <- q.lo - 1;
    p.rank <- q.lo;
    p.next <- q.head;
    (match q.head with Some h -> h.prev <- p.self | None -> q.tail <- p.self);
    q.head <- p.self
  end
  else begin
    q.hi <- q.hi + 1;
    p.rank <- q.hi;
    p.prev <- q.tail;
    (match q.tail with Some tl -> tl.next <- p.self | None -> q.head <- p.self);
    q.tail <- p.self
  end;
  if q.indexed then recency_insert q p

let unlink q p =
  (match p.prev with Some pr -> pr.next <- p.next | None -> q.head <- p.next);
  (match p.next with Some n -> n.prev <- p.prev | None -> q.tail <- p.prev);
  p.prev <- None;
  p.next <- None;
  if q.indexed then recency_unlink q p;
  q.length <- q.length - 1;
  p.queue <- detached

(* One member's links agree with its neighbours and its queue's ends:
   each neighbour points back at it, is on the same queue and sits on
   the right side of it in rank order (and, once the recency list is
   built, in (time, rank) order); an unbuilt recency list links
   nothing.  O(1) and allocation-free. *)
let links_ok p =
  let q = p.queue in
  (match p.prev with
  | None -> q.head == p.self
  | Some a -> a.next == p.self && a.queue == q && a.rank < p.rank)
  && (match p.next with
     | None -> q.tail == p.self
     | Some n -> n.prev == p.self && n.queue == q && p.rank < n.rank)
  &&
  if q.indexed then
    (match p.older with
    | None -> q.oldest == p.self
    | Some o -> o.newer == p.self && o.queue == q && before o p)
    &&
    match p.newer with
    | None -> q.newest == p.self
    | Some n -> n.older == p.self && n.queue == q && before p n
  else p.older == None && p.newer == None

(* Member of the queue under [check_links]: a mark that is never a real
   queue, so it cannot be confused with one. *)
let checking = empty_queue ~qid:(-1) ~qname:"" ~some_qid:None

(* Each walk is bounded by the length, so a corrupted cycle reports
   false instead of looping, and passes [p.self] rather than a fresh
   [Some p], so it allocates nothing per page.  The queue-order walk
   marks its members, the recency walk must meet exactly the marked
   pages (and restores them), and a last queue-order pass clears any
   mark the recency walk missed.  A queue whose index is not built yet
   links no member into a recency list. *)
let check_links q =
  let ok = ref true in
  let walk first ~succ ~pred ~ordered ~last ~visit =
    let rec go steps prev = function
      | None -> (
          if steps <> q.length then ok := false;
          match (last, prev) with
          | None, None -> ()
          | Some l, Some p when l == p -> ()
          | _ -> ok := false)
      | Some _ when steps >= q.length -> ok := false
      | Some p ->
          if not (visit p) then ok := false;
          (match (pred p, prev) with
          | None, None -> ()
          | Some a, Some b when a == b -> ()
          | _ -> ok := false);
          (match prev with Some b when not (ordered b p) -> ok := false | _ -> ());
          go (steps + 1) p.self (succ p)
    in
    go 0 None first
  in
  let queue_order visit =
    walk q.head ~succ:(fun p -> p.next) ~pred:(fun p -> p.prev)
      ~ordered:(fun a b -> a.rank < b.rank) ~last:q.tail ~visit
  in
  let swap_mark ~from ~into p =
    p.queue == from
    && begin
         p.queue <- into;
         true
       end
  in
  if q.indexed then begin
    queue_order (swap_mark ~from:q ~into:checking);
    walk q.oldest ~succ:(fun p -> p.newer) ~pred:(fun p -> p.older) ~ordered:before
      ~last:q.newest ~visit:(swap_mark ~from:checking ~into:q);
    queue_order (fun p -> not (swap_mark ~from:checking ~into:q p))
  end
  else begin
    (match (q.oldest, q.newest) with None, None -> () | _ -> ok := false);
    queue_order (fun p -> p.queue == q && p.older == None && p.newer == None)
  end;
  !ok

let pp fmt t =
  let binding =
    match t.binding with
    | None -> "unbound"
    | Some (o, off) -> Printf.sprintf "obj%d+%d" o off
  in
  Format.fprintf fmt "page#%d(%a,%s%s%s)" t.id Frame.pp t.frame binding
    (if t.wired then ",wired" else "")
    (match on_queue t with None -> "" | Some q -> Printf.sprintf ",q%d" q)
