(* The links live on the pages themselves (see Vm_page): this module
   adds the exclusivity checks and the iteration helpers. *)

type t = Vm_page.queue

let create = Vm_page.new_queue
let id = Vm_page.queue_id
let name = Vm_page.queue_name
let length = Vm_page.queue_length
let is_empty t = Vm_page.queue_length t = 0

let claim t page =
  match Vm_page.on_queue page with
  | Some q ->
      invalid_arg
        (Printf.sprintf "Page_queue.%s: page #%d already on queue %d" (name t)
           (Vm_page.id page) q)
  | None -> ()

let enqueue_head t page =
  claim t page;
  Vm_page.link t page ~at_head:true

let enqueue_tail t page =
  claim t page;
  Vm_page.link t page ~at_head:false

let take t = function
  | None -> None
  | Some page as found ->
      Vm_page.unlink t page;
      found

let dequeue_head t = take t (Vm_page.head t)
let dequeue_tail t = take t (Vm_page.tail t)
let peek_head = Vm_page.head
let peek_tail = Vm_page.tail
let mem = Vm_page.linked_on

let remove t page =
  if Vm_page.linked_on t page then Vm_page.unlink t page
  else invalid_arg (Printf.sprintf "Page_queue.%s: remove of absent page" (name t))

let iter f t =
  let rec loop = function
    | None -> ()
    | Some page ->
        f page;
        loop (Vm_page.next page)
  in
  loop (Vm_page.head t)

let fold f init t =
  let acc = ref init in
  iter (fun p -> acc := f !acc p) t;
  !acc

let to_list t = List.rev (fold (fun acc p -> p :: acc) [] t)
let find_oldest = Vm_page.oldest
let find_newest = Vm_page.newest
let check_invariants = Vm_page.check_links
