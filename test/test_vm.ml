(* Tests for the Mach-like VM layer: pages, queues, objects, maps,
   the fault path and the default pageout daemon. *)

open Hipec_vm
module Frame = Hipec_machine.Frame
module Pmap = Hipec_machine.Pmap
module T = Hipec_sim.Sim_time

let make_page () =
  let tbl = Frame.Table.create ~total:4 in
  Vm_page.create ~frame:(Option.get (Frame.Table.alloc tbl))

(* ------------------------------------------------------------------ *)
(* Vm_page                                                             *)
(* ------------------------------------------------------------------ *)

let test_page_bind_unbind () =
  let p = make_page () in
  Alcotest.(check bool) "starts unbound" false (Vm_page.is_bound p);
  Vm_page.bind p ~object_id:7 ~offset:3;
  Alcotest.(check (option (pair int int))) "binding" (Some (7, 3)) (Vm_page.binding p);
  Alcotest.check_raises "double bind" (Invalid_argument "Vm_page.bind: already bound")
    (fun () -> Vm_page.bind p ~object_id:8 ~offset:0);
  Vm_page.unbind p;
  Alcotest.(check bool) "unbound" false (Vm_page.is_bound p)

let test_page_mappings () =
  let p = make_page () in
  let pm = Pmap.create () in
  Pmap.enter pm ~vpn:9 ~frame:(Vm_page.frame p) ~prot:Pmap.Read_write;
  Vm_page.add_mapping p pm ~vpn:9;
  Alcotest.(check int) "one mapping" 1 (List.length (Vm_page.mappings p));
  Vm_page.unmap_all p;
  Alcotest.(check int) "no mappings" 0 (List.length (Vm_page.mappings p));
  Alcotest.(check bool) "pmap cleared" true (Pmap.lookup pm ~vpn:9 = None)

let test_page_dirty_tracks_frame () =
  let p = make_page () in
  Alcotest.(check bool) "clean" false (Vm_page.dirty p);
  Frame.set_modified (Vm_page.frame p) true;
  Alcotest.(check bool) "dirty" true (Vm_page.dirty p);
  Vm_page.clear_modified p;
  Alcotest.(check bool) "cleaned" false (Vm_page.dirty p)

(* A page claims its frame at creation; a second page cannot. *)
let test_page_create_claims_frame () =
  let tbl = Frame.Table.create ~total:1 in
  let f = Option.get (Frame.Table.alloc tbl) in
  let p = Vm_page.create ~frame:f in
  Alcotest.(check int) "page holds the frame" (Vm_page.id p) (Frame.holder f);
  Alcotest.check_raises "held frame rejected"
    (Invalid_argument
       (Printf.sprintf "Frame.claim: frame 0 is held by page %d" (Vm_page.id p)))
    (fun () -> ignore (Vm_page.create ~frame:f));
  Vm_page.release_frame tbl p;
  Alcotest.check_raises "free frame rejected" (Invalid_argument "Frame.claim: frame 0 is free")
    (fun () -> ignore (Vm_page.create ~frame:f))

(* Only the holder gives a frame back, and only once it is unbound and
   off every queue; a stale page whose frame went to another page
   raises, naming the frame and both pages. *)
let test_page_release_checks_holder () =
  let tbl = Frame.Table.create ~total:1 in
  let stale = Vm_page.create ~frame:(Option.get (Frame.Table.alloc tbl)) in
  Frame.set_modified (Vm_page.frame stale) true;
  Vm_page.set_wired stale true;
  Vm_page.release_frame tbl stale;
  Alcotest.(check bool) "frame back in the pool" true (Frame.is_free (Vm_page.frame stale));
  Alcotest.(check bool) "modify bit cleared" false (Frame.modified (Vm_page.frame stale));
  Alcotest.(check bool) "wired bit cleared" false (Vm_page.wired stale);
  let heir = Vm_page.create ~frame:(Option.get (Frame.Table.alloc tbl)) in
  Alcotest.(check bool) "the same frame" true (Vm_page.frame heir == Vm_page.frame stale);
  Alcotest.check_raises "stale release"
    (Invalid_argument
       (Printf.sprintf
          "Vm_page.release_frame: page %d does not hold frame 0 (it is held by page %d)"
          (Vm_page.id stale) (Vm_page.id heir)))
    (fun () -> Vm_page.release_frame tbl stale);
  Alcotest.(check bool) "heir still holds the frame" true (Vm_page.holds_frame heir);
  Vm_page.bind heir ~object_id:1 ~offset:0;
  Alcotest.(check bool) "bound page not releasable" true
    (Result.is_error (Vm_page.releasable heir));
  Vm_page.unbind heir;
  let q = Page_queue.create "q" in
  Page_queue.enqueue_tail q heir;
  Alcotest.(check bool) "queued page not releasable" true
    (Result.is_error (Vm_page.releasable heir));
  ignore (Page_queue.dequeue_head q);
  Vm_page.release_frame tbl heir;
  Alcotest.(check bool) "conserved" true (Frame.Table.check_conservation tbl)

(* ------------------------------------------------------------------ *)
(* Page_queue                                                          *)
(* ------------------------------------------------------------------ *)

let pages n =
  let tbl = Frame.Table.create ~total:n in
  List.map (fun f -> Vm_page.create ~frame:f) (Frame.Table.alloc_many tbl n)

let test_queue_fifo () =
  let q = Page_queue.create "q" in
  let ps = pages 3 in
  List.iter (Page_queue.enqueue_tail q) ps;
  Alcotest.(check int) "length" 3 (Page_queue.length q);
  let order = List.map Vm_page.id ps in
  let popped =
    List.init 3 (fun _ -> Vm_page.id (Option.get (Page_queue.dequeue_head q)))
  in
  Alcotest.(check (list int)) "fifo order" order popped;
  Alcotest.(check bool) "empty" true (Page_queue.is_empty q)

let test_queue_head_tail () =
  let q = Page_queue.create "q" in
  match pages 3 with
  | [ a; b; c ] ->
      Page_queue.enqueue_tail q b;
      Page_queue.enqueue_head q a;
      Page_queue.enqueue_tail q c;
      Alcotest.(check int) "head" (Vm_page.id a) (Vm_page.id (Option.get (Page_queue.peek_head q)));
      Alcotest.(check int) "tail" (Vm_page.id c) (Vm_page.id (Option.get (Page_queue.peek_tail q)));
      Alcotest.(check int) "pop tail" (Vm_page.id c)
        (Vm_page.id (Option.get (Page_queue.dequeue_tail q)));
      Alcotest.(check bool) "invariants" true (Page_queue.check_invariants q)
  | _ -> Alcotest.fail "expected 3 pages"

let test_queue_exclusivity () =
  let q1 = Page_queue.create "q1" and q2 = Page_queue.create "q2" in
  match pages 1 with
  | [ p ] ->
      Page_queue.enqueue_tail q1 p;
      (try
         Page_queue.enqueue_tail q2 p;
         Alcotest.fail "expected exclusivity violation"
       with Invalid_argument _ -> ());
      ignore (Page_queue.dequeue_head q1);
      (* now legal *)
      Page_queue.enqueue_tail q2 p;
      Alcotest.(check (option int)) "on q2" (Some (Page_queue.id q2)) (Vm_page.on_queue p)
  | _ -> Alcotest.fail "expected 1 page"

let test_queue_remove_middle () =
  let q = Page_queue.create "q" in
  match pages 3 with
  | [ a; b; c ] ->
      List.iter (Page_queue.enqueue_tail q) [ a; b; c ];
      Page_queue.remove q b;
      Alcotest.(check int) "length" 2 (Page_queue.length q);
      Alcotest.(check (list int)) "order preserved"
        [ Vm_page.id a; Vm_page.id c ]
        (List.map Vm_page.id (Page_queue.to_list q));
      Alcotest.(check bool) "invariants" true (Page_queue.check_invariants q);
      Alcotest.check_raises "remove absent"
        (Invalid_argument "Page_queue.q: remove of absent page") (fun () ->
          Page_queue.remove q b)
  | _ -> Alcotest.fail "expected 3 pages"

(* Reference oracle for the recency index: the first extremum of the
   last-access time in head-to-tail order, by linear scan. *)
let scan_extremum better q =
  let key p = T.to_ns (Vm_page.last_access p) in
  Page_queue.fold
    (fun best p ->
      match best with Some b when not (better (key p) (key b)) -> best | _ -> Some p)
    None q

let scan_oldest = scan_extremum ( < )
let scan_newest = scan_extremum ( > )
let same_page a b = match (a, b) with None, None -> true | Some x, Some y -> x == y | _ -> false

let test_queue_find_min_max () =
  let q = Page_queue.create "q" in
  let ps = pages 5 in
  List.iteri (fun i p -> Vm_page.touch p (T.us ((i * 7) mod 3 * 10 + i))) ps;
  List.iter (Page_queue.enqueue_tail q) ps;
  let by p = T.to_ns (Vm_page.last_access p) in
  let mn = Option.get (Page_queue.find_oldest q) in
  let mx = Option.get (Page_queue.find_newest q) in
  Page_queue.iter
    (fun p ->
      Alcotest.(check bool) "min is min" true (by mn <= by p);
      Alcotest.(check bool) "max is max" true (by mx >= by p))
    q;
  (* ties on both ends: the page nearest the head wins *)
  List.iter (fun p -> Vm_page.touch p (T.us 100)) ps;
  Alcotest.(check bool) "oldest matches the scan" true
    (same_page (Page_queue.find_oldest q) (scan_oldest q));
  Alcotest.(check bool) "newest matches the scan" true
    (same_page (Page_queue.find_newest q) (scan_newest q));
  Alcotest.(check int) "tie goes to the head" (Vm_page.id (List.hd ps))
    (Vm_page.id (Option.get (Page_queue.find_newest q)));
  Alcotest.(check bool) "invariants" true (Page_queue.check_invariants q)

(* Touch, enqueue, dequeue and remove on a warmed queue allocate
   nothing: the links and their [Some] cells live on the pages. *)
let test_queue_ops_allocate_nothing () =
  let q = Page_queue.create "warm" in
  let ps = Array.of_list (pages 64) in
  Array.iter (Page_queue.enqueue_tail q) ps;
  let clock = ref 0 in
  let round () =
    for i = 0 to Array.length ps - 1 do
      incr clock;
      Vm_page.touch ps.(i) (T.ns !clock)
    done;
    for _ = 1 to 16 do
      let p = Option.get (Page_queue.find_newest q) in
      Page_queue.remove q p;
      Page_queue.enqueue_head q p;
      let p = Option.get (Page_queue.dequeue_head q) in
      Page_queue.enqueue_tail q p;
      let p = Option.get (Page_queue.find_oldest q) in
      Page_queue.remove q p;
      Page_queue.enqueue_tail q p;
      let p = Option.get (Page_queue.dequeue_tail q) in
      Page_queue.enqueue_head q p
    done
  in
  round ();
  let overhead =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  let a = Gc.minor_words () in
  for _ = 1 to 10 do
    round ()
  done;
  let b = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words" overhead (b -. a);
  Alcotest.(check bool) "invariants" true (Page_queue.check_invariants q)

(* ------------------------------------------------------------------ *)
(* Vm_object                                                           *)
(* ------------------------------------------------------------------ *)

let test_object_connect_disconnect () =
  let obj = Vm_object.create ~size_pages:10 ~backing:Vm_object.Zero_fill () in
  let p = make_page () in
  Vm_object.connect obj p ~offset:4;
  Alcotest.(check int) "resident" 1 (Vm_object.resident_count obj);
  Alcotest.(check bool) "found" true (match Vm_object.find_resident obj ~offset:4 with Some p' -> p' == p | None -> false);
  Vm_object.disconnect obj p;
  Alcotest.(check int) "gone" 0 (Vm_object.resident_count obj);
  Alcotest.(check bool) "unbound" false (Vm_page.is_bound p)

let test_object_connect_validation () =
  let obj = Vm_object.create ~size_pages:2 ~backing:Vm_object.Zero_fill () in
  let p = make_page () in
  Alcotest.check_raises "offset range" (Invalid_argument "Vm_object.connect: bad offset")
    (fun () -> Vm_object.connect obj p ~offset:2);
  Vm_object.connect obj p ~offset:0;
  let p2 = make_page () in
  Alcotest.check_raises "resident clash"
    (Invalid_argument "Vm_object.connect: offset resident") (fun () ->
      Vm_object.connect obj p2 ~offset:0)

let test_object_backing () =
  let file = Vm_object.create ~size_pages:4 ~backing:(Vm_object.File { base_block = 100 }) () in
  Alcotest.(check (option int)) "file block" (Some (100 + 16)) (Vm_object.disk_block file ~offset:2);
  Alcotest.(check bool) "file always has data" true (Vm_object.has_backing_data file ~offset:3);
  let anon = Vm_object.create ~size_pages:4 ~backing:Vm_object.Zero_fill () in
  Alcotest.(check bool) "anon starts empty" false (Vm_object.has_backing_data anon ~offset:0);
  Alcotest.(check (option int)) "no swap yet" None (Vm_object.disk_block anon ~offset:0);
  Vm_object.assign_swap anon ~offset:0 ~block:500;
  Alcotest.(check (option int)) "swap slot" (Some 500) (Vm_object.disk_block anon ~offset:0);
  Alcotest.(check bool) "now has data" true (Vm_object.has_backing_data anon ~offset:0)

let test_object_iter_ascending () =
  let obj = Vm_object.create ~size_pages:12 ~backing:Vm_object.Zero_fill () in
  let tbl = Frame.Table.create ~total:8 in
  List.iter
    (fun offset ->
      let p = Vm_page.create ~frame:(Option.get (Frame.Table.alloc tbl)) in
      Vm_object.connect obj p ~offset)
    [ 7; 2; 11; 0; 5 ];
  let seen = ref [] in
  Vm_object.iter_resident
    (fun ~offset page ->
      Alcotest.(check bool) "page at its offset" true
        (Vm_object.find_resident obj ~offset == Vm_page.some page);
      seen := offset :: !seen)
    obj;
  Alcotest.(check (list int)) "ascending offsets" [ 0; 2; 5; 7; 11 ] (List.rev !seen)

let test_object_find_out_of_range () =
  let obj = Vm_object.create ~size_pages:4 ~backing:Vm_object.Zero_fill () in
  Vm_object.connect obj (make_page ()) ~offset:0;
  Vm_object.connect obj (make_page ()) ~offset:3;
  Alcotest.(check bool) "offset -1" true
    (Option.is_none (Vm_object.find_resident obj ~offset:(-1)));
  Alcotest.(check bool) "offset size_pages" true
    (Option.is_none (Vm_object.find_resident obj ~offset:(Vm_object.size_pages obj)));
  Alcotest.(check bool) "offset 3" true
    (Option.is_some (Vm_object.find_resident obj ~offset:3))

(* A lookup returns the page's preallocated option: hits, misses and
   out-of-range offsets allocate nothing. *)
let test_object_find_allocates_nothing () =
  let obj = Vm_object.create ~size_pages:64 ~backing:Vm_object.Zero_fill () in
  let tbl = Frame.Table.create ~total:32 in
  for i = 0 to 31 do
    Vm_object.connect obj (Vm_page.create ~frame:(Option.get (Frame.Table.alloc tbl)))
      ~offset:(2 * i)
  done;
  let hits = ref 0 in
  let lookups () =
    for offset = -8 to 71 do
      match Vm_object.find_resident obj ~offset with Some _ -> incr hits | None -> ()
    done
  in
  lookups ();
  let overhead =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  hits := 0;
  let a = Gc.minor_words () in
  lookups ();
  let b = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words" overhead (b -. a);
  Alcotest.(check int) "hits" 32 !hits

(* After every connect and disconnect the count equals the offsets that
   find a page. *)
let test_object_resident_count_exact () =
  let obj = Vm_object.create ~size_pages:16 ~backing:Vm_object.Zero_fill () in
  let tbl = Frame.Table.create ~total:16 in
  let pages = Array.init 16 (fun _ -> Vm_page.create ~frame:(Option.get (Frame.Table.alloc tbl))) in
  let found () =
    List.length
      (List.filter
         (fun offset -> Option.is_some (Vm_object.find_resident obj ~offset))
         (List.init 16 Fun.id))
  in
  let check what =
    Alcotest.(check int) what (found ()) (Vm_object.resident_count obj)
  in
  List.iter
    (fun offset ->
      Vm_object.connect obj pages.(offset) ~offset;
      check (Printf.sprintf "connect %d" offset))
    [ 3; 0; 15; 8; 9; 1 ];
  Alcotest.(check int) "six resident" 6 (Vm_object.resident_count obj);
  List.iter
    (fun offset ->
      Vm_object.disconnect obj pages.(offset);
      check (Printf.sprintf "disconnect %d" offset))
    [ 8; 3; 1 ];
  Vm_object.connect obj pages.(8) ~offset:8;
  check "reconnect 8";
  Alcotest.check_raises "disconnect twice"
    (Invalid_argument "Vm_object.disconnect: page not bound to this object") (fun () ->
      Vm_object.disconnect obj pages.(3));
  check "after a refused disconnect";
  Alcotest.(check int) "four resident" 4 (Vm_object.resident_count obj)

(* ------------------------------------------------------------------ *)
(* Vm_map                                                              *)
(* ------------------------------------------------------------------ *)

let test_map_add_find () =
  let m = Vm_map.create () in
  let obj = Vm_object.create ~size_pages:100 ~backing:Vm_object.Zero_fill () in
  let r = Vm_map.add m ~start_vpn:50 ~npages:10 ~obj ~obj_offset:0 ~prot:Pmap.Read_write in
  Alcotest.(check bool) "found inside" true (Vm_map.find m ~vpn:55 = Some r);
  Alcotest.(check bool) "miss below" true (Vm_map.find m ~vpn:49 = None);
  Alcotest.(check bool) "miss at end" true (Vm_map.find m ~vpn:60 = None);
  Alcotest.(check int) "offset mapping" 5 (Vm_map.offset_of_vpn r 55)

let test_map_overlap_rejected () =
  let m = Vm_map.create () in
  let obj = Vm_object.create ~size_pages:100 ~backing:Vm_object.Zero_fill () in
  ignore (Vm_map.add m ~start_vpn:50 ~npages:10 ~obj ~obj_offset:0 ~prot:Pmap.Read_write);
  Alcotest.check_raises "overlap" (Invalid_argument "Vm_map.add: overlapping region")
    (fun () ->
      ignore (Vm_map.add m ~start_vpn:55 ~npages:10 ~obj ~obj_offset:0 ~prot:Pmap.Read_write))

let test_map_allocate_anywhere_fills_gaps () =
  let m = Vm_map.create () in
  let obj = Vm_object.create ~size_pages:1000 ~backing:Vm_object.Zero_fill () in
  let r1 = Vm_map.allocate_anywhere m ~npages:10 ~obj ~obj_offset:0 ~prot:Pmap.Read_write in
  let r2 = Vm_map.allocate_anywhere m ~npages:10 ~obj ~obj_offset:10 ~prot:Pmap.Read_write in
  Alcotest.(check bool) "disjoint" true
    (Vm_map.region_end_vpn r1 <= r2.Vm_map.start_vpn
    || Vm_map.region_end_vpn r2 <= r1.Vm_map.start_vpn);
  Vm_map.remove m r1;
  let r3 = Vm_map.allocate_anywhere m ~npages:5 ~obj ~obj_offset:20 ~prot:Pmap.Read_write in
  Alcotest.(check int) "reuses gap" r1.Vm_map.start_vpn r3.Vm_map.start_vpn

(* ------------------------------------------------------------------ *)
(* Kernel: fault path                                                  *)
(* ------------------------------------------------------------------ *)

let small_kernel ?(frames = 64) ?(hipec = false) () =
  let config = { Kernel.default_config with total_frames = frames; hipec_kernel = hipec } in
  Kernel.create ~config ()

let test_kernel_zero_fill_fault () =
  let k = small_kernel () in
  let task = Kernel.create_task k ~name:"t" () in
  let region = Kernel.vm_allocate k task ~npages:4 in
  Kernel.touch_region k task region ~write:false;
  Alcotest.(check int) "four faults" 4 (Task.faults task);
  Alcotest.(check int) "four zero fills" 4 (Task.zero_fills task);
  Alcotest.(check int) "no pageins" 0 (Task.pageins task);
  (* second touch: all hits, no new faults *)
  Kernel.touch_region k task region ~write:false;
  Alcotest.(check int) "still four" 4 (Task.faults task)

let test_kernel_file_fault_reads_disk () =
  let k = small_kernel () in
  let task = Kernel.create_task k () in
  let region = Kernel.vm_map_file k task ~npages:3 () in
  let before = Kernel.now k in
  Kernel.touch_region k task region ~write:false;
  Alcotest.(check int) "three pageins" 3 (Task.pageins task);
  let elapsed = T.to_ms_f (T.sub (Kernel.now k) before) in
  Alcotest.(check bool)
    (Printf.sprintf "disk time charged (%.2f ms)" elapsed)
    true (elapsed > 3.0)

let test_kernel_fault_cost_calibration () =
  (* Table 3 shape: a no-I/O fault must cost ~392 us on the plain kernel *)
  let k = small_kernel ~frames:128 () in
  let task = Kernel.create_task k () in
  let region = Kernel.vm_allocate k task ~npages:64 in
  let before = Kernel.now k in
  Kernel.touch_region k task region ~write:false;
  let per_fault = T.to_us_f (T.sub (Kernel.now k) before) /. 64. in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f us per fault" per_fault)
    true
    (per_fault > 380. && per_fault < 410.)

let test_kernel_segfault_kills () =
  let k = small_kernel () in
  let task = Kernel.create_task k () in
  (try
     Kernel.access k task ~va:0 ~write:false;
     Alcotest.fail "expected termination"
   with Kernel.Task_terminated (t, reason) ->
     Alcotest.(check int) "same task" (Task.id task) (Task.id t);
     Alcotest.(check bool) "segfault reason" true
       (String.length reason >= 18 && String.sub reason 0 18 = "segmentation fault"));
  Alcotest.(check bool) "dead" false (Task.alive task)

let test_kernel_readonly_write_kills () =
  let k = small_kernel () in
  let task = Kernel.create_task k () in
  let obj = Vm_object.create ~size_pages:2 ~backing:Vm_object.Zero_fill () in
  let region = Kernel.vm_map_object k task ~obj ~obj_offset:0 ~npages:2 ~prot:Pmap.Read_only in
  Kernel.touch_region k task region ~write:false;
  try
    Kernel.access_vpn k task ~vpn:region.Vm_map.start_vpn ~write:true;
    Alcotest.fail "expected termination"
  with Kernel.Task_terminated (_, reason) ->
    Alcotest.(check string) "reason" "protection violation" reason

let test_kernel_command_buffer_write_kills () =
  let k = small_kernel () in
  let task = Kernel.create_task k () in
  let region = Kernel.vm_allocate k task ~npages:1 in
  Kernel.touch_region k task region ~write:false;
  region.Vm_map.command_buffer <- true;
  Kernel.protect_region k task region ~prot:Pmap.Read_only;
  try
    Kernel.access_vpn k task ~vpn:region.Vm_map.start_vpn ~write:true;
    Alcotest.fail "expected termination"
  with Kernel.Task_terminated (_, reason) ->
    Alcotest.(check string) "reason" "attempt to modify a HiPEC command buffer" reason

let test_kernel_thrash_evicts () =
  (* more pages than frames: the daemon must evict and the task survive *)
  let k = small_kernel ~frames:32 () in
  let task = Kernel.create_task k () in
  let region = Kernel.vm_allocate k task ~npages:100 in
  Kernel.touch_region k task region ~write:true;
  Kernel.drain_io k;
  Alcotest.(check int) "all pages faulted" 100 (Task.faults task);
  Alcotest.(check bool) "daemon evicted" true (Pageout.evictions (Kernel.pageout k) > 0);
  Alcotest.(check bool) "frames conserved" true
    (Frame.Table.check_conservation (Kernel.frame_table k));
  (* dirty pages were laundered to swap; re-touching pages them back in *)
  let pageins_before = Task.pageins task in
  Kernel.touch_region k task region ~write:false;
  Kernel.drain_io k;
  Alcotest.(check bool) "paged back in from swap" true (Task.pageins task > pageins_before)

let test_kernel_clean_eviction_no_disk_write () =
  let k = small_kernel ~frames:16 () in
  let task = Kernel.create_task k () in
  let region = Kernel.vm_allocate k task ~npages:40 in
  Kernel.touch_region k task region ~write:false;
  Kernel.drain_io k;
  (* read-only zero-fill pages are clean: eviction must not write disk *)
  Alcotest.(check int) "no pageout writes" 0 (Pageout.pageout_writes (Kernel.pageout k))

let test_kernel_second_chance_reactivates () =
  let k = small_kernel ~frames:16 () in
  let task = Kernel.create_task k () in
  let region = Kernel.vm_allocate k task ~npages:40 in
  (* first pass cycles memory; re-referencing hot pages sets ref bits *)
  let hot = region.Vm_map.start_vpn in
  for vpn = region.Vm_map.start_vpn to Vm_map.region_end_vpn region - 1 do
    Kernel.access_vpn k task ~vpn ~write:false;
    Kernel.access_vpn k task ~vpn:hot ~write:false
  done;
  Kernel.drain_io k;
  Alcotest.(check bool) "reactivations happened" true
    (Pageout.reactivations (Kernel.pageout k) > 0)

let test_kernel_wire_region_survives_pressure () =
  let k = small_kernel ~frames:32 () in
  let task = Kernel.create_task k () in
  let pinned = Kernel.vm_allocate k task ~npages:4 in
  Kernel.wire_region k task pinned;
  let big = Kernel.vm_allocate k task ~npages:100 in
  Kernel.touch_region k task big ~write:true;
  Kernel.drain_io k;
  (* wired pages still mapped: touching them is free of faults *)
  let faults_before = Task.faults task in
  Kernel.touch_region k task pinned ~write:false;
  Alcotest.(check int) "wired pages never evicted" faults_before (Task.faults task)

let test_kernel_terminate_releases_frames () =
  let k = small_kernel ~frames:64 () in
  let task = Kernel.create_task k () in
  let region = Kernel.vm_allocate k task ~npages:20 in
  Kernel.touch_region k task region ~write:false;
  let free_before = Frame.Table.free_count (Kernel.frame_table k) in
  Kernel.terminate_task k task ~reason:"test";
  Kernel.drain_io k;
  Alcotest.(check int) "frames returned" (free_before + 20)
    (Frame.Table.free_count (Kernel.frame_table k));
  Alcotest.(check bool) "conserved" true
    (Frame.Table.check_conservation (Kernel.frame_table k))

let test_kernel_deallocate_releases_frames () =
  let k = small_kernel ~frames:64 () in
  let task = Kernel.create_task k () in
  let region = Kernel.vm_allocate k task ~npages:10 in
  Kernel.touch_region k task region ~write:false;
  let free_before = Frame.Table.free_count (Kernel.frame_table k) in
  Kernel.vm_deallocate k task region;
  Alcotest.(check int) "frames returned" (free_before + 10)
    (Frame.Table.free_count (Kernel.frame_table k));
  (* the address range can be reused *)
  let region2 = Kernel.vm_allocate k task ~npages:10 in
  Kernel.touch_region k task region2 ~write:false;
  Alcotest.(check bool) "alive" true (Task.alive task)

(* A region over the middle of a larger object frees the pages at its
   own offsets and no others. *)
let test_kernel_deallocate_middle_region () =
  let k = small_kernel ~frames:64 () in
  let task = Kernel.create_task k () in
  let whole = Kernel.vm_allocate k task ~npages:16 in
  let obj = whole.Vm_map.obj in
  Kernel.touch_region k task whole ~write:true;
  let middle =
    Kernel.vm_map_object k task ~obj ~obj_offset:6 ~npages:4 ~prot:Pmap.Read_write
  in
  Kernel.touch_region k task middle ~write:false;
  let tbl = Kernel.frame_table k in
  let free_before = Frame.Table.free_count tbl in
  Kernel.vm_deallocate k task middle;
  Alcotest.(check int) "four frames returned" (free_before + 4) (Frame.Table.free_count tbl);
  Alcotest.(check int) "twelve resident" 12 (Vm_object.resident_count obj);
  for offset = 0 to 15 do
    Alcotest.(check bool)
      (Printf.sprintf "offset %d" offset)
      (offset < 6 || offset >= 10)
      (Option.is_some (Vm_object.find_resident obj ~offset))
  done;
  (* the pages outside the middle keep their translations *)
  Alcotest.(check bool) "vpn of offset 0 mapped" true
    (Pmap.frame_at (Task.pmap task) ~vpn:whole.Vm_map.start_vpn <> Pmap.miss);
  Alcotest.(check bool) "vpn of offset 6 unmapped" true
    (Pmap.frame_at (Task.pmap task) ~vpn:(whole.Vm_map.start_vpn + 6) = Pmap.miss)

let test_kernel_manager_hook_grants () =
  let k = small_kernel ~hipec:true () in
  let task = Kernel.create_task k () in
  let obj = Vm_object.create ~size_pages:4 ~backing:Vm_object.Zero_fill () in
  let region = Kernel.vm_map_object k task ~obj ~obj_offset:0 ~npages:4 ~prot:Pmap.Read_write in
  let tbl = Kernel.frame_table k in
  let granted = ref 0 and resolved = ref 0 in
  Kernel.set_manager k obj
    {
      Kernel.on_fault =
        (fun ~task:_ ~obj:_ ~offset:_ ~write:_ ->
          incr granted;
          Kernel.Grant_page (Vm_page.create ~frame:(Option.get (Frame.Table.alloc tbl))));
      on_resolved = (fun ~task:_ ~page:_ -> incr resolved);
      on_task_terminated = (fun ~task:_ -> ());
    };
  Kernel.touch_region k task region ~write:false;
  Alcotest.(check int) "manager granted each fault" 4 !granted;
  Alcotest.(check int) "resolved callbacks" 4 !resolved;
  Alcotest.(check int) "hipec fault stat" 4 (Kernel.stats k).Kernel.hipec_faults

let test_kernel_manager_deny_kills () =
  let k = small_kernel ~hipec:true () in
  let task = Kernel.create_task k () in
  let obj = Vm_object.create ~size_pages:1 ~backing:Vm_object.Zero_fill () in
  let region = Kernel.vm_map_object k task ~obj ~obj_offset:0 ~npages:1 ~prot:Pmap.Read_write in
  Kernel.set_manager k obj
    {
      Kernel.on_fault = (fun ~task:_ ~obj:_ ~offset:_ ~write:_ -> Kernel.Deny "policy error");
      on_resolved = (fun ~task:_ ~page:_ -> ());
      on_task_terminated = (fun ~task:_ -> ());
    };
  try
    Kernel.touch_region k task region ~write:false;
    Alcotest.fail "expected termination"
  with Kernel.Task_terminated (_, reason) ->
    Alcotest.(check string) "reason" "policy error" reason

let test_kernel_task_cpu_accounting () =
  let k = small_kernel ~frames:64 () in
  let task = Kernel.create_task k () in
  let region = Kernel.vm_allocate k task ~npages:8 in
  let t0 = Kernel.now k in
  Kernel.touch_region k task region ~write:false;
  let elapsed = T.to_ns (T.sub (Kernel.now k) t0) in
  (* all the time of a single-task run is that task's CPU time *)
  Alcotest.(check int) "cpu time = elapsed" elapsed (T.to_ns (Task.cpu_time task))

(* A reference that kills its task still charges the task for the
   reference and every cost charged before the raise. *)
let test_kernel_task_cpu_accounting_on_raise () =
  let costs = Hipec_machine.Costs.default in
  let ns = T.to_ns in
  let expect_kill name k task ~vpn ~write ~reason ~charged =
    let cpu0 = Task.cpu_time task and t0 = Kernel.now k in
    (try
       Kernel.access_vpn k task ~vpn ~write;
       Alcotest.fail (name ^ ": expected termination")
     with Kernel.Task_terminated (_, r) -> Alcotest.(check string) (name ^ " reason") reason r);
    let elapsed = ns (T.sub (Kernel.now k) t0) in
    Alcotest.(check int) (name ^ ": charged before the raise") charged elapsed;
    Alcotest.(check int) (name ^ ": cpu time includes it") (ns cpu0 + elapsed)
      (ns (Task.cpu_time task))
  in
  (* segmentation fault: the reference itself *)
  let k = small_kernel () in
  let task = Kernel.create_task k () in
  expect_kill "segfault" k task ~vpn:0 ~write:false ~reason:"segmentation fault at vpn 0"
    ~charged:(ns costs.Hipec_machine.Costs.mem_access);
  (* write to a read-only mapping *)
  let k = small_kernel () in
  let task = Kernel.create_task k () in
  let obj = Vm_object.create ~size_pages:1 ~backing:Vm_object.Zero_fill () in
  let region = Kernel.vm_map_object k task ~obj ~obj_offset:0 ~npages:1 ~prot:Pmap.Read_only in
  Kernel.touch_region k task region ~write:false;
  expect_kill "protection violation" k task ~vpn:region.Vm_map.start_vpn ~write:true
    ~reason:"protection violation" ~charged:(ns costs.Hipec_machine.Costs.mem_access);
  (* write to a command buffer *)
  let k = small_kernel () in
  let task = Kernel.create_task k () in
  let region = Kernel.vm_allocate k task ~npages:1 in
  Kernel.touch_region k task region ~write:false;
  region.Vm_map.command_buffer <- true;
  Kernel.protect_region k task region ~prot:Pmap.Read_only;
  expect_kill "command buffer" k task ~vpn:region.Vm_map.start_vpn ~write:true
    ~reason:"attempt to modify a HiPEC command buffer"
    ~charged:(ns costs.Hipec_machine.Costs.mem_access);
  (* a manager denial: the fault trap and service charged before it *)
  let k = small_kernel ~hipec:true () in
  let task = Kernel.create_task k () in
  let obj = Vm_object.create ~size_pages:1 ~backing:Vm_object.Zero_fill () in
  let region = Kernel.vm_map_object k task ~obj ~obj_offset:0 ~npages:1 ~prot:Pmap.Read_write in
  Kernel.set_manager k obj
    {
      Kernel.on_fault = (fun ~task:_ ~obj:_ ~offset:_ ~write:_ -> Kernel.Deny "policy error");
      on_resolved = (fun ~task:_ ~page:_ -> ());
      on_task_terminated = (fun ~task:_ -> ());
    };
  expect_kill "manager deny" k task ~vpn:region.Vm_map.start_vpn ~write:false
    ~reason:"policy error"
    ~charged:
      Hipec_machine.Costs.(
        ns costs.mem_access + ns costs.fault_trap + ns costs.hipec_region_check
        + ns costs.fault_service)

(* Minor words allocated by [f ()], less the cost of reading the
   counter itself. *)
let minor_words_of f =
  let overhead =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  let a = Gc.minor_words () in
  f ();
  let b = Gc.minor_words () in
  b -. a -. overhead

(* Charging a cost with nothing due allocates nothing, also when the
   engine has a later event to look at. *)
let test_kernel_charge_allocates_nothing () =
  let k = small_kernel () in
  let fired = ref false in
  ignore (Hipec_sim.Engine.schedule (Kernel.engine k) ~after:(T.sec 1) (fun _ -> fired := true));
  let charges () =
    for _ = 1 to 10_000 do
      Kernel.charge k (T.ns 10)
    done
  in
  charges ();
  Alcotest.(check (float 0.)) "minor words" 0. (minor_words_of charges);
  Alcotest.(check bool) "nothing fired" false !fired

(* A resident hit allocates nothing beyond the pmap lookup itself. *)
let test_kernel_hit_allocates_no_more_than_pmap () =
  let k = small_kernel () in
  let task = Kernel.create_task k () in
  let region = Kernel.vm_allocate k task ~npages:1 in
  Kernel.touch_region k task region ~write:false;
  let vpn = region.Vm_map.start_vpn in
  let pmap = Task.pmap task in
  let hits = ref 0 in
  let lookups () =
    for _ = 1 to 10_000 do
      if Pmap.access pmap ~vpn ~write:false >= 0 then incr hits
    done
  in
  let accesses () =
    for _ = 1 to 10_000 do
      Kernel.access_vpn k task ~vpn ~write:false
    done
  in
  lookups ();
  accesses ();
  let pmap_words = minor_words_of lookups in
  let access_words = minor_words_of accesses in
  Alcotest.(check bool)
    (Printf.sprintf "access_vpn %.0f words <= Pmap.access %.0f words" access_words pmap_words)
    true
    (access_words <= pmap_words);
  Alcotest.(check int) "one fault" 1 (Task.faults task);
  Alcotest.(check int) "all hits" 20_000 !hits

(* A reference to a resident page allocates nothing at all: the pmap
   answers with an unboxed frame index, and the region lookup the miss
   and protection paths make is never reached. *)
let test_kernel_hit_allocates_nothing () =
  let k = small_kernel () in
  let task = Kernel.create_task k () in
  let region = Kernel.vm_allocate k task ~npages:2 in
  Kernel.touch_region k task region ~write:true;
  let reads () =
    for _ = 1 to 10_000 do
      Kernel.access_vpn k task ~vpn:region.Vm_map.start_vpn ~write:false
    done
  in
  let writes () =
    for _ = 1 to 10_000 do
      Kernel.access_vpn k task ~vpn:(region.Vm_map.start_vpn + 1) ~write:true
    done
  in
  reads ();
  writes ();
  Alcotest.(check (float 0.)) "read hits" 0. (minor_words_of reads);
  Alcotest.(check (float 0.)) "write hits" 0. (minor_words_of writes);
  Alcotest.(check int) "one fault per page" 2 (Task.faults task)

(* The registry is a trace stage taking only the categories it derives
   metrics from, so a hit builds no Access event for it. *)
let test_kernel_hit_under_metrics_allocates_nothing () =
  let reg = Hipec_metrics.Metrics.install () in
  Fun.protect ~finally:(fun () -> ignore (Hipec_metrics.Metrics.uninstall ())) @@ fun () ->
  let k = small_kernel () in
  let task = Kernel.create_task k () in
  let region = Kernel.vm_allocate k task ~npages:1 in
  Kernel.touch_region k task region ~write:false;
  let hits () =
    for _ = 1 to 10_000 do
      Kernel.access_vpn k task ~vpn:region.Vm_map.start_vpn ~write:false
    done
  in
  hits ();
  Alcotest.(check (float 0.)) "read hits" 0. (minor_words_of hits);
  Alcotest.(check (option int)) "the registry counted the fault" (Some 1)
    (Hipec_metrics.Metrics.Registry.counter_value reg "vm.fault.count")

let test_kernel_null_ops_cost () =
  let k = small_kernel () in
  let t0 = Kernel.now k in
  Kernel.null_syscall k;
  Alcotest.(check int) "syscall 19us" 19_000 (T.to_ns (T.sub (Kernel.now k) t0));
  let t1 = Kernel.now k in
  Kernel.null_ipc k;
  Alcotest.(check int) "ipc 292us" 292_000 (T.to_ns (T.sub (Kernel.now k) t1))

(* ------------------------------------------------------------------ *)
(* Copy-on-write (vm_copy)                                             *)
(* ------------------------------------------------------------------ *)

let test_cow_copy_is_lazy () =
  let k = small_kernel ~frames:128 () in
  let task = Kernel.create_task k () in
  let src = Kernel.vm_allocate k task ~npages:8 in
  Kernel.touch_region k task src ~write:true;
  let faults_before = Task.faults task in
  let copy = Kernel.vm_copy k task src in
  Alcotest.(check int) "no faults at copy time" faults_before (Task.faults task);
  Alcotest.(check int) "copy object starts empty" 0
    (Vm_object.resident_count copy.Vm_map.obj);
  (* touching the copy materializes pages from the source, in memory *)
  Kernel.touch_region k task copy ~write:false;
  Alcotest.(check int) "eight pages copied" 8 (Kernel.stats k).Kernel.cow_copies;
  Alcotest.(check int) "resident in the copy" 8 (Vm_object.resident_count copy.Vm_map.obj)

let test_cow_source_write_pushes_first () =
  let k = small_kernel ~frames:128 () in
  let task = Kernel.create_task k () in
  let src = Kernel.vm_allocate k task ~npages:4 in
  Kernel.touch_region k task src ~write:true;
  let copy = Kernel.vm_copy k task src in
  (* writing the source before the copy ever touches the page *)
  Kernel.access_vpn k task ~vpn:src.Vm_map.start_vpn ~write:true;
  Alcotest.(check int) "one push" 1 (Kernel.stats k).Kernel.cow_pushes;
  Alcotest.(check bool) "child holds its snapshot page" true
    (Vm_object.find_resident copy.Vm_map.obj ~offset:0 <> None);
  (* the copy's later touch is a soft fault, not another copy *)
  Kernel.access_vpn k task ~vpn:copy.Vm_map.start_vpn ~write:false;
  Alcotest.(check int) "no duplicate copy" 0 (Kernel.stats k).Kernel.cow_copies;
  (* repeated source writes to the same page push nothing more *)
  Kernel.access_vpn k task ~vpn:src.Vm_map.start_vpn ~write:true;
  Kernel.access_vpn k task ~vpn:src.Vm_map.start_vpn ~write:true;
  Alcotest.(check int) "still one push" 1 (Kernel.stats k).Kernel.cow_pushes

let test_cow_of_file_backed_reads_disk () =
  let k = small_kernel ~frames:128 () in
  let task = Kernel.create_task k () in
  let src = Kernel.vm_map_file k task ~npages:4 () in
  let copy = Kernel.vm_copy k task src in
  (* pages never resident in the source: the copy pages in from the
     source's file blocks *)
  let pageins0 = Task.pageins task in
  Kernel.touch_region k task copy ~write:false;
  Alcotest.(check int) "paged in from the source file" (pageins0 + 4) (Task.pageins task);
  Alcotest.(check int) "counted as copies" 4 (Kernel.stats k).Kernel.cow_copies

let test_cow_chain () =
  let k = small_kernel ~frames:128 () in
  let task = Kernel.create_task k () in
  let src = Kernel.vm_allocate k task ~npages:2 in
  Kernel.touch_region k task src ~write:true;
  let c1 = Kernel.vm_copy k task src in
  let c2 = Kernel.vm_copy k task c1 in
  (* c2 resolves through the (empty) c1 to the source *)
  Kernel.touch_region k task c2 ~write:false;
  Alcotest.(check int) "two pages materialized in c2" 2 (Kernel.stats k).Kernel.cow_copies;
  Alcotest.(check int) "c1 still lazy" 0 (Vm_object.resident_count c1.Vm_map.obj);
  (* a source write pushes to its direct child (c1) only: c2 already
     holds its own pages *)
  Kernel.access_vpn k task ~vpn:src.Vm_map.start_vpn ~write:true;
  Alcotest.(check int) "one push, into c1" 1 (Kernel.stats k).Kernel.cow_pushes;
  Alcotest.(check int) "c1 got the page" 1 (Vm_object.resident_count c1.Vm_map.obj)

let test_cow_deallocate_detaches () =
  let k = small_kernel ~frames:128 () in
  let task = Kernel.create_task k () in
  let src = Kernel.vm_allocate k task ~npages:4 in
  Kernel.touch_region k task src ~write:true;
  let copy = Kernel.vm_copy k task src in
  Kernel.vm_deallocate k task copy;
  Alcotest.(check bool) "detached" false (Vm_object.has_children src.Vm_map.obj);
  (* source writes no longer push anywhere *)
  Kernel.access_vpn k task ~vpn:src.Vm_map.start_vpn ~write:true;
  Alcotest.(check int) "no pushes" 0 (Kernel.stats k).Kernel.cow_pushes;
  Alcotest.(check bool) "frames conserved" true
    (Frame.Table.check_conservation (Kernel.frame_table k))

let test_cow_rejects_managed_objects () =
  let k = small_kernel ~frames:256 ~hipec:true () in
  let sys = Hipec_core.Api.init k in
  let task = Kernel.create_task k () in
  match
    Hipec_core.Api.vm_allocate_hipec sys task ~npages:8
      (Hipec_core.Api.default_spec ~policy:(Hipec_core.Policies.fifo ()) ~min_frames:8)
  with
  | Error e -> Alcotest.fail e
  | Ok (region, _) ->
      Alcotest.check_raises "rejected"
        (Invalid_argument "Kernel.vm_copy: cannot copy a HiPEC-managed object") (fun () ->
          ignore (Kernel.vm_copy k task region))

let test_cow_two_tasks_isolated () =
  (* the classic use: hand a consistent snapshot to another task *)
  let k = small_kernel ~frames:128 () in
  let parent = Kernel.create_task k ~name:"parent" () in
  let child = Kernel.create_task k ~name:"child" () in
  let src = Kernel.vm_allocate k parent ~npages:4 in
  Kernel.touch_region k parent src ~write:true;
  (* map a snapshot of the parent's object into the child *)
  let snapshot_obj = Vm_object.create_copy src.Vm_map.obj in
  Kernel.register_object k snapshot_obj;
  Vm_object.iter_resident
    (fun ~offset:_ page ->
      List.iter
        (fun (pmap, vpn) -> Pmap.protect pmap ~vpn ~prot:Pmap.Read_only)
        (Vm_page.mappings page))
    src.Vm_map.obj;
  let snap =
    Kernel.vm_map_object k child ~obj:snapshot_obj ~obj_offset:0 ~npages:4
      ~prot:Pmap.Read_write
  in
  (* parent keeps writing; child reads the snapshot *)
  Kernel.touch_region k parent src ~write:true;
  Kernel.touch_region k child snap ~write:false;
  Alcotest.(check int) "pushes preserved the snapshot" 4 (Kernel.stats k).Kernel.cow_pushes;
  Alcotest.(check bool) "both alive" true (Task.alive parent && Task.alive child);
  Alcotest.(check bool) "conserved" true
    (Frame.Table.check_conservation (Kernel.frame_table k))

(* ------------------------------------------------------------------ *)
(* Readahead                                                           *)
(* ------------------------------------------------------------------ *)

let test_readahead_cuts_sequential_hard_faults () =
  let run readahead =
    let config = { Kernel.default_config with total_frames = 512; readahead } in
    let k = Kernel.create ~config () in
    let task = Kernel.create_task k () in
    let region = Kernel.vm_map_file k task ~npages:128 () in
    let t0 = Kernel.now k in
    Kernel.touch_region k task region ~write:false;
    (Task.pageins task, (Kernel.stats k).Kernel.prefetched_pages,
     T.to_ms_f (T.sub (Kernel.now k) t0))
  in
  let pageins_off, prefetched_off, elapsed_off = run 0 in
  let pageins_on, prefetched_on, elapsed_on = run 7 in
  Alcotest.(check int) "no prefetch when off" 0 prefetched_off;
  Alcotest.(check int) "every page a hard fault when off" 128 pageins_off;
  (* with clustering, only every 8th page pays a full disk read *)
  Alcotest.(check int) "hard faults divided by cluster" 16 pageins_on;
  Alcotest.(check int) "the rest prefetched" 112 prefetched_on;
  Alcotest.(check bool)
    (Printf.sprintf "sequential read much faster (%.1f -> %.1f ms)" elapsed_off elapsed_on)
    true
    (elapsed_on < elapsed_off /. 3.)

let test_readahead_never_into_zero_fill () =
  let config = { Kernel.default_config with total_frames = 512; readahead = 7 } in
  let k = Kernel.create ~config () in
  let task = Kernel.create_task k () in
  let region = Kernel.vm_allocate k task ~npages:64 in
  Kernel.touch_region k task region ~write:true;
  (* anonymous first-touch pages have no backing data to prefetch *)
  Alcotest.(check int) "no prefetch" 0 (Kernel.stats k).Kernel.prefetched_pages

let test_readahead_respects_reserve () =
  (* prefetch must not push the free pool below the daemon reserve *)
  let config = { Kernel.default_config with total_frames = 32; readahead = 7 } in
  let k = Kernel.create ~config () in
  let task = Kernel.create_task k () in
  let region = Kernel.vm_map_file k task ~npages:100 () in
  Kernel.touch_region k task region ~write:false;
  Kernel.drain_io k;
  Alcotest.(check bool) "task survives" true (Task.alive task);
  Alcotest.(check bool) "frames conserved" true
    (Frame.Table.check_conservation (Kernel.frame_table k))

let test_readahead_skips_hipec_regions () =
  let config =
    { Kernel.default_config with total_frames = 512; readahead = 7; hipec_kernel = true }
  in
  let k = Kernel.create ~config () in
  let sys = Hipec_core.Api.init k in
  let task = Kernel.create_task k () in
  match
    Hipec_core.Api.vm_map_hipec sys task ~npages:64
      (Hipec_core.Api.default_spec ~policy:(Hipec_core.Policies.fifo ()) ~min_frames:64)
  with
  | Error e -> Alcotest.fail e
  | Ok (region, _) ->
      Kernel.touch_region k task region ~write:false;
      Alcotest.(check int) "hipec faults each page itself" 64 (Task.pageins task);
      Alcotest.(check int) "no prefetch into a managed region" 0
        (Kernel.stats k).Kernel.prefetched_pages

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_queue_ops_keep_invariants =
  QCheck.Test.make ~name:"page queue invariants under random ops" ~count:100
    QCheck.(list (int_bound 4))
    (fun ops ->
      let q = Page_queue.create "prop" in
      let tbl = Frame.Table.create ~total:64 in
      let off_queue = ref (List.map (fun f -> Vm_page.create ~frame:f) (Frame.Table.alloc_many tbl 8)) in
      List.iter
        (fun op ->
          match op with
          | 0 -> (
              match !off_queue with
              | p :: rest ->
                  Page_queue.enqueue_head q p;
                  off_queue := rest
              | [] -> ())
          | 1 -> (
              match !off_queue with
              | p :: rest ->
                  Page_queue.enqueue_tail q p;
                  off_queue := rest
              | [] -> ())
          | 2 -> (
              match Page_queue.dequeue_head q with
              | Some p -> off_queue := p :: !off_queue
              | None -> ())
          | 3 -> (
              match Page_queue.dequeue_tail q with
              | Some p -> off_queue := p :: !off_queue
              | None -> ())
          | _ -> (
              match Page_queue.peek_head q with
              | Some p ->
                  Page_queue.remove q p;
                  off_queue := p :: !off_queue
              | None -> ()))
        ops;
      Page_queue.check_invariants q
      && Page_queue.length q + List.length !off_queue = 8)

(* The recency index against the scan oracle, over random queue
   operations interleaved with touches.  Touch times never decrease and
   often tie; pages start fresh at time zero, and dequeued pages come
   back stale, keeping their old time.  The first query comes after a
   random prefix of operations, so the index is also built from a
   queue in an arbitrary state. *)
let prop_recency_matches_scan =
  QCheck.Test.make ~name:"recency index matches the first-extremum scan" ~count:300
    QCheck.(pair small_nat (list (pair (int_bound 6) small_nat)))
    (fun (first_query, ops) ->
      let q = Page_queue.create "recency" in
      let ps = Array.of_list (pages 12) in
      let clock = ref 0 in
      List.for_all
        (fun (step, (op, k)) ->
          let p = ps.(k mod Array.length ps) in
          let off = Vm_page.on_queue p = None in
          (match op with
          | 0 -> if off then Page_queue.enqueue_head q p
          | 1 -> if off then Page_queue.enqueue_tail q p
          | 2 -> ignore (Page_queue.dequeue_head q)
          | 3 -> ignore (Page_queue.dequeue_tail q)
          | 4 -> if Page_queue.mem q p then Page_queue.remove q p
          | _ ->
              (* 5 ties with the previous touch; 6 advances the clock *)
              if op = 6 then clock := !clock + 1 + (k mod 3);
              Vm_page.touch p (T.ns !clock));
          Page_queue.check_invariants q
          && (step < first_query
             || same_page (Page_queue.find_oldest q) (scan_oldest q)
                && same_page (Page_queue.find_newest q) (scan_newest q)
                && Page_queue.check_invariants q))
        (List.mapi (fun step op -> (step, op)) ops))

let prop_faults_bounded_by_accesses =
  QCheck.Test.make ~name:"faults <= accesses; frames conserved" ~count:40
    QCheck.(list_of_size Gen.(1 -- 60) (int_bound 49))
    (fun vpns ->
      let k = small_kernel ~frames:24 () in
      let task = Kernel.create_task k () in
      let region = Kernel.vm_allocate k task ~npages:50 in
      List.iter
        (fun i -> Kernel.access_vpn k task ~vpn:(region.Vm_map.start_vpn + i) ~write:(i mod 2 = 0))
        vpns;
      Kernel.drain_io k;
      Task.faults task <= List.length vpns
      && Frame.Table.check_conservation (Kernel.frame_table k))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "vm"
    [
      ( "vm_page",
        [
          Alcotest.test_case "bind/unbind" `Quick test_page_bind_unbind;
          Alcotest.test_case "mappings" `Quick test_page_mappings;
          Alcotest.test_case "dirty tracks frame" `Quick test_page_dirty_tracks_frame;
          Alcotest.test_case "create claims the frame" `Quick test_page_create_claims_frame;
          Alcotest.test_case "release checks the holder" `Quick
            test_page_release_checks_holder;
        ] );
      ( "page_queue",
        [
          Alcotest.test_case "fifo" `Quick test_queue_fifo;
          Alcotest.test_case "head/tail" `Quick test_queue_head_tail;
          Alcotest.test_case "exclusivity" `Quick test_queue_exclusivity;
          Alcotest.test_case "remove middle" `Quick test_queue_remove_middle;
          Alcotest.test_case "find min/max" `Quick test_queue_find_min_max;
          Alcotest.test_case "operations allocate nothing" `Quick
            test_queue_ops_allocate_nothing;
        ] );
      ( "vm_object",
        [
          Alcotest.test_case "connect/disconnect" `Quick test_object_connect_disconnect;
          Alcotest.test_case "connect validation" `Quick test_object_connect_validation;
          Alcotest.test_case "backing store" `Quick test_object_backing;
          Alcotest.test_case "iter_resident ascends" `Quick test_object_iter_ascending;
          Alcotest.test_case "find out of range" `Quick test_object_find_out_of_range;
          Alcotest.test_case "find_resident allocates nothing" `Quick
            test_object_find_allocates_nothing;
          Alcotest.test_case "resident_count exact" `Quick test_object_resident_count_exact;
        ] );
      ( "vm_map",
        [
          Alcotest.test_case "add/find" `Quick test_map_add_find;
          Alcotest.test_case "overlap rejected" `Quick test_map_overlap_rejected;
          Alcotest.test_case "allocate anywhere" `Quick test_map_allocate_anywhere_fills_gaps;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "zero fill fault" `Quick test_kernel_zero_fill_fault;
          Alcotest.test_case "file fault reads disk" `Quick test_kernel_file_fault_reads_disk;
          Alcotest.test_case "fault cost calibration" `Quick test_kernel_fault_cost_calibration;
          Alcotest.test_case "segfault kills" `Quick test_kernel_segfault_kills;
          Alcotest.test_case "readonly write kills" `Quick test_kernel_readonly_write_kills;
          Alcotest.test_case "command buffer write kills" `Quick
            test_kernel_command_buffer_write_kills;
          Alcotest.test_case "thrash evicts" `Quick test_kernel_thrash_evicts;
          Alcotest.test_case "clean eviction no write" `Quick
            test_kernel_clean_eviction_no_disk_write;
          Alcotest.test_case "second chance reactivates" `Quick
            test_kernel_second_chance_reactivates;
          Alcotest.test_case "wired survives pressure" `Quick
            test_kernel_wire_region_survives_pressure;
          Alcotest.test_case "terminate releases frames" `Quick
            test_kernel_terminate_releases_frames;
          Alcotest.test_case "deallocate releases frames" `Quick
            test_kernel_deallocate_releases_frames;
          Alcotest.test_case "deallocate frees only its offsets" `Quick
            test_kernel_deallocate_middle_region;
          Alcotest.test_case "manager hook grants" `Quick test_kernel_manager_hook_grants;
          Alcotest.test_case "manager deny kills" `Quick test_kernel_manager_deny_kills;
          Alcotest.test_case "null ops cost" `Quick test_kernel_null_ops_cost;
          Alcotest.test_case "task cpu accounting" `Quick test_kernel_task_cpu_accounting;
          Alcotest.test_case "task cpu accounting when a reference raises" `Quick
            test_kernel_task_cpu_accounting_on_raise;
          Alcotest.test_case "charge allocates nothing" `Quick
            test_kernel_charge_allocates_nothing;
          Alcotest.test_case "resident hit allocates no more than the pmap" `Quick
            test_kernel_hit_allocates_no_more_than_pmap;
          Alcotest.test_case "resident hit allocates nothing" `Quick
            test_kernel_hit_allocates_nothing;
          Alcotest.test_case "resident hit under a metrics registry allocates nothing"
            `Quick test_kernel_hit_under_metrics_allocates_nothing;
        ] );
      ( "cow",
        [
          Alcotest.test_case "copy is lazy" `Quick test_cow_copy_is_lazy;
          Alcotest.test_case "source write pushes first" `Quick
            test_cow_source_write_pushes_first;
          Alcotest.test_case "file-backed copy reads disk" `Quick
            test_cow_of_file_backed_reads_disk;
          Alcotest.test_case "chain" `Quick test_cow_chain;
          Alcotest.test_case "deallocate detaches" `Quick test_cow_deallocate_detaches;
          Alcotest.test_case "rejects managed objects" `Quick test_cow_rejects_managed_objects;
          Alcotest.test_case "two tasks isolated" `Quick test_cow_two_tasks_isolated;
        ] );
      ( "readahead",
        [
          Alcotest.test_case "cuts sequential hard faults" `Quick
            test_readahead_cuts_sequential_hard_faults;
          Alcotest.test_case "never into zero fill" `Quick test_readahead_never_into_zero_fill;
          Alcotest.test_case "respects reserve" `Quick test_readahead_respects_reserve;
          Alcotest.test_case "skips hipec regions" `Quick test_readahead_skips_hipec_regions;
        ] );
      ( "properties",
        qc
          [
            prop_queue_ops_keep_invariants;
            prop_recency_matches_scan;
            prop_faults_bounded_by_accesses;
          ] );
    ]
