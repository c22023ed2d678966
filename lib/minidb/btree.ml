open Hipec_vm
open Hipec_core

(* Node pages.  [keys] is sorted.  Internal nodes have
   [length children = length keys + 1]; children.(i) subtends keys
   < keys.(i).  Leaves carry [rows] parallel to [keys] and a next-leaf
   link. *)
type node = {
  page : int;  (* page number within the region = node id *)
  mutable leaf : bool;
  mutable keys : int list;
  mutable children : int list;  (* internal: node pages *)
  mutable rows : int list;  (* leaf: row numbers, parallel to keys *)
  mutable next_leaf : int;  (* leaf chain; -1 at the end *)
}

type t = {
  db : Db.t;
  name : string;
  order : int;
  region : Vm_map.region;
  container : Container.t;
  nodes : node option array;  (* indexed by page number *)
  mutable next_page : int;
  mutable free_pages : int list;  (* recycled node pages *)
  mutable live_nodes : int;
  mutable root : int;
  mutable entries : int;
}

let name t = t.name
let container t = t.container
let entry_count t = t.entries
let node_count t = t.live_nodes

(* every node visit references the node's page through the kernel *)
let touch t node ~write =
  Kernel.access_vpn (Db.kernel t.db) (Db.task t.db)
    ~vpn:(t.region.Vm_map.start_vpn + node.page) ~write

let node_of t page =
  match t.nodes.(page) with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Btree.%s: dangling node page %d" t.name page)

let alloc_node t ~leaf =
  let page =
    match t.free_pages with
    | p :: rest ->
        t.free_pages <- rest;
        p
    | [] ->
        if t.next_page >= Array.length t.nodes then
          failwith (Printf.sprintf "Btree.%s: out of node pages" t.name);
        let p = t.next_page in
        t.next_page <- t.next_page + 1;
        p
  in
  let node = { page; leaf; keys = []; children = []; rows = []; next_leaf = -1 } in
  t.nodes.(page) <- Some node;
  t.live_nodes <- t.live_nodes + 1;
  touch t node ~write:true;
  node

let free_node t node =
  t.nodes.(node.page) <- None;
  t.free_pages <- node.page :: t.free_pages;
  t.live_nodes <- t.live_nodes - 1

let create db ~name ?(order = 64) ?(capacity_pages = 4_096) ?(policy = Db.Lru)
    ?buffer_pages () =
  if order < 4 || order mod 2 <> 0 then invalid_arg "Btree.create: order must be even, >= 4";
  if capacity_pages <= 0 then invalid_arg "Btree.create: capacity_pages <= 0";
  let buffer_pages =
    match buffer_pages with Some b -> b | None -> max 16 (capacity_pages / 8)
  in
  let spec = Db.spec_of_policy policy ~min_frames:buffer_pages in
  match
    Api.vm_map_hipec (Db.hipec db) (Db.task db) ~name ~npages:capacity_pages spec
  with
  | Error e -> failwith (Printf.sprintf "Btree.create %s: %s" name e)
  | Ok (region, container) ->
      let t =
        {
          db;
          name;
          order;
          region;
          container;
          nodes = Array.make capacity_pages None;
          next_page = 0;
          free_pages = [];
          live_nodes = 0;
          root = 0;
          entries = 0;
        }
      in
      let root = alloc_node t ~leaf:true in
      t.root <- root.page;
      t

(* position of the child subtending [key] in an internal node *)
let child_index keys key =
  let rec go i = function
    | [] -> i
    | k :: rest -> if key < k then i else go (i + 1) rest
  in
  go 0 keys

let nth_child node i = List.nth node.children i

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

let rec find_leaf t node key =
  touch t node ~write:false;
  if node.leaf then node
  else find_leaf t (node_of t (nth_child node (child_index node.keys key))) key

let search t ~key =
  let leaf = find_leaf t (node_of t t.root) key in
  let rec look keys rows =
    match (keys, rows) with
    | k :: _, r :: _ when k = key -> Some r
    | _ :: ks, _ :: rs -> look ks rs
    | _ -> None
  in
  look leaf.keys leaf.rows

let range t ~lo ~hi =
  if hi < lo then []
  else begin
    let leaf = ref (Some (find_leaf t (node_of t t.root) lo)) in
    let out = ref [] in
    let continue = ref true in
    while !continue do
      match !leaf with
      | None -> continue := false
      | Some node ->
          touch t node ~write:false;
          List.iter2
            (fun k r -> if k >= lo && k <= hi then out := (k, r) :: !out)
            node.keys node.rows;
          (match node.keys with
          | [] -> ()
          | _ -> if List.nth node.keys (List.length node.keys - 1) > hi then continue := false);
          if !continue then
            leaf := if node.next_leaf = -1 then None else Some (node_of t node.next_leaf)
    done;
    List.rev !out
  end

(* ------------------------------------------------------------------ *)
(* Insert                                                              *)
(* ------------------------------------------------------------------ *)

(* insert (key, value) into a sorted assoc-ish pair of lists *)
let insert_sorted keys rows key row =
  let rec go ks rs =
    match (ks, rs) with
    | [], [] -> ([ key ], [ row ], true)
    | k :: ks', r :: rs' ->
        if key = k then (k :: ks', row :: rs', false)
        else if key < k then (key :: k :: ks', row :: r :: rs', true)
        else
          let ks'', rs'', fresh = go ks' rs' in
          (k :: ks'', r :: rs'', fresh)
    | _ -> assert false
  in
  go keys rows

let take n list =
  let rec go n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (n - 1) (x :: acc) rest
  in
  go n [] list

(* Split an overfull node; returns (separator key, new right sibling). *)
let split t node =
  let n = List.length node.keys in
  let mid = n / 2 in
  let right = alloc_node t ~leaf:node.leaf in
  if node.leaf then begin
    let left_keys, right_keys = take mid node.keys in
    let left_rows, right_rows = take mid node.rows in
    node.keys <- left_keys;
    node.rows <- left_rows;
    right.keys <- right_keys;
    right.rows <- right_rows;
    right.next_leaf <- node.next_leaf;
    node.next_leaf <- right.page;
    (List.hd right_keys, right)
  end
  else begin
    (* the separator moves up and out of the node *)
    let left_keys, rest = take mid node.keys in
    let separator, right_keys =
      match rest with s :: rk -> (s, rk) | [] -> assert false
    in
    let left_children, right_children = take (mid + 1) node.children in
    node.keys <- left_keys;
    node.children <- left_children;
    right.keys <- right_keys;
    right.children <- right_children;
    (separator, right)
  end

(* returns Some (separator, right-page) when the child split *)
let rec insert_into t node key row =
  touch t node ~write:true;
  if node.leaf then begin
    let keys, rows, fresh = insert_sorted node.keys node.rows key row in
    node.keys <- keys;
    node.rows <- rows;
    if fresh then t.entries <- t.entries + 1;
    if List.length node.keys > t.order then begin
      let separator, right = split t node in
      Some (separator, right.page)
    end
    else None
  end
  else begin
    let i = child_index node.keys key in
    let child = node_of t (nth_child node i) in
    match insert_into t child key row with
    | None -> None
    | Some (separator, right_page) ->
        let before_k, after_k = take i node.keys in
        node.keys <- before_k @ (separator :: after_k);
        let before_c, after_c = take (i + 1) node.children in
        node.children <- before_c @ (right_page :: after_c);
        if List.length node.keys > t.order then begin
          let separator, right = split t node in
          Some (separator, right.page)
        end
        else None
  end

let insert t ~key ~row =
  match insert_into t (node_of t t.root) key row with
  | None -> ()
  | Some (separator, right_page) ->
      let new_root = alloc_node t ~leaf:false in
      new_root.keys <- [ separator ];
      new_root.children <- [ t.root; right_page ];
      t.root <- new_root.page

let height t =
  let rec go node acc =
    if node.leaf then acc else go (node_of t (List.hd node.children)) (acc + 1)
  in
  go (node_of t t.root) 1

(* ------------------------------------------------------------------ *)
(* Delete                                                              *)
(* ------------------------------------------------------------------ *)

let min_leaf_keys t = t.order / 2
let min_internal_keys t = (t.order / 2) - 1

let underfull t node =
  if node.leaf then List.length node.keys < min_leaf_keys t
  else List.length node.keys < min_internal_keys t

let can_lend t node =
  if node.leaf then List.length node.keys > min_leaf_keys t
  else List.length node.keys > min_internal_keys t

let set_nth list i v = List.mapi (fun j x -> if j = i then v else x) list

let drop_nth list i = List.filteri (fun j _ -> j <> i) list

let last list = List.nth list (List.length list - 1)

let drop_last list = drop_nth list (List.length list - 1)

(* Fix the underfull [child] at position [i] of [parent]: borrow from a
   richer sibling or merge with one. *)
let rebalance t parent i =
  let child = node_of t (List.nth parent.children i) in
  let left = if i > 0 then Some (node_of t (List.nth parent.children (i - 1))) else None in
  let right =
    if i + 1 < List.length parent.children then
      Some (node_of t (List.nth parent.children (i + 1)))
    else None
  in
  touch t parent ~write:true;
  touch t child ~write:true;
  match (left, right) with
  | Some l, _ when can_lend t l ->
      touch t l ~write:true;
      if child.leaf then begin
        let k = last l.keys and r = last l.rows in
        l.keys <- drop_last l.keys;
        l.rows <- drop_last l.rows;
        child.keys <- k :: child.keys;
        child.rows <- r :: child.rows;
        parent.keys <- set_nth parent.keys (i - 1) k
      end
      else begin
        (* rotate right through the separator *)
        let separator = List.nth parent.keys (i - 1) in
        child.keys <- separator :: child.keys;
        child.children <- last l.children :: child.children;
        parent.keys <- set_nth parent.keys (i - 1) (last l.keys);
        l.keys <- drop_last l.keys;
        l.children <- drop_last l.children
      end
  | _, Some r when can_lend t r ->
      touch t r ~write:true;
      if child.leaf then begin
        (match (r.keys, r.rows) with
        | k :: ks, v :: vs ->
            child.keys <- child.keys @ [ k ];
            child.rows <- child.rows @ [ v ];
            r.keys <- ks;
            r.rows <- vs;
            parent.keys <- set_nth parent.keys i (List.hd r.keys)
        | _ -> assert false)
      end
      else begin
        let separator = List.nth parent.keys i in
        child.keys <- child.keys @ [ separator ];
        child.children <- child.children @ [ List.hd r.children ];
        parent.keys <- set_nth parent.keys i (List.hd r.keys);
        r.keys <- List.tl r.keys;
        r.children <- List.tl r.children
      end
  | Some l, _ ->
      (* merge child into the left sibling *)
      touch t l ~write:true;
      if child.leaf then begin
        l.keys <- l.keys @ child.keys;
        l.rows <- l.rows @ child.rows;
        l.next_leaf <- child.next_leaf
      end
      else begin
        let separator = List.nth parent.keys (i - 1) in
        l.keys <- l.keys @ (separator :: child.keys);
        l.children <- l.children @ child.children
      end;
      parent.keys <- drop_nth parent.keys (i - 1);
      parent.children <- drop_nth parent.children i;
      free_node t child
  | None, Some r ->
      (* merge the right sibling into child *)
      touch t r ~write:true;
      if child.leaf then begin
        child.keys <- child.keys @ r.keys;
        child.rows <- child.rows @ r.rows;
        child.next_leaf <- r.next_leaf
      end
      else begin
        let separator = List.nth parent.keys i in
        child.keys <- child.keys @ (separator :: r.keys);
        child.children <- child.children @ r.children
      end;
      parent.keys <- drop_nth parent.keys i;
      parent.children <- drop_nth parent.children (i + 1);
      free_node t r
  | None, None -> ()
(* only the root has no siblings; the caller shrinks it *)

let rec delete_from t node key =
  touch t node ~write:true;
  if node.leaf then begin
    let rec remove ks rs =
      match (ks, rs) with
      | [], [] -> None
      | k :: ks', _ :: rs' when k = key -> Some (ks', rs')
      | k :: ks', r :: rs' ->
          Option.map (fun (ks'', rs'') -> (k :: ks'', r :: rs'')) (remove ks' rs')
      | _ -> assert false
    in
    match remove node.keys node.rows with
    | None -> false
    | Some (ks, rs) ->
        node.keys <- ks;
        node.rows <- rs;
        t.entries <- t.entries - 1;
        true
  end
  else begin
    let i = child_index node.keys key in
    let child = node_of t (nth_child node i) in
    let removed = delete_from t child key in
    if removed && underfull t child then rebalance t node i;
    removed
  end

let delete t ~key =
  let root = node_of t t.root in
  let removed = delete_from t root key in
  (* the root shrinks away when it is an internal node with one child *)
  (match t.nodes.(t.root) with
  | Some r when (not r.leaf) && List.length r.children = 1 ->
      let only = List.hd r.children in
      free_node t r;
      t.root <- only
  | Some _ | None -> ());
  removed

(* ------------------------------------------------------------------ *)
(* Invariants                                                          *)
(* ------------------------------------------------------------------ *)

let rec sorted = function
  | a :: (b :: _ as rest) -> a < b && sorted rest
  | [] | [ _ ] -> true

let check_invariants t =
  let ok = ref true in
  let root = node_of t t.root in
  let leaf_depths = ref [] in
  let rec walk node depth =
    if not (sorted node.keys) then ok := false;
    if node.leaf then begin
      leaf_depths := depth :: !leaf_depths;
      if List.length node.keys <> List.length node.rows then ok := false;
      (* only the root may underflow *)
      if node.page <> t.root && List.length node.keys < t.order / 2 then ok := false
    end
    else begin
      if List.length node.children <> List.length node.keys + 1 then ok := false;
      if node.page <> t.root && List.length node.keys < (t.order / 2) - 1 then ok := false;
      List.iter (fun c -> walk (node_of t c) (depth + 1)) node.children
    end
  in
  walk root 0;
  (match !leaf_depths with
  | [] -> ()
  | d :: rest -> if not (List.for_all (( = ) d) rest) then ok := false);
  (* leaf chain yields all entries in sorted order *)
  let rec leftmost node = if node.leaf then node else leftmost (node_of t (List.hd node.children)) in
  let rec chain node acc =
    let acc = acc @ node.keys in
    if node.next_leaf = -1 then acc else chain (node_of t node.next_leaf) acc
  in
  let all = chain (leftmost root) [] in
  if List.length all <> t.entries then ok := false;
  if not (sorted all) then ok := false;
  !ok
