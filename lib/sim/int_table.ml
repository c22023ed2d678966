(* Keys and values in two parallel arrays whose length is a power of
   two.  A free slot holds [min_int] and [None]; an occupied one its key
   and the [Some] built when the key was bound. *)
type 'a t = {
  mutable keys : int array;
  mutable vals : 'a option array;
  mutable shift : int;  (* [Sys.int_size] less log2 of the capacity *)
  mutable count : int;
  initial : int;  (* the capacity at [create] and after [reset] *)
}

let free = min_int

(* 2^63 over the golden ratio, made odd: the top bits of [k * golden]
   scatter sequential and strided keys alike (Fibonacci hashing). *)
let golden = 0x4F1BBCDCBFA53E0B

let rec log2 c = if c <= 1 then 0 else 1 + log2 (c / 2)

let alloc t capacity =
  t.keys <- Array.make capacity free;
  t.vals <- Array.make capacity None;
  t.shift <- Sys.int_size - log2 capacity

let rec capacity_for n c = if c >= 2 * n then c else capacity_for n (2 * c)

let create n =
  let initial = capacity_for n 8 in
  let t = { keys = [||]; vals = [||]; shift = 0; count = 0; initial } in
  alloc t initial;
  t

let length t = t.count
let home t k = (k * golden) lsr t.shift

(* The slot holding [k], or the free slot that ends its probe run. *)
let rec probe keys k i =
  let x = keys.(i) in
  if x = k || x = free then i else probe keys k ((i + 1) land (Array.length keys - 1))

let slot t k = probe t.keys k (home t k)
let find_opt t k = t.vals.(slot t k)
let mem t k = t.keys.(slot t k) <> free
let find t k = match find_opt t k with Some v -> v | None -> raise Not_found

let grow t =
  let keys = t.keys and vals = t.vals in
  alloc t (2 * Array.length keys);
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k <> free then begin
      let j = slot t k in
      t.keys.(j) <- k;
      t.vals.(j) <- vals.(i)
    end
  done

let replace t k v =
  if k = free then invalid_arg "Int_table.replace: min_int marks a free slot";
  let i = slot t k in
  t.vals.(i) <- Some v;
  if t.keys.(i) = free then begin
    t.keys.(i) <- k;
    t.count <- t.count + 1;
    if 2 * t.count > Array.length t.keys then grow t
  end

(* Backward-shift deletion: [hole] is free, [j] walks the rest of its
   probe run, and an entry moves back into the hole when its own probe
   run passes through it.  The run's end frees the last hole. *)
let rec close t hole j =
  let mask = Array.length t.keys - 1 in
  let j = (j + 1) land mask in
  let k = t.keys.(j) in
  if k = free then begin
    t.keys.(hole) <- free;
    t.vals.(hole) <- None
  end
  else if (j - home t k) land mask >= (j - hole) land mask then begin
    t.keys.(hole) <- k;
    t.vals.(hole) <- t.vals.(j);
    close t j j
  end
  else close t hole j

let remove t k =
  let i = slot t k in
  if t.keys.(i) <> free then begin
    t.count <- t.count - 1;
    close t i i
  end

let iter f t =
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    match vals.(i) with Some v -> f keys.(i) v | None -> ()
  done

let reset t =
  alloc t t.initial;
  t.count <- 0
