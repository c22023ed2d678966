module Counter = struct
  type t = { name : string; mutable value : int }

  let create name = { name; value = 0 }
  let name t = t.name
  let incr t = t.value <- t.value + 1
  let add t n = t.value <- t.value + n
  let value t = t.value
  let reset t = t.value <- 0
end

module Percentile = struct
  (* The one shared nearest-rank core.  Every percentile in the tree —
     [Summary.percentile], [Storm.percentile], the test references —
     goes through here: sort a copy with the caller's comparison, clamp
     the caller's rank convention into [0, n-1], index.  The two public
     entry points only differ in how they turn [p] into a rank, and sort
     with a typed comparison ([Float.compare], [Int.compare]) that
     orders exactly as polymorphic [compare] does, nan included, without
     a runtime call per comparison. *)
  let nearest_rank ~compare samples ~rank_of =
    match Array.length samples with
    | 0 -> None
    | n ->
        let s = Array.copy samples in
        Array.sort compare s;
        Some s.(Stdlib.max 0 (Stdlib.min (n - 1) (rank_of n)))

  (* [p] in [0, 100]: rank = ceil(p/100 * n), 1-based, clamped. *)
  let exact samples p =
    match
      nearest_rank ~compare:Float.compare samples ~rank_of:(fun n ->
          int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)
    with
    | Some v -> v
    | None -> 0.

  (* [p] in [0, 1] over int samples: index = round(p * (n-1)). *)
  let of_ints samples p =
    match
      nearest_rank ~compare:Int.compare samples ~rank_of:(fun n ->
          int_of_float ((p *. float_of_int (n - 1)) +. 0.5))
    with
    | Some v -> v
    | None -> 0
end

module Summary = struct
  type t = {
    name : string;
    mutable count : int;
    mutable total : float;
    mutable sum_sq : float;
    mutable min : float;
    mutable max : float;
  }

  let create name =
    { name; count = 0; total = 0.; sum_sq = 0.; min = infinity; max = neg_infinity }

  let name t = t.name

  let add t x =
    t.count <- t.count + 1;
    t.total <- t.total +. x;
    t.sum_sq <- t.sum_sq +. (x *. x);
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.count
  let total t = t.total
  let mean t = if t.count = 0 then 0. else t.total /. float_of_int t.count
  let min t = t.min
  let max t = t.max

  let stddev t =
    if t.count < 2 then 0.
    else
      let n = float_of_int t.count in
      let m = t.total /. n in
      let var = (t.sum_sq /. n) -. (m *. m) in
      sqrt (Float.max 0. var)

  let reset t =
    t.count <- 0;
    t.total <- 0.;
    t.sum_sq <- 0.;
    t.min <- infinity;
    t.max <- neg_infinity

  (* Exact nearest-rank percentile over a sample array: the oracle the
     bucketed Histogram estimate is tested against.  Shares the sorted
     nearest-rank core in [Percentile]. *)
  let percentile = Percentile.exact

  let pp fmt t =
    Format.fprintf fmt "%s: n=%d mean=%.3f min=%.3f max=%.3f sd=%.3f" t.name t.count
      (mean t)
      (if t.count = 0 then 0. else t.min)
      (if t.count = 0 then 0. else t.max)
      (stddev t)
end

module Histogram = struct
  (* One accumulator, two binnings.  [Fixed] keeps the historical
     uniform-width buckets over [lo, hi) — driver.ml's 0-16 ms fault
     profile depends on its exact layout and pp output — while [Log]
     buckets by power of two: bucket 0 holds [0, 1), bucket i >= 1 holds
     [2^(i-1), 2^i).  Samples at or above the top edge land in the
     overflow bucket in both binnings; negatives underflow. *)
  type binning = Fixed of { lo : float; hi : float } | Log

  type t = {
    name : string;
    binning : binning;
    buckets : int array;
    mutable underflow : int;
    mutable overflow : int;
    mutable count : int;
    mutable sum : float;
    mutable vmin : float;
    mutable vmax : float;
  }

  let make name binning nbuckets =
    {
      name;
      binning;
      buckets = Array.make nbuckets 0;
      underflow = 0;
      overflow = 0;
      count = 0;
      sum = 0.;
      vmin = infinity;
      vmax = neg_infinity;
    }

  let create ?(buckets = 16) ~lo ~hi name =
    if hi <= lo then invalid_arg "Histogram.create: hi <= lo";
    if buckets <= 0 then invalid_arg "Histogram.create: buckets <= 0";
    make name (Fixed { lo; hi }) buckets

  let create_log ?(buckets = 48) name =
    if buckets < 2 then invalid_arg "Histogram.create_log: buckets < 2";
    make name Log buckets

  let bucket_bounds t i =
    match t.binning with
    | Fixed { lo; hi } ->
        let w = (hi -. lo) /. float_of_int (Array.length t.buckets) in
        (lo +. (w *. float_of_int i), lo +. (w *. float_of_int (i + 1)))
    | Log ->
        if i = 0 then (0., 1.)
        else (ldexp 1. (i - 1), ldexp 1. i)

  (* Index of the bucket [x] belongs in, [-1] for underflow,
     [Array.length buckets] for overflow. *)
  let bucket_index t x =
    let n = Array.length t.buckets in
    match t.binning with
    | Fixed { lo; hi } ->
        if x < lo then -1
        else if x >= hi then n
        else
          let idx = int_of_float ((x -. lo) /. (hi -. lo) *. float_of_int n) in
          Stdlib.min idx (n - 1)
    | Log ->
        if x < 0. then -1
        else if x < 1. then 0
        else begin
          (* bucket for [2^(i-1), 2^i) is the bit width of floor(x) *)
          let rec width acc v = if v = 0 then acc else width (acc + 1) (v lsr 1) in
          let i = width 0 (int_of_float x) in
          if i >= n then n else i
        end

  let add t x =
    t.count <- t.count + 1;
    t.sum <- t.sum +. x;
    if x < t.vmin then t.vmin <- x;
    if x > t.vmax then t.vmax <- x;
    let i = bucket_index t x in
    if i < 0 then t.underflow <- t.underflow + 1
    else if i >= Array.length t.buckets then t.overflow <- t.overflow + 1
    else t.buckets.(i) <- t.buckets.(i) + 1

  let count t = t.count
  let bucket_counts t = Array.copy t.buckets
  let underflow t = t.underflow
  let overflow t = t.overflow
  let sum t = t.sum
  let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count
  let min t = if t.count = 0 then 0. else t.vmin
  let max t = if t.count = 0 then 0. else t.vmax

  (* Nearest-rank estimate from the buckets: walk the cumulative counts
     to the bucket holding the ranked sample and report its upper edge,
     clamped to the exact [vmin, vmax] so p0/p100 are exact and the
     estimate never leaves the observed range. *)
  let percentile t p =
    if t.count = 0 then 0.
    else begin
      let rank = int_of_float (ceil (p /. 100. *. float_of_int t.count)) in
      let rank = Stdlib.max 1 (Stdlib.min t.count rank) in
      if rank <= t.underflow then t.vmin
      else begin
        let n = Array.length t.buckets in
        let rec walk i cum =
          if i >= n then t.vmax
          else
            let cum = cum + t.buckets.(i) in
            if rank <= cum then
              let _, hi = bucket_bounds t i in
              Float.max t.vmin (Float.min hi t.vmax)
            else walk (i + 1) cum
        in
        walk 0 t.underflow
      end
    end

  let pp fmt t =
    Format.fprintf fmt "%s: n=%d [" t.name t.count;
    Array.iteri
      (fun i c -> if i > 0 then Format.fprintf fmt ";%d" c else Format.fprintf fmt "%d" c)
      t.buckets;
    Format.fprintf fmt "] under=%d over=%d" t.underflow t.overflow
end
