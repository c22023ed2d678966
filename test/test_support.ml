(* Shared helpers for the test executables (every module in test/ links
   into each test binary, so this needs no dune wiring).

   The two nearest-rank percentile helpers below pin the *rank
   conventions* the production code promises: [percentile] mirrors
   [Storm.percentile] (rounded index, p in 0..1) and [percentile_exact]
   mirrors [Stats.Summary.percentile] (1-based ceil rank, p in 0..100).
   All three production entry points and these references now route
   through the one shared core, [Stats.Percentile.nearest_rank] —
   only the rank arithmetic lives here, spelled out independently so a
   broken convention in the wrappers can't hide.  The references sort
   with polymorphic [compare], not the typed comparisons production
   passes, so they also check that those order the same way. *)

(* Nearest-rank percentile over int samples, [p] in 0..1 — the
   reference for [Storm.percentile]: sorted.(round (p * (n-1))),
   0 on empty input. *)
let percentile (samples : int array) p =
  match
    Hipec_sim.Stats.Percentile.nearest_rank ~compare samples ~rank_of:(fun n ->
        int_of_float ((p *. float_of_int (n - 1)) +. 0.5))
  with
  | Some v -> v
  | None -> 0

(* Nearest-rank percentile over float samples, [p] in 0..100 — the
   reference for [Stats.Summary.percentile]: rank = ceil(p/100 * n)
   clamped to 1..n, 0 on empty input. *)
let percentile_exact (samples : float array) p =
  match
    Hipec_sim.Stats.Percentile.nearest_rank ~compare samples ~rank_of:(fun n ->
        int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)
  with
  | Some v -> v
  | None -> 0.
