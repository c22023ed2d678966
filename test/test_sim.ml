(* Tests for the discrete-event simulation substrate (lib/sim). *)

module T = Hipec_sim.Sim_time
module Rng = Hipec_sim.Rng
module Eq = Hipec_sim.Event_queue
module Engine = Hipec_sim.Engine
module Stats = Hipec_sim.Stats
module Int_table = Hipec_sim.Int_table

(* ------------------------------------------------------------------ *)
(* Sim_time                                                            *)
(* ------------------------------------------------------------------ *)

let test_time_constructors () =
  Alcotest.(check int) "us" 1_000 (T.to_ns (T.us 1));
  Alcotest.(check int) "ms" 1_000_000 (T.to_ns (T.ms 1));
  Alcotest.(check int) "sec" 1_000_000_000 (T.to_ns (T.sec 1));
  Alcotest.(check int) "of_us_f rounds" 1_500 (T.to_ns (T.of_us_f 1.5));
  Alcotest.(check int) "of_ms_f" 2_500_000 (T.to_ns (T.of_ms_f 2.5));
  Alcotest.(check int) "of_sec_f" 500_000_000 (T.to_ns (T.of_sec_f 0.5))

let test_time_arithmetic () =
  let a = T.us 5 and b = T.us 3 in
  Alcotest.(check int) "add" 8_000 (T.to_ns (T.add a b));
  Alcotest.(check int) "sub" 2_000 (T.to_ns (T.sub a b));
  Alcotest.(check int) "diff sym" (T.to_ns (T.diff a b)) (T.to_ns (T.diff b a));
  Alcotest.(check int) "mul" 15_000 (T.to_ns (T.mul a 3));
  Alcotest.(check int) "div" 2_500 (T.to_ns (T.div a 2));
  Alcotest.(check bool) "lt" true T.(b < a);
  Alcotest.(check bool) "ge" true T.(a >= b)

let test_time_negative_rejected () =
  Alcotest.check_raises "ns -1" (Invalid_argument "Sim_time.ns: negative") (fun () ->
      ignore (T.ns (-1)));
  Alcotest.check_raises "sub underflow" (Invalid_argument "Sim_time.sub: negative result")
    (fun () -> ignore (T.sub (T.us 1) (T.us 2)))

let test_time_conversions () =
  Alcotest.(check (float 1e-9)) "to_ms" 1.5 (T.to_ms_f (T.of_ms_f 1.5));
  Alcotest.(check (float 1e-9)) "to_min" 2.0 (T.to_min_f (T.sec 120))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_copy_independent () =
  let a = Rng.create ~seed:7 in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_bounds () =
  let r = Rng.create ~seed:1 in
  for _ = 1 to 1_000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 17);
    let w = Rng.int_in r ~lo:5 ~hi:9 in
    Alcotest.(check bool) "int_in range" true (w >= 5 && w <= 9);
    let f = Rng.float r 3.0 in
    Alcotest.(check bool) "float range" true (f >= 0. && f < 3.0)
  done

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:11 in
  let n = 20_000 in
  let total = ref 0. in
  for _ = 1 to n do
    let x = Rng.exponential r ~mean:4.0 in
    Alcotest.(check bool) "non-negative" true (x >= 0.);
    total := !total +. x
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean near 4" true (mean > 3.7 && mean < 4.3)

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:3 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* The splitmix64 stream itself, pinned by literal values: a change to
   the state representation or the mixing must reproduce every draw. *)
let take8 f = List.init 8 (fun _ -> f ())

let pinned_streams =
  [
    ( 1,
      [ 0xbfef8030ddc2d772L; 0x5f552ce482f2aa47L; 0x70335fc3daf3d8a7L; 0xf440fe3b62c79d2cL;
        0x33ba2f29e7c168bbL; 0x98843f48a94b7866L; 0x74ad4c24d41a25f8L; 0x2f9a1f13648eab6eL ],
      [ 162; 791; 623; 292; 515; 782; 240; 294 ],
      [ 0x1.7fdf0061bb85ap-1; 0x1.7d54b3920bcaap-2; 0x1.c0cd7f0f6bcf6p-2; 0x1.e881fc76c58f3p-1;
        0x1.9dd1794f3e0b4p-3; 0x1.31087e915296fp-1; 0x1.d2b5309350688p-2; 0x1.7cd0f89b24754p-3 ] );
    ( 42,
      [ 0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L; 0xc4b6b24ef01890eL;
        0xfb16a06e52ec10a7L; 0x3c30fc5fd50692c3L; 0x4782c4b4c4fdf7c9L; 0x272404a0a3926552L ],
      [ 473; 191; 141; 366; 847; 115; 585; 986 ],
      [ 0x1.31367e26140c7p-1; 0x1.486da5f92b86cp-3; 0x1.54c85f31d00d8p-3; 0x1.896d649de031p-5;
        0x1.f62d40dca5d82p-1; 0x1.e187e2fea8348p-3; 0x1.1e0b12d313f7cp-2; 0x1.392025051c93p-3 ] );
    ( max_int,
      [ 0x2de2ce032c245fa7L; 0xaf69910c113799acL; 0xc214c2e0626ff3efL; 0xc97122dc5d94e291L;
        0xb3ca3b68611d8652L; 0x854a3ddf1ed989e5L; 0xc37310faf1ac664fL; 0x8fec49f93dfda4dL ],
      [ 407; 436; 951; 473; 698; 661; 103; 437 ],
      [ 0x1.6f1670196122cp-3; 0x1.5ed32218226f3p-1; 0x1.842985c0c4dfep-1; 0x1.92e245b8bb29cp-1;
        0x1.679476d0c23bp-1; 0x1.0a947bbe3db31p-1; 0x1.86e621f5e358cp-1; 0x1.1fd893f27bfbp-5 ] );
  ]

let test_rng_pinned_stream () =
  List.iter
    (fun (seed, bits, ints, floats) ->
      let name what = Printf.sprintf "seed %d %s" seed what in
      let r = Rng.create ~seed in
      Alcotest.(check (list int64)) (name "bits64") bits (take8 (fun () -> Rng.bits64 r));
      let r = Rng.create ~seed in
      Alcotest.(check (list int)) (name "int 1000") ints (take8 (fun () -> Rng.int r 1000));
      let r = Rng.create ~seed in
      Alcotest.(check (list (float 0.))) (name "float 1.0") floats
        (take8 (fun () -> Rng.float r 1.0)))
    pinned_streams

let test_rng_pinned_split_copy () =
  let r = Rng.create ~seed:1 in
  let child = Rng.split r in
  Alcotest.(check (list int64)) "split child"
    [ 0xf0e0e7be2fcf87edL; 0xca7e1c9ef3f43d32L; 0x477203fc7af79e35L; 0x1bb4d534b5bbc443L;
      0x1cb4822bf3c03b88L; 0x67171526d1674f9cL; 0xaa4d8b94d3d2f62cL; 0xdb6527529b9f36d1L ]
    (take8 (fun () -> Rng.bits64 child));
  (* the split consumed the parent's first draw *)
  Alcotest.(check (list int64)) "split parent"
    [ 0x5f552ce482f2aa47L; 0x70335fc3daf3d8a7L; 0xf440fe3b62c79d2cL; 0x33ba2f29e7c168bbL;
      0x98843f48a94b7866L; 0x74ad4c24d41a25f8L; 0x2f9a1f13648eab6eL; 0x509a840d44beedbdL ]
    (take8 (fun () -> Rng.bits64 r));
  let r = Rng.create ~seed:42 in
  for _ = 1 to 3 do
    ignore (Rng.bits64 r)
  done;
  let c = Rng.copy r in
  let after_three =
    [ 0xc4b6b24ef01890eL; 0xfb16a06e52ec10a7L; 0x3c30fc5fd50692c3L; 0x4782c4b4c4fdf7c9L;
      0x272404a0a3926552L; 0xc2bc249e28760ccdL; 0x3e69c285108dbb77L; 0xc3b2b51fc61ec914L ]
  in
  Alcotest.(check (list int64)) "copy" after_three (take8 (fun () -> Rng.bits64 c));
  Alcotest.(check (list int64)) "copied original" after_three (take8 (fun () -> Rng.bits64 r))

(* Integer and boolean draws allocate nothing: the state is unboxed. *)
let test_rng_draws_allocate_nothing () =
  let r = Rng.create ~seed:5 in
  let sink = ref 0 in
  let draws () =
    for _ = 1 to 10_000 do
      sink := !sink + Rng.int r 1000;
      if Rng.bool r then incr sink
    done
  in
  draws ();
  let overhead =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  let a = Gc.minor_words () in
  draws ();
  let b = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words" overhead (b -. a);
  Alcotest.(check bool) "drew" true (!sink > 0)

(* [chance p] is the [float 1.0 < p] draw, without the float box. *)
let test_rng_chance () =
  let a = Rng.create ~seed:9 and b = Rng.create ~seed:9 in
  for i = 1 to 1_000 do
    let p = float_of_int (i mod 11) /. 10. in
    Alcotest.(check bool) "same draw" (Rng.float a 1.0 < p) (Rng.chance b p)
  done;
  let hits = ref 0 in
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  let overhead = w1 -. w0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    if Rng.chance b 0.25 then incr hits
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words" overhead (w1 -. w0);
  Alcotest.(check bool) "about a quarter" true (!hits > 2_000 && !hits < 3_000)

(* ------------------------------------------------------------------ *)
(* Event_queue                                                         *)
(* ------------------------------------------------------------------ *)

let test_eq_ordering () =
  let q = Eq.create () in
  Eq.add q ~time:(T.us 3) "c";
  Eq.add q ~time:(T.us 1) "a";
  Eq.add q ~time:(T.us 2) "b";
  Alcotest.(check string) "first" "a" (Eq.take q);
  Alcotest.(check string) "second" "b" (Eq.take q);
  Alcotest.(check string) "third" "c" (Eq.take q);
  Alcotest.(check bool) "drained" true (Eq.is_empty q)

let test_eq_fifo_ties () =
  let q = Eq.create () in
  for i = 0 to 9 do
    Eq.add q ~time:(T.us 5) i
  done;
  for i = 0 to 9 do
    Alcotest.(check int) "tie order" i (Eq.take q)
  done

let test_eq_random_sorted () =
  let r = Rng.create ~seed:99 in
  let q = Eq.create () in
  let times = Array.init 500 (fun _ -> Rng.int r 10_000) in
  Array.iter (fun t -> Eq.add q ~time:(T.ns t) t) times;
  Alcotest.(check int) "length" 500 (Eq.length q);
  let last = ref (-1) in
  while not (Eq.is_empty q) do
    let t = Eq.min_time q in
    Alcotest.(check int) "payload is its time" (T.to_ns t) (Eq.take q);
    Alcotest.(check bool) "monotone" true (T.to_ns t >= !last);
    last := T.to_ns t
  done

let test_eq_min_time_does_not_remove () =
  let q = Eq.create () in
  Eq.add q ~time:(T.us 2) 2;
  Eq.add q ~time:(T.us 1) 1;
  Alcotest.(check int) "earliest time" 1_000 (T.to_ns (Eq.min_time q));
  Alcotest.(check int) "still there" 2 (Eq.length q);
  ignore (Eq.take q);
  Alcotest.(check int) "next earliest" 2_000 (T.to_ns (Eq.min_time q));
  ignore (Eq.take q);
  Alcotest.check_raises "empty" (Invalid_argument "Event_queue.min_time: empty") (fun () ->
      ignore (Eq.min_time q));
  Alcotest.check_raises "empty take" (Invalid_argument "Event_queue.take: empty") (fun () ->
      ignore (Eq.take q))

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_advance () =
  let e = Engine.create () in
  Engine.advance e (T.us 10);
  Engine.advance e (T.us 5);
  Alcotest.(check int) "clock" 15_000 (T.to_ns (Engine.now e))

let test_engine_schedule_order () =
  let e = Engine.create () in
  let log = ref [] in
  let record tag _engine = log := tag :: !log in
  ignore (Engine.schedule e ~after:(T.us 2) (record "b"));
  ignore (Engine.schedule e ~after:(T.us 1) (record "a"));
  ignore (Engine.schedule e ~after:(T.us 3) (record "c"));
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "final clock" 3_000 (T.to_ns (Engine.now e))

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let fired = ref 0 in
  let rec chain n _engine =
    incr fired;
    if n > 1 then ignore (Engine.schedule e ~after:(T.us 1) (chain (n - 1)))
  in
  ignore (Engine.schedule e ~after:(T.us 1) (chain 5));
  Engine.run e;
  Alcotest.(check int) "all fired" 5 !fired;
  Alcotest.(check int) "clock advanced" 5_000 (T.to_ns (Engine.now e))

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~after:(T.us 1) (fun _ -> fired := true) in
  Engine.cancel e h;
  Alcotest.(check int) "no pending" 0 (Engine.pending e);
  Engine.run e;
  Alcotest.(check bool) "not fired" false !fired

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule e ~after:(T.us 1) (fun _ -> fired := 1 :: !fired));
  ignore (Engine.schedule e ~after:(T.us 10) (fun _ -> fired := 10 :: !fired));
  Engine.run_until e (T.us 5);
  Alcotest.(check (list int)) "only early event" [ 1 ] !fired;
  Alcotest.(check int) "clock at limit" 5_000 (T.to_ns (Engine.now e));
  Engine.run e;
  Alcotest.(check (list int)) "late event eventually" [ 10; 1 ] !fired

let test_engine_advance_past_event () =
  (* An [advance] that overshoots a pending event must not move the
     clock backward when that event later fires. *)
  let e = Engine.create () in
  let seen = ref T.zero in
  ignore (Engine.schedule e ~after:(T.us 2) (fun e -> seen := Engine.now e));
  Engine.advance e (T.us 10);
  Engine.run e;
  Alcotest.(check int) "fires at >= advanced clock" 10_000 (T.to_ns !seen)

let test_engine_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore
      (Engine.schedule e ~after:(T.us 1) (fun e ->
           incr count;
           if !count = 3 then Engine.stop e))
  done;
  Engine.run e;
  Alcotest.(check int) "stopped early" 3 !count

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_counter () =
  let c = Stats.Counter.create "x" in
  Stats.Counter.incr c;
  Stats.Counter.add c 4;
  Alcotest.(check int) "value" 5 (Stats.Counter.value c);
  Stats.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Stats.Counter.value c)

let test_summary () =
  let s = Stats.Summary.create "s" in
  List.iter (Stats.Summary.add s) [ 1.; 2.; 3.; 4. ];
  Alcotest.(check int) "count" 4 (Stats.Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.Summary.max s);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 1.25) (Stats.Summary.stddev s)

let test_summary_empty () =
  let s = Stats.Summary.create "e" in
  Alcotest.(check (float 0.)) "mean empty" 0. (Stats.Summary.mean s);
  Alcotest.(check (float 0.)) "stddev empty" 0. (Stats.Summary.stddev s)

let test_histogram () =
  let h = Stats.Histogram.create ~buckets:4 ~lo:0. ~hi:4. "h" in
  List.iter (Stats.Histogram.add h) [ -1.; 0.; 0.5; 1.5; 3.9; 4.0; 7. ];
  Alcotest.(check int) "count" 7 (Stats.Histogram.count h);
  Alcotest.(check int) "underflow" 1 (Stats.Histogram.underflow h);
  Alcotest.(check int) "overflow" 2 (Stats.Histogram.overflow h);
  Alcotest.(check (array int)) "buckets" [| 2; 1; 0; 1 |] (Stats.Histogram.bucket_counts h)

(* ------------------------------------------------------------------ *)
(* Int_table                                                           *)
(* ------------------------------------------------------------------ *)

(* [min_int] marks a free slot: it cannot be bound, and no lookup finds
   it. *)
let test_int_table_min_int () =
  let t = Int_table.create 4 in
  Int_table.replace t 0 "zero";
  Alcotest.check_raises "replace"
    (Invalid_argument "Int_table.replace: min_int marks a free slot") (fun () ->
      Int_table.replace t min_int "free");
  Alcotest.(check bool) "mem" false (Int_table.mem t min_int);
  Alcotest.(check (option string)) "find_opt" None (Int_table.find_opt t min_int);
  Alcotest.check_raises "find" Not_found (fun () -> ignore (Int_table.find t min_int));
  Int_table.remove t min_int;
  Alcotest.(check int) "length" 1 (Int_table.length t)

(* A warmed table answers [find], [find_opt] and [mem] without
   allocating, hits and misses alike. *)
let test_int_table_lookups_allocate_nothing () =
  let t = Int_table.create 1 in
  for i = 0 to 999 do
    Int_table.replace t (i * 4096) i
  done;
  let sink = ref 0 in
  let lookups () =
    for i = 0 to 1999 do
      let k = i * 4096 in
      if Int_table.mem t k then sink := !sink + Int_table.find t k;
      match Int_table.find_opt t k with Some v -> sink := !sink + v | None -> ()
    done
  in
  lookups ();
  let overhead =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  sink := 0;
  let a = Gc.minor_words () in
  lookups ();
  let b = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words" overhead (b -. a);
  (* keys 0..999 are bound to themselves and each is found twice *)
  Alcotest.(check int) "found every bound key" (2 * (999 * 1000 / 2)) !sink

(* Dense ids number raw ids 0, 1, 2 … in order of first sight, keep
   each raw id's number, and start again at 0 after a reset. *)
let test_int_table_dense_ids () =
  let t = Int_table.create 4 in
  let ids raws = List.map (Int_table.dense_id t) raws in
  Alcotest.(check (list int)) "first sight" [ 0; 1; 2; 0; 3; 1 ]
    (ids [ 907; 12; 4096 * 7; 907; -5; 12 ]);
  Alcotest.(check int) "one binding per raw id" 4 (Int_table.length t);
  Int_table.reset t;
  Alcotest.(check (list int)) "after reset" [ 0; 1; 0 ] (ids [ 12; 907; 12 ])

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_event_queue_sorted =
  QCheck.Test.make ~name:"event_queue pops sorted" ~count:200
    QCheck.(list (int_bound 100_000))
    (fun times ->
      let q = Eq.create () in
      List.iter (fun t -> Eq.add q ~time:(T.ns t) t) times;
      let rec drain acc =
        if Eq.is_empty q then List.rev acc
        else
          let t = Eq.min_time q in
          ignore (Eq.take q);
          drain (T.to_ns t :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare times)

type int_table_op =
  | Replace of int * int
  | Remove of int
  | Find of int
  | Mem of int
  | Iter

(* Keys that stress the hash: a dense cluster, power-of-two strides,
   single high bits, negatives and the largest ints. *)
let gen_key =
  QCheck.Gen.(
    frequency
      [
        (4, int_range 0 63);
        (3, map (fun i -> i * 4096) (int_range 0 63));
        (2, map (fun b -> 1 lsl b) (int_range 0 61));
        (2, map (fun i -> -i) (int_range 1 64));
        (1, oneofl [ max_int; max_int - 1; min_int + 1 ]);
      ])

let gen_int_table_op =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> Replace (k, v)) gen_key small_nat);
        (3, map (fun k -> Remove k) gen_key);
        (2, map (fun k -> Find k) gen_key);
        (1, map (fun k -> Mem k) gen_key);
        (1, return Iter);
      ])

let show_int_table_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Find k -> Printf.sprintf "find %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Iter -> "iter"

(* Every call agrees with a [Hashtbl] model, across growth and
   backward-shift removal; [length] and the full binding set are
   compared after every call. *)
let prop_int_table_matches_hashtbl =
  QCheck.Test.make ~name:"int_table agrees with a Hashtbl model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_int_table_op ops))
       QCheck.Gen.(list_size (int_range 0 400) gen_int_table_op))
    (fun ops ->
      let t = Int_table.create 1 and model = Hashtbl.create 16 in
      let bindings () =
        let acc = ref [] in
        Int_table.iter (fun k v -> acc := (k, v) :: !acc) t;
        List.sort compare !acc
      in
      let model_bindings () =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
      in
      List.for_all
        (fun op ->
          let agrees =
            match op with
            | Replace (k, v) ->
                Int_table.replace t k v;
                Hashtbl.replace model k v;
                true
            | Remove k ->
                Int_table.remove t k;
                Hashtbl.remove model k;
                true
            | Find k ->
                Int_table.find_opt t k = Hashtbl.find_opt model k
                && (match Int_table.find t k with
                   | v -> Hashtbl.find_opt model k = Some v
                   | exception Not_found -> not (Hashtbl.mem model k))
            | Mem k -> Int_table.mem t k = Hashtbl.mem model k
            | Iter -> bindings () = model_bindings ()
          in
          agrees
          && Int_table.length t = Hashtbl.length model
          && List.length (bindings ()) = Hashtbl.length model)
        ops
      && bindings () = model_bindings ())

let prop_rng_int_in_range =
  QCheck.Test.make ~name:"rng int_in stays in range" ~count:500
    QCheck.(triple small_int small_int small_int)
    (fun (seed, a, b) ->
      let lo = min a b and hi = max a b in
      let r = Rng.create ~seed in
      let v = Rng.int_in r ~lo ~hi in
      v >= lo && v <= hi)

let prop_summary_mean_bounded =
  QCheck.Test.make ~name:"summary mean within min..max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let s = Stats.Summary.create "p" in
      List.iter (Stats.Summary.add s) xs;
      let m = Stats.Summary.mean s in
      m >= Stats.Summary.min s -. 1e-9 && m <= Stats.Summary.max s +. 1e-9)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "sim_time",
        [
          Alcotest.test_case "constructors" `Quick test_time_constructors;
          Alcotest.test_case "arithmetic" `Quick test_time_arithmetic;
          Alcotest.test_case "negative rejected" `Quick test_time_negative_rejected;
          Alcotest.test_case "conversions" `Quick test_time_conversions;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pinned stream" `Quick test_rng_pinned_stream;
          Alcotest.test_case "pinned split and copy" `Quick test_rng_pinned_split_copy;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
          Alcotest.test_case "chance" `Quick test_rng_chance;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_eq_ordering;
          Alcotest.test_case "fifo ties" `Quick test_eq_fifo_ties;
          Alcotest.test_case "random sorted" `Quick test_eq_random_sorted;
          Alcotest.test_case "min_time" `Quick test_eq_min_time_does_not_remove;
        ] );
      ( "engine",
        [
          Alcotest.test_case "advance" `Quick test_engine_advance;
          Alcotest.test_case "schedule order" `Quick test_engine_schedule_order;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "advance past event" `Quick test_engine_advance_past_event;
          Alcotest.test_case "stop" `Quick test_engine_stop;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "summary empty" `Quick test_summary_empty;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "int_table",
        [
          Alcotest.test_case "min_int is never bound" `Quick test_int_table_min_int;
          Alcotest.test_case "lookups allocate nothing" `Quick
            test_int_table_lookups_allocate_nothing;
          Alcotest.test_case "dense ids in first-seen order" `Quick
            test_int_table_dense_ids;
        ] );
      ( "properties",
        qc
          [
            prop_event_queue_sorted;
            prop_rng_int_in_range;
            prop_summary_mean_bounded;
            prop_int_table_matches_hashtbl;
          ] );
    ]
