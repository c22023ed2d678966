open Hipec_sim
open Hipec_vm
open Hipec_core
open Hipec_trace
module Oracle = Hipec_trace.Oracle

(* ------------------------------------------------------------------ *)
(* Search configuration                                                *)
(* ------------------------------------------------------------------ *)

type config = {
  policy : string;
  seed : int;
  frames_lo : int;
  frames_hi : int;
  npages : int;
  length : int;
  random_rounds : int;
  mutation_rounds : int;
}

let default =
  {
    policy = "fifo";
    seed = 7;
    frames_lo = 3;
    frames_hi = 4;
    npages = 6;
    length = 24;
    random_rounds = 400;
    mutation_rounds = 2400;
  }

let smoke = { default with random_rounds = 200; mutation_rounds = 1200 }

(* ------------------------------------------------------------------ *)
(* Witnesses and outcomes                                              *)
(* ------------------------------------------------------------------ *)

type witness = {
  w_policy : string;
  w_frames_lo : int;
  w_frames_hi : int;
  w_faults_lo : int;
  w_faults_hi : int;
  w_accesses : Oracle.access array;
}

let anomaly_ratio w = float_of_int w.w_faults_hi /. float_of_int w.w_faults_lo

type outcome = {
  o_config : config;
  o_witness : witness option;
  o_best_gap : int;
  o_traces_scored : int;
}

(* The classic 12-access FIFO witness (faults(3)=9 < faults(4)=10) —
   the shape the search hunts for, kept here for tests and docs. *)
let classic_belady =
  Array.map
    (fun p -> { Oracle.page = p; write = false })
    [| 1; 2; 3; 4; 1; 2; 5; 1; 2; 3; 4; 5 |]

let pp_accesses fmt accesses =
  Format.pp_print_string fmt
    (String.concat ","
       (List.map
          (fun { Oracle.page; write } ->
            string_of_int page ^ if write then "w" else "")
          (Array.to_list accesses)))

(* ------------------------------------------------------------------ *)
(* Search: random probes, then mutation hill-climb                     *)
(*                                                                     *)
(* The score of a candidate trace is the anomaly gap                   *)
(*   faults(frames_hi) - faults(frames_lo)                             *)
(* under the pure oracle — no kernel in the loop, so scoring runs at   *)
(* oracle speed (hundreds of thousands of traces per second).  Any     *)
(* positive gap is an anomaly witness; the climb keeps pushing for     *)
(* the widest gap the budget finds.  Everything draws from one         *)
(* splitmix64 stream, so a seed fully reproduces the search.           *)
(* ------------------------------------------------------------------ *)

let search config =
  let oracle =
    match Oracle.of_policy_name config.policy with
    | Some o -> o
    | None -> invalid_arg (Printf.sprintf "Adversary: no oracle for %S" config.policy)
  in
  if config.frames_hi <= config.frames_lo then
    invalid_arg "Adversary: frames_hi must exceed frames_lo";
  let rng = Rng.create ~seed:config.seed in
  let scored = ref 0 in
  (* Per-access miss flags, recovered from oracle fault counts on
     prefixes: access i missed iff the prefix ending at i faults once
     more than the prefix before it.  O(n^2) in trace length, but
     traces are tens of accesses and the oracles are pure. *)
  let miss_flags ~frames trace =
    let n = Array.length trace in
    let flags = Array.make n false in
    let prev = ref 0 in
    for i = 1 to n do
      let f = (oracle ~frames (Array.sub trace 0 i)).Oracle.faults in
      flags.(i - 1) <- f > !prev;
      prev := f
    done;
    flags
  in
  (* Fitness is lexicographic: the anomaly gap first, then the number
     of positions where the small grant hits but the large grant misses
     — the accesses that *contribute* to an anomaly.  The second
     component keeps a gradient alive on the gap<=0 plateau, where
     maximizing raw fault counts would just drive the climb into
     always-miss cyclic traces that thrash both grants equally. *)
  let fitness trace =
    incr scored;
    let miss_lo = miss_flags ~frames:config.frames_lo trace in
    let miss_hi = miss_flags ~frames:config.frames_hi trace in
    let gap = ref 0 and divergence = ref 0 in
    Array.iteri
      (fun i hi ->
        let lo = miss_lo.(i) in
        if hi && not lo then begin
          incr gap;
          incr divergence
        end
        else if lo && not hi then decr gap)
      miss_hi;
    (!gap, !divergence)
  in
  let fitness_ge (g, h) (g', h') = g > g' || (g = g' && h >= h') in
  let random_trace () =
    Array.init config.length (fun _ ->
        { Oracle.page = Rng.int rng config.npages; write = false })
  in
  let mutate trace =
    let t = Array.copy trace in
    let n = Array.length t in
    (match Rng.int rng 4 with
    | 0 ->
        (* point: rewrite one access *)
        t.(Rng.int rng n) <- { Oracle.page = Rng.int rng config.npages; write = false }
    | 1 ->
        (* swap two positions *)
        let i = Rng.int rng n and j = Rng.int rng n in
        let tmp = t.(i) in
        t.(i) <- t.(j);
        t.(j) <- tmp
    | 2 ->
        (* splice: replay an earlier window later (anomalies live on
           repeated subsequences) *)
        let len = 1 + Rng.int rng (max 1 (n / 4)) in
        let src = Rng.int rng (n - len + 1) and dst = Rng.int rng (n - len + 1) in
        Array.blit t src t dst len
    | _ ->
        (* rotate by a random offset *)
        let k = 1 + Rng.int rng (n - 1) in
        let r = Array.init n (fun i -> t.((i + k) mod n)) in
        Array.blit r 0 t 0 n);
    t
  in
  let best = ref (random_trace ()) in
  let best_fit = ref (fitness !best) in
  for _ = 2 to config.random_rounds do
    let cand = random_trace () in
    let f = fitness cand in
    if fitness_ge f !best_fit then begin
      best := cand;
      best_fit := f
    end
  done;
  (* hill-climb with plateau drift (sideways moves accepted) and
     stall-triggered restarts: a climber that hasn't improved its gap
     for a while is abandoned for a fresh random trace, while the best
     witness seen anywhere is kept aside *)
  let global = ref !best in
  let global_fit = ref !best_fit in
  let stall_limit = max 32 (config.mutation_rounds / 8) in
  let stalled = ref 0 in
  for _ = 1 to config.mutation_rounds do
    let cand = mutate !best in
    let f = fitness cand in
    if fitness_ge f !best_fit then begin
      best := cand;
      best_fit := f;
      if fst f > fst !global_fit || (fst f = fst !global_fit && snd f > snd !global_fit)
      then begin
        global := cand;
        global_fit := f;
        stalled := 0
      end
      else incr stalled
    end
    else incr stalled;
    if !stalled > stall_limit then begin
      best := random_trace ();
      best_fit := fitness !best;
      stalled := 0
    end
  done;
  let best = !global in
  let best_gap = fst !global_fit in
  let witness =
    if best_gap <= 0 then None
    else
      Some
        {
          w_policy = config.policy;
          w_frames_lo = config.frames_lo;
          w_frames_hi = config.frames_hi;
          w_faults_lo = (oracle ~frames:config.frames_lo best).Oracle.faults;
          w_faults_hi = (oracle ~frames:config.frames_hi best).Oracle.faults;
          w_accesses = best;
        }
  in
  { o_config = config; o_witness = witness; o_best_gap = best_gap;
    o_traces_scored = !scored }

(* ------------------------------------------------------------------ *)
(* End-to-end confirmation through the real executor                   *)
(* ------------------------------------------------------------------ *)

type executor_run = { x_faults : int; x_digest : int64; x_events : int }

let npages_of w =
  1 + Array.fold_left (fun m (a : Oracle.access) -> max m a.Oracle.page) 0 w.w_accesses

(* Replay [accesses] against a real kernel under [policy]/[frames] with
   a storing collector installed; the digest covers the entire event
   stream (faults, pageins, policy runs, evictions), so two backends
   agreeing here agree on every observable step. *)
let run_executor ~backend ~policy ~frames ~npages accesses =
  Executor.with_backend backend (fun () ->
      let c = Trace.start ~store:true () in
      let finish () = ignore (Trace.stop ()) in
      match
        match Trace_run.spec_of_policy_name policy ~min_frames:frames with
        | None -> Error (Printf.sprintf "unknown policy %S" policy)
        | Some spec ->
            let config =
              {
                Kernel.default_config with
                Kernel.total_frames = max 256 (4 * frames);
                hipec_kernel = true;
              }
            in
            let k = Kernel.create ~config () in
            let sys = Api.init ~start_checker:false k in
            let task = Kernel.create_task k ~name:"adversary" () in
            Result.map
              (fun (region, _container) ->
                Array.iter
                  (fun { Oracle.page; write } ->
                    Kernel.access_vpn k task ~vpn:(region.Vm_map.start_vpn + page)
                      ~write)
                  accesses;
                Kernel.drain_io k)
              (Api.vm_map_hipec sys task ~name:"adversary-data" ~npages spec)
      with
      | exception e ->
          finish ();
          raise e
      | Error _ as e ->
          finish ();
          e
      | Ok () ->
          finish ();
          let faults = ref 0 in
          Array.iter
            (fun ev ->
              match ev.Event.payload with
              | Event.Fault { kind = Event.Hipec; _ } -> incr faults
              | _ -> ())
            (Trace.events c);
          Ok
            {
              x_faults = !faults;
              x_digest = Trace.digest c;
              x_events = Trace.events_seen c;
            })

type confirmed_level = {
  cl_frames : int;
  cl_oracle_faults : int;
  cl_interp : executor_run;
  cl_compiled : executor_run;
}

let level_backends_agree l = Int64.equal l.cl_interp.x_digest l.cl_compiled.x_digest

let level_matches_oracle l =
  l.cl_interp.x_faults = l.cl_oracle_faults
  && l.cl_compiled.x_faults = l.cl_oracle_faults

type confirmation = {
  c_witness : witness;
  c_lo : confirmed_level;
  c_hi : confirmed_level;
}

let backends_agree c = level_backends_agree c.c_lo && level_backends_agree c.c_hi
let matches_oracle c = level_matches_oracle c.c_lo && level_matches_oracle c.c_hi

let anomaly_holds c = c.c_hi.cl_interp.x_faults > c.c_lo.cl_interp.x_faults

let confirmed c = backends_agree c && matches_oracle c && anomaly_holds c

let confirm w =
  let ( let* ) = Result.bind in
  let npages = npages_of w in
  let level ~frames ~oracle_faults =
    let* interp =
      run_executor ~backend:Executor.Interp ~policy:w.w_policy ~frames ~npages
        w.w_accesses
    in
    let* compiled =
      run_executor ~backend:Executor.Compiled ~policy:w.w_policy ~frames ~npages
        w.w_accesses
    in
    Ok
      {
        cl_frames = frames;
        cl_oracle_faults = oracle_faults;
        cl_interp = interp;
        cl_compiled = compiled;
      }
  in
  let* lo = level ~frames:w.w_frames_lo ~oracle_faults:w.w_faults_lo in
  let* hi = level ~frames:w.w_frames_hi ~oracle_faults:w.w_faults_hi in
  Ok { c_witness = w; c_lo = lo; c_hi = hi }

(* ------------------------------------------------------------------ *)
(* Golden regression recording                                         *)
(* ------------------------------------------------------------------ *)

let witness_cfg w ~frames =
  {
    Trace_run.pattern = "adversary";
    npages = npages_of w;
    frames;
    policy = w.w_policy;
    count = Array.length w.w_accesses;
    seed = 0;
  }

let record_witness w ~frames = Trace_run.record_accesses (witness_cfg w ~frames) w.w_accesses
