open Hipec_sim
open Hipec_vm
open Hipec_core
open Hipec_trace
module T = Sim_time

type policy_cfg = {
  pattern : string;
  npages : int;
  frames : int;
  policy : string;
  count : int;
  seed : int;
}

let default_policy_cfg =
  { pattern = "cyclic"; npages = 256; frames = 128; policy = "mru"; count = 4096; seed = 17 }

let pattern_names =
  [ "cyclic"; "sequential"; "reverse"; "strided"; "random"; "zipf"; "phased" ]

let policy_names = [ "fifo"; "lru"; "mru"; "clock"; "second-chance"; "adaptive" ]

type scenario = Policy of policy_cfg | Named of string

let named_scenarios = [ "join-small"; "aim-small"; "chaos-smoke"; "storm-smoke" ]

let scenario_of_name = function
  | "policy" -> Some (Policy default_policy_cfg)
  | name when List.mem name named_scenarios -> Some (Named name)
  | _ -> None

let policy_of_name = function
  | "fifo" -> Some (Policies.fifo ())
  | "lru" -> Some (Policies.lru ())
  | "mru" -> Some (Policies.mru ())
  | "clock" -> Some (Policies.clock ())
  | "second-chance" -> Some (Policies.fifo_second_chance ())
  | "adaptive" -> Some (Policies.adaptive ())
  | _ -> None

(* The adaptive policy carries private state (score/threshold/cap) in
   user operand slots, so its spec declares them; the refs must be
   fresh per install. *)
let spec_of_policy_name name ~min_frames =
  match policy_of_name name with
  | None -> None
  | Some program ->
      let spec = Api.default_spec ~policy:program ~min_frames in
      if String.equal name "adaptive" then
        Some { spec with Api.extra_operands = Policies.adaptive_operands () }
      else Some spec

let build_trace cfg =
  let rng = Rng.create ~seed:cfg.seed in
  let npages = cfg.npages and count = cfg.count in
  match cfg.pattern with
  | "cyclic" ->
      Ok (Access_trace.cyclic ~npages ~loops:(max 1 (count / npages)) ~write:false)
  | "sequential" -> Ok (Access_trace.sequential ~npages ~write:false)
  | "reverse" ->
      Ok (Access_trace.reverse_cyclic ~npages ~loops:(max 1 (count / npages)) ~write:false)
  | "strided" -> Ok (Access_trace.strided ~npages ~stride:7 ~count ~write:false)
  | "random" -> Ok (Access_trace.uniform_random rng ~npages ~count ~write_ratio:0.3)
  | "zipf" -> Ok (Access_trace.zipf rng ~npages ~count ~theta:0.99 ~write_ratio:0.3)
  | "phased" ->
      (* half the frames per phase, but never more pages than exist *)
      Ok
        (Access_trace.working_set_phases rng ~npages ~phases:6
           ~phase_len:(max 1 (count / 6))
           ~ws_pages:(max 1 (min npages (cfg.frames / 2))))
  | p -> Error (Printf.sprintf "unknown pattern %S" p)

(* Build the fixed machine a policy trace runs on.  Everything here must
   be a pure function of [cfg] — record and replay both call it and any
   divergence shows up as a digest mismatch. *)
let setup_policy cfg =
  match spec_of_policy_name cfg.policy ~min_frames:cfg.frames with
  | None -> Error (Printf.sprintf "unknown policy %S" cfg.policy)
  | Some spec ->
      let config =
        {
          Kernel.default_config with
          Kernel.total_frames = max 256 (4 * cfg.frames);
          seed = cfg.seed;
          hipec_kernel = true;
        }
      in
      let k = Kernel.create ~config () in
      let sys = Api.init ~start_checker:false k in
      let task = Kernel.create_task k ~name:"trace" () in
      Result.map
        (fun (region, _container) -> (k, task, region))
        (Api.vm_map_hipec sys task ~name:"trace-data" ~npages:cfg.npages spec)

let policy_meta cfg =
  [
    ("kind", "policy");
    ("pattern", cfg.pattern);
    ("pages", string_of_int cfg.npages);
    ("frames", string_of_int cfg.frames);
    ("policy", cfg.policy);
    ("count", string_of_int cfg.count);
    ("seed", string_of_int cfg.seed);
  ]

let cfg_of_meta r =
  let get key = Trace.Recorded.meta_find r key in
  let int key = Option.bind (get key) int_of_string_opt in
  match (get "pattern", int "pages", int "frames", get "policy", int "count", int "seed")
  with
  | Some pattern, Some npages, Some frames, Some policy, Some count, Some seed ->
      Ok { pattern; npages; frames; policy; count; seed }
  | _ -> Error "recording lacks the policy-scenario metadata"

(* Run [f] under a fresh storing collector; always uninstall it. *)
let collect f =
  let c = Trace.start ~store:true () in
  let result = try f () with e -> ignore (Trace.stop ()); raise e in
  ignore (Trace.stop ());
  Result.map (fun meta -> Trace.Recorded.of_collector c ~meta) result

let record_policy cfg =
  match build_trace cfg with
  | Error _ as e -> e
  | Ok trace ->
      collect (fun () ->
          Result.map
            (fun (k, task, region) ->
              Access_trace.replay k task region trace;
              Kernel.drain_io k;
              ("start_vpn", string_of_int region.Vm_map.start_vpn) :: policy_meta cfg)
            (setup_policy cfg))

(* Record an explicit access array under [cfg]'s machine instead of a
   generated pattern — adversary witnesses are recorded this way, with
   cfg.pattern naming their provenance.  Replay never regenerates the
   pattern (it re-drives the recorded Access events), so the resulting
   recording round-trips through [replay] like any policy trace. *)
let record_accesses cfg accesses =
  collect (fun () ->
      Result.map
        (fun (k, task, region) ->
          Array.iter
            (fun { Hipec_trace.Oracle.page; write } ->
              Kernel.access_vpn k task ~vpn:(region.Vm_map.start_vpn + page) ~write)
            accesses;
          Kernel.drain_io k;
          ("start_vpn", string_of_int region.Vm_map.start_vpn) :: policy_meta cfg)
        (setup_policy cfg))

let run_named name =
  match name with
  | "join-small" ->
      let c =
        { Join.default_config with Join.outer_mb = 6; memory_mb = 4; inner_bytes = 8 * 64 }
      in
      ignore (Join.run ~seed:11 Join.Hipec_mru c);
      Ok [ ("kind", "workload"); ("workload", name) ]
  | "aim-small" ->
      let c =
        {
          Aim.default_config with
          Aim.users = 2;
          duration = T.sec 5;
          hipec_kernel = true;
          specific_users = 1;
          total_frames = 1_024;
          user_region_pages = 300;
        }
      in
      ignore (Aim.run c);
      Ok [ ("kind", "workload"); ("workload", name) ]
  | "chaos-smoke" ->
      ignore (Chaos.run Chaos.smoke);
      Ok [ ("kind", "workload"); ("workload", name) ]
  | "storm-smoke" ->
      ignore (Storm.run Storm.smoke);
      Ok [ ("kind", "workload"); ("workload", name) ]
  | _ -> Error (Printf.sprintf "unknown scenario %S (try %s)" name
                  (String.concat "|" named_scenarios))

let record = function
  | Policy cfg -> record_policy cfg
  | Named name -> collect (fun () -> run_named name)

(* Run a scenario without touching the trace sink: [hipec stat] and the
   bench harness install a metrics registry around this instead. *)
let run_scenario = function
  | Policy cfg -> (
      match build_trace cfg with
      | Error _ as e -> e
      | Ok trace ->
          Result.map
            (fun (k, task, region) ->
              Access_trace.replay k task region trace;
              Kernel.drain_io k)
            (setup_policy cfg))
  | Named name -> Result.map (fun (_ : (string * string) list) -> ()) (run_named name)

type replay_outcome = {
  recorded_digest : int64;
  replayed_digest : int64;
  events_replayed : int;
  divergence : Trace.Recorded.divergence option;
}

let matches o = Int64.equal o.recorded_digest o.replayed_digest

let outcome recorded replayed =
  {
    recorded_digest = recorded.Trace.Recorded.digest;
    replayed_digest = replayed.Trace.Recorded.digest;
    events_replayed = Array.length replayed.Trace.Recorded.events;
    divergence =
      (if Int64.equal recorded.Trace.Recorded.digest replayed.Trace.Recorded.digest then
         None
       else Trace.Recorded.diff recorded replayed);
  }

(* Re-drive a policy recording from its own access stream: only the
   accesses that landed in the managed data region are replayed — the
   rest of the recorded stream (command-buffer wiring, pageins, policy
   runs) is regenerated by the kernel and must come out identical. *)
let replay_policy recorded cfg =
  match
    ( Option.bind (Trace.Recorded.meta_find recorded "start_vpn") int_of_string_opt,
      collect (fun () ->
          match setup_policy cfg with
          | Error _ as e -> e
          | Ok (k, task, region) ->
              let lo = region.Vm_map.start_vpn in
              let hi = Vm_map.region_end_vpn region in
              Array.iter
                (fun (ev : Event.t) ->
                  match ev.Event.payload with
                  | Event.Access { vpn; write; _ } when vpn >= lo && vpn < hi ->
                      Kernel.access_vpn k task ~vpn ~write
                  | _ -> ())
                recorded.Trace.Recorded.events;
              Kernel.drain_io k;
              Ok (("start_vpn", string_of_int lo) :: policy_meta cfg)) )
  with
  | None, _ -> Error "recording lacks start_vpn metadata"
  | Some _, (Error _ as e) -> e
  | Some recorded_vpn, Ok replayed -> (
      match Trace.Recorded.meta_find replayed "start_vpn" with
      | Some v when int_of_string_opt v <> Some recorded_vpn ->
          Error
            (Printf.sprintf "region landed at vpn %s, recording used %d" v recorded_vpn)
      | _ -> Ok (outcome recorded replayed))

let replay recorded =
  match Trace.Recorded.meta_find recorded "kind" with
  | Some "policy" ->
      Result.bind (cfg_of_meta recorded) (fun cfg -> replay_policy recorded cfg)
  | Some "workload" -> (
      match Trace.Recorded.meta_find recorded "workload" with
      | None -> Error "workload recording lacks its scenario name"
      | Some name ->
          Result.map (outcome recorded) (collect (fun () -> run_named name)))
  | Some k -> Error (Printf.sprintf "unknown recording kind %S" k)
  | None -> Error "recording lacks the kind metadata"
