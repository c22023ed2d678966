open Hipec_sim
open Hipec_machine
open Hipec_vm
open Hipec_core

(* The multi-tenant storm: many specific applications — most honest,
   some greedy, some erring — fault concurrently through an overloaded
   machine while the disk injects faults.  Exercises the whole overload
   stack: pressure levels, admission shedding, pressure-scaled bursts,
   per-tenant fuel throttling and emergency seizure, with the auditor
   asserting frame conservation and the isolation floors throughout. *)

type kind = Honest | Greedy | Erring

let kind_name = function Honest -> "honest" | Greedy -> "greedy" | Erring -> "erring"

type config = {
  tenants : int;
  pages_per_tenant : int;
  min_frames : int;
  total_frames : int;
  rounds : int;
  seed : int;
  greedy_every : int;  (** tenant [i] is greedy when [i mod greedy_every = 3 mod greedy_every]; 0 disables *)
  erring_every : int;  (** erring when [i mod erring_every = 7 mod erring_every]; 0 disables *)
  hog_pages : int;  (** default-pool writer sized to drain the free pool *)
  late_tenants : int;  (** admissions attempted after the hog has raised pressure *)
  transient_rate : float;
  latency_spike_rate : float;
  bad_swap_blocks : int;
  audit_period : Sim_time.t;
  max_steps : int;
  overload : bool;  (** engage {!Hipec_core.Api.enable_overload} *)
  fuel_quota : int option;
  fuel_window : Sim_time.t;
  fuel_cooldown : Sim_time.t;
  slo_ns : int;  (** per-access latency objective *)
  slo_budget : float;  (** allowed violating fraction of a tenant's accesses *)
}

let smoke =
  {
    tenants = 100;
    pages_per_tenant = 16;
    min_frames = 8;
    total_frames = 1_536;
    rounds = 3;
    seed = 1;
    greedy_every = 10;
    erring_every = 20;
    hog_pages = 2_048;
    late_tenants = 15;
    transient_rate = 0.005;
    latency_spike_rate = 0.002;
    bad_swap_blocks = 2;
    audit_period = Sim_time.ms 100;
    max_steps = 2_000;
    overload = true;
    fuel_quota = Some 200;
    fuel_window = Sim_time.ms 10;
    fuel_cooldown = Sim_time.ms 50;
    slo_ns = 10_000_000;
    slo_budget = 0.05;
  }

let full =
  {
    smoke with
    tenants = 1_000;
    total_frames = 12_288;
    hog_pages = 16_384;
    late_tenants = 100;
    audit_period = Sim_time.ms 500;
  }

let kind_of config i =
  if config.erring_every > 0 && i mod config.erring_every = 7 mod config.erring_every
  then Erring
  else if config.greedy_every > 0 && i mod config.greedy_every = 3 mod config.greedy_every
  then Greedy
  else Honest

(* Per-tenant SLO accounting: [burn] is error-budget burn — the
   tenant's violating fraction divided by the allowed fraction, so
   burn > 1 means the tenant is out of budget. *)
type offender = {
  o_index : int;
  o_kind : kind;
  o_samples : int;
  o_violations : int;
  o_burn : float;
  o_worst_ns : int;
}

type result = {
  elapsed : Sim_time.t;
  tenants : int;
  admitted : int;
  shed : int;
  honest_alive : int;
  task_kills : int;
  demotions : int;
  throttles_entered : int;
  throttles_exited : int;
  emergency_seizures : int;
  emergency_frames : int;
  admissions_queued : int;
  admissions_rejected : int;
  total_faults : int;
  faults_per_sec : float;
  honest_samples : int;
  honest_p50_ns : int;
  honest_p99_ns : int;
  greedy_samples : int;
  greedy_p99_ns : int;
  slo_ns : int;
  slo_budget : float;
  slo_tracked : int;  (* tenants with at least one sample *)
  slo_over_budget : int;  (* tenants with burn > 1 *)
  slo_violations : int;  (* accesses over the objective, all tenants *)
  slo_worst : offender list;  (* descending burn, top 5 *)
  pressure_changes : int;
  peak_level : string;
  final_level : string;
  audit_sweeps : int;
  audit_violations : int;
  first_violation : string option;
  conservation_ok : bool;
  digest : string;
  kstat : string;
}

(* p-th percentile (0..1) by nearest-rank; the shared sorted core. *)
let percentile = Stats.Percentile.of_ints

type tenant = {
  index : int;
  kind : kind;
  task : Task.t;
  region : Vm_map.region option;  (* None: admission was shed *)
}

let run config =
  let kconfig =
    {
      Kernel.default_config with
      total_frames = config.total_frames;
      seed = config.seed;
      hipec_kernel = true;
    }
  in
  let kernel = Kernel.create ~config:kconfig () in
  let sys = Api.init ~max_steps:config.max_steps kernel in
  if config.overload then
    Api.enable_overload ?fuel_quota:config.fuel_quota ~fuel_window:config.fuel_window
      ~fuel_cooldown:config.fuel_cooldown sys;
  let manager = Api.manager sys in
  (* own trace collector only when the caller did not install one: the
     digest doubles as the determinism check *)
  let own_collector =
    match Hipec_trace.Trace.active () with
    | Some _ -> None
    | None -> Some (Hipec_trace.Trace.start ())
  in
  let auditor =
    Audit.create ~period:config.audit_period ~raise_on_violation:false kernel
  in
  Audit.register_check auditor ~name:"hipec-isolation" (Frame_manager.audit_check manager);
  (* disk fault injection: bad blocks land in the swap slots laundering
     will write (same construction as the chaos scenario) *)
  (if config.bad_swap_blocks > 0 then
     let probe = Kernel.alloc_disk_extent kernel ~npages:1 in
     let bad_blocks =
       List.init config.bad_swap_blocks (fun i ->
           probe + (Vm_object.blocks_per_page * (i + 1)))
     in
     Disk.set_faults (Kernel.disk kernel)
       {
         Disk.Faults.seed = config.seed + 1;
         transient_read_rate = config.transient_rate;
         transient_write_rate = config.transient_rate;
         latency_spike_rate = config.latency_spike_rate;
         latency_spike = Sim_time.ms 20;
         bad_blocks;
       });
  let shed = ref 0 in
  let policy_for = function
    | Honest -> Policies.fifo_second_chance ()
    | Greedy -> Policies.greedy_request ~flavour:`Fifo ~chunk:32
    | Erring -> Policies.looping ()
  in
  let admit_tenant i =
    let kind = kind_of config i in
    let task =
      Kernel.create_task kernel ~name:(Printf.sprintf "t%04d-%s" i (kind_name kind)) ()
    in
    let spec = Api.default_spec ~policy:(policy_for kind) ~min_frames:config.min_frames in
    match Api.vm_allocate_hipec sys task ~npages:config.pages_per_tenant spec with
    | Ok (region, container) ->
        Audit.register_queue auditor (Container.free_queue container);
        Audit.register_queue auditor (Container.active_queue container);
        Audit.register_queue auditor (Container.inactive_queue container);
        { index = i; kind; task; region = Some region }
    | Error _ ->
        (* admission shed or genuinely out of memory: the tenant is
           turned away, counted, and the storm goes on without it *)
        incr shed;
        { index = i; kind; task; region = None }
  in
  (* at least one tenant comes early, so a storm of any size admits
     someone before the hog raises pressure *)
  let late = min config.late_tenants (max 0 (config.tenants - 1)) in
  let early_tenants = List.init (config.tenants - late) admit_tenant in
  Audit.start auditor;
  let task_kills = ref 0 in
  (* the default-pool hog drains the free pool and drives the pressure
     ladder up before the late admission wave arrives *)
  let hog_task = Kernel.create_task kernel ~name:"hog" () in
  let hog_region =
    if config.hog_pages > 0 then
      Some (Kernel.vm_allocate kernel hog_task ~npages:config.hog_pages)
    else None
  in
  (match hog_region with
  | Some region -> (
      try Kernel.touch_region kernel hog_task region ~write:true
      with Kernel.Task_terminated _ -> incr task_kills)
  | None -> ());
  (* late admissions land on a hot machine: under Critical+ pressure the
     admission governor sheds them with a typed reason *)
  let tenants =
    early_tenants
    @ List.init late (fun j -> admit_tenant (config.tenants - late + j))
  in
  (* latency samples, one per access of an admitted tenant: each array
     holds every access the storm can make, and its count those made *)
  let samples kind =
    let admitted = List.filter (fun tn -> tn.kind = kind && tn.region <> None) tenants in
    Array.make (List.length admitted * config.rounds * config.pages_per_tenant) 0
  in
  let honest_lat = samples Honest and honest_n = ref 0 in
  let greedy_lat = samples Greedy and greedy_n = ref 0 in
  (* per-tenant SLO books, indexed by tenant number *)
  let slo_samples = Array.make config.tenants 0 in
  let slo_violations = Array.make config.tenants 0 in
  let slo_worst_ns = Array.make config.tenants 0 in
  let slo_note index dt =
    slo_samples.(index) <- slo_samples.(index) + 1;
    if dt > config.slo_ns then slo_violations.(index) <- slo_violations.(index) + 1;
    if dt > slo_worst_ns.(index) then slo_worst_ns.(index) <- dt
  in
  let t0 = Kernel.now kernel in
  let faults0 = (Kernel.stats kernel).Kernel.faults in
  (* the storm proper: all tenants fault through their regions in
     page-interleaved round-robin, so every tenant is hot at once *)
  for round = 0 to config.rounds - 1 do
    (* from round 1 on, the hog re-faults its region mid-storm: by now
       the greedy tenants have ballooned, so the Emergency transitions
       it forces exercise kernel-directed seizure against them *)
    (if round > 0 then
       match hog_region with
       | Some region -> (
           try Kernel.touch_region kernel hog_task region ~write:false
           with Kernel.Task_terminated _ -> incr task_kills)
       | None -> ());
    let write = round land 1 = 1 in
    for page = 0 to config.pages_per_tenant - 1 do
      List.iter
        (fun tn ->
          match tn.region with
          | None -> ()
          | Some region ->
              if Task.alive tn.task then begin
                let vpn = region.Vm_map.start_vpn + page in
                let before = Kernel.now kernel in
                (try Kernel.access_vpn kernel tn.task ~vpn ~write
                 with Kernel.Task_terminated _ -> incr task_kills);
                let dt = Sim_time.to_ns (Sim_time.sub (Kernel.now kernel) before) in
                slo_note tn.index dt;
                (match tn.kind with
                | Honest ->
                    honest_lat.(!honest_n) <- dt;
                    incr honest_n
                | Greedy ->
                    greedy_lat.(!greedy_n) <- dt;
                    incr greedy_n
                | Erring -> ())
              end)
        tenants
    done
  done;
  Kernel.drain_io kernel;
  let elapsed = Sim_time.sub (Kernel.now kernel) t0 in
  Audit.stop auditor;
  ignore (Audit.sweep auditor);
  let stats = Frame_manager.stats manager in
  let total_faults = (Kernel.stats kernel).Kernel.faults - faults0 in
  let honest = Array.sub honest_lat 0 !honest_n and greedy = Array.sub greedy_lat 0 !greedy_n in
  let digest =
    match own_collector with
    | Some c ->
        let d = Hipec_trace.Trace.digest_hex (Hipec_trace.Trace.digest c) in
        ignore (Hipec_trace.Trace.stop ());
        d
    | None -> (
        match Hipec_trace.Trace.active () with
        | Some c -> Hipec_trace.Trace.digest_hex (Hipec_trace.Trace.digest c)
        | None -> "-")
  in
  let honest_alive =
    List.length
      (List.filter
         (fun tn -> tn.kind = Honest && tn.region <> None && Task.alive tn.task)
         tenants)
  in
  (* settle the SLO books: burn per tenant, the over-budget count and
     the worst-offender table (descending burn, ties to lower index) *)
  let burn_of i =
    if slo_samples.(i) = 0 then 0.
    else
      let rate = float_of_int slo_violations.(i) /. float_of_int slo_samples.(i) in
      if config.slo_budget > 0. then rate /. config.slo_budget
      else if rate > 0. then infinity
      else 0.
  in
  let offenders =
    List.filter_map
      (fun tn ->
        if slo_samples.(tn.index) = 0 then None
        else
          Some
            {
              o_index = tn.index;
              o_kind = tn.kind;
              o_samples = slo_samples.(tn.index);
              o_violations = slo_violations.(tn.index);
              o_burn = burn_of tn.index;
              o_worst_ns = slo_worst_ns.(tn.index);
            })
      tenants
  in
  let worst =
    List.sort
      (fun a b -> compare (b.o_burn, a.o_index) (a.o_burn, b.o_index))
      offenders
  in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  {
    elapsed;
    tenants = config.tenants;
    admitted = config.tenants - !shed;
    shed = !shed;
    honest_alive;
    task_kills = !task_kills;
    demotions = stats.Frame_manager.demotions;
    throttles_entered = stats.Frame_manager.throttles_entered;
    throttles_exited = stats.Frame_manager.throttles_exited;
    emergency_seizures = stats.Frame_manager.emergency_seizures;
    emergency_frames = stats.Frame_manager.emergency_frames;
    admissions_queued = stats.Frame_manager.admissions_queued;
    admissions_rejected = stats.Frame_manager.admissions_rejected;
    total_faults;
    faults_per_sec =
      (let s = Sim_time.to_sec_f elapsed in
       if s > 0. then float_of_int total_faults /. s else 0.);
    honest_samples = !honest_n;
    honest_p50_ns = percentile honest 0.50;
    honest_p99_ns = percentile honest 0.99;
    greedy_samples = !greedy_n;
    greedy_p99_ns = percentile greedy 0.99;
    slo_ns = config.slo_ns;
    slo_budget = config.slo_budget;
    slo_tracked = List.length offenders;
    slo_over_budget = List.length (List.filter (fun o -> o.o_burn > 1.) offenders);
    slo_violations = Array.fold_left ( + ) 0 slo_violations;
    slo_worst = take 5 (List.filter (fun o -> o.o_violations > 0) worst);
    pressure_changes =
      (match Kernel.pressure kernel with Some p -> Pressure.changes p | None -> 0);
    peak_level =
      Pressure.level_name
        (match Kernel.pressure kernel with Some p -> Pressure.peak p | None -> Pressure.Normal);
    final_level = Pressure.level_name (Kernel.pressure_level kernel);
    audit_sweeps = Audit.sweeps auditor;
    audit_violations = Audit.violations_found auditor;
    first_violation =
      Option.map (Format.asprintf "%a" Audit.pp_violation) (Audit.first_violation auditor);
    conservation_ok = Frame.Table.check_conservation (Kernel.frame_table kernel);
    digest;
    kstat = Kstat.to_string kernel;
  }

let pp_result fmt r =
  Format.fprintf fmt
    "@[<v>elapsed            %a@,\
     tenants            %d (%d admitted, %d shed, %d honest alive)@,\
     faults             %d (%.0f/s)@,\
     honest latency     p50 %d ns, p99 %d ns (%d samples)@,\
     greedy latency     p99 %d ns (%d samples)@,\
     slo                %d ns objective, %.1f%% budget: %d tracked, %d over budget, \
     %d violations@,"
    Sim_time.pp r.elapsed r.tenants r.admitted r.shed r.honest_alive r.total_faults
    r.faults_per_sec r.honest_p50_ns r.honest_p99_ns r.honest_samples r.greedy_p99_ns
    r.greedy_samples r.slo_ns
    (100. *. r.slo_budget)
    r.slo_tracked r.slo_over_budget r.slo_violations;
  List.iter
    (fun o ->
      Format.fprintf fmt "  t%04d %-6s       burn %5.2fx (%d/%d over, worst %d ns)@,"
        o.o_index (kind_name o.o_kind) o.o_burn o.o_violations o.o_samples o.o_worst_ns)
    r.slo_worst;
  Format.fprintf fmt
    "task kills         %d@,\
     demotions          %d@,\
     throttles          %d entered, %d exited@,\
     emergency seizure  %d events, %d frames@,\
     admissions         %d queued, %d rejected@,\
     pressure           %d changes, peak %s, final %s@,\
     auditor            %d sweeps, %d violations@,%a\
     conservation       %s@,\
     digest             %s@]"
    r.task_kills r.demotions r.throttles_entered r.throttles_exited
    r.emergency_seizures r.emergency_frames r.admissions_queued r.admissions_rejected
    r.pressure_changes r.peak_level r.final_level r.audit_sweeps r.audit_violations
    (fun fmt -> Option.iter (Format.fprintf fmt "first violation    %s@,"))
    r.first_violation
    (if r.conservation_ok then "ok" else "VIOLATED")
    r.digest
