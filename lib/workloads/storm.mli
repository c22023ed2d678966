(** The multi-tenant storm scenario: overload protection under fire.

    Hundreds to thousands of specific applications fault concurrently —
    most running the honest FIFO-second-chance policy, a deterministic
    slice running a greedy frame-hogging policy, and another slice an
    erring (runaway) policy the security checker must demote — while
    the disk injects transient errors and latency spikes.  With
    [overload] set, the full protection stack is engaged: memory
    pressure levels drive pageout urgency and admission shedding, the
    per-tenant fuel ledger throttles over-quota policies, and Emergency
    pressure triggers kernel-directed seizure.  The kernel auditor
    (with the frame manager's isolation checks registered) sweeps the
    whole time.

    Everything is deterministic: the same config produces the same trace
    digest, under either executor backend. *)

open Hipec_sim

type kind = Honest | Greedy | Erring

val kind_name : kind -> string

type config = {
  tenants : int;
  pages_per_tenant : int;
  min_frames : int;  (** per-tenant [minFrame] admission request *)
  total_frames : int;
  rounds : int;  (** full passes over every tenant's region *)
  seed : int;
  greedy_every : int;
      (** tenant [i] is greedy when [i mod greedy_every = 3 mod greedy_every];
          0 disables greedy tenants (the isolation baseline) *)
  erring_every : int;
      (** erring when [i mod erring_every = 7 mod erring_every]; 0 disables *)
  hog_pages : int;
      (** a default-pool writer this many pages large runs between the
          early and late admission waves, draining the free pool so the
          pressure ladder engages; 0 disables *)
  late_tenants : int;
      (** this many tenants are admitted only after the hog has run —
          on a hot machine the admission governor sheds them.  At most
          [tenants - 1]: the first tenant always comes early *)
  transient_rate : float;
  latency_spike_rate : float;
  bad_swap_blocks : int;
  audit_period : Sim_time.t;
  max_steps : int;  (** per-run policy step budget *)
  overload : bool;  (** engage {!Hipec_core.Api.enable_overload} *)
  fuel_quota : int option;  (** commands per window; [None] = executor-derived default *)
  fuel_window : Sim_time.t;
  fuel_cooldown : Sim_time.t;
  slo_ns : int;  (** per-access latency objective *)
  slo_budget : float;
      (** the error budget: the fraction of a tenant's accesses allowed
          over the objective before it counts as out of budget *)
}

val smoke : config
(** 100 tenants (10% greedy, 5% erring) on a 1.5k-frame machine. *)

val full : config
(** 1000 tenants on a 12k-frame machine — the acceptance scenario. *)

val kind_of : config -> int -> kind

(** One tenant's SLO ledger: [o_burn] is error-budget burn — the
    violating fraction of its accesses divided by [slo_budget], so
    burn > 1 means the tenant blew its budget. *)
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
  shed : int;  (** admissions rejected by the governor or by memory *)
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
  faults_per_sec : float;  (** per simulated second *)
  honest_samples : int;
  honest_p50_ns : int;
  honest_p99_ns : int;  (** p99 access latency across all honest tenants *)
  greedy_samples : int;
  greedy_p99_ns : int;
  slo_ns : int;
  slo_budget : float;
  slo_tracked : int;  (** tenants with at least one timed access *)
  slo_over_budget : int;  (** tenants whose burn exceeds 1 *)
  slo_violations : int;  (** accesses over the objective, all tenants *)
  slo_worst : offender list;  (** descending burn, top 5, violators only *)
  pressure_changes : int;
  peak_level : string;  (** the highest level a pressure transition reached *)
  final_level : string;
  audit_sweeps : int;
  audit_violations : int;
  first_violation : string option;
      (** the first violation the auditor found, as [check: detail] *)
  conservation_ok : bool;  (** frame-table conservation at the end *)
  digest : string;  (** trace digest — the determinism witness *)
  kstat : string;
}

val percentile : int array -> float -> int
(** Nearest-rank percentile ([p] in 0..1); 0 on an empty array. *)

val run : config -> result

val pp_result : Format.formatter -> result -> unit
