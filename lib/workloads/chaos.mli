(** Chaos scenario: the paper's T3/F6-style workloads under fault
    injection.

    Three tasks share a deliberately small machine while the disk
    injects transient errors, latency spikes, and permanently bad swap
    blocks:

    - {b db} — a specific application streaming a mapped file under its
      own FIFO-second-chance policy (Table 3 with disk I/O);
    - {b runaway} — a hostile application whose [PageFault] policy
      spins forever; the security checker must {e demote} its region to
      the default pageout policy, never kill the task;
    - {b writer} — a default-pool task dirtying enough anonymous memory
      to force the pageout daemon to launder to (partly bad) swap.

    The kernel auditor sweeps throughout.  A healthy run finishes with
    zero task kills, at least one recorded demotion, zero audit
    violations, and nonzero — deterministic per seed — fault and retry
    counters. *)

open Hipec_sim

type config = {
  pages : int;  (** the db task's mapped file, in pages *)
  runaway_pages : int;
  writer_pages : int;
  total_frames : int;
  seed : int;
  transient_rate : float;  (** per-request transient error probability *)
  latency_spike_rate : float;
  bad_swap_blocks : int;  (** permanently bad blocks placed in the swap area *)
  audit_period : Sim_time.t;
}

val t3 : config
(** Full scale: the paper's 40 MB (10240-page) file on a 16 MB machine,
    1% transient error rate. *)

val smoke : config
(** Seconds-scale variant for CI. *)

type result = {
  elapsed : Sim_time.t;  (** total simulated time *)
  task_kills : int;  (** must be 0: faults and bad policies degrade, not kill *)
  demotions : int;
  demotion_reason : string option;  (** the runaway container's fate *)
  io_errors : int;
  io_retries : int;
  io_giveups : int;
  swap_remaps : int;
  faults_injected : int;
  bad_block_hits : int;
  latency_spikes : int;
  audit_sweeps : int;
  audit_violations : int;
  first_violation : string option;
      (** the first violation the auditor found, as [check: detail] *)
  kstat : string;  (** the full kernel counter report, for determinism checks *)
}

val run : ?faults:bool -> config -> result
(** Run the scenario.  [faults:false] runs the identical schedule on a
    clean disk — the baseline for {!degradation_percent}. *)

val degradation_percent : clean:result -> faulty:result -> float
(** Elapsed-time degradation of the faulty run over the clean one. *)

val pp_result : Format.formatter -> result -> unit
