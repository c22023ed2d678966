(** The in-kernel security checker (paper §4.3.3).

    Two duties:

    - {b Static validation} at [vm_map_hipec] time: every command in the
      policy buffer must be well-formed — known opcode, operand indices
      of the right kind, jump targets in range, activated events
      defined, mandatory events present, no control path that runs off
      the end of an event, and every test command immediately followed
      by its else-branch [Jump] (the skip-next discipline of Table 2).

    - {b Timeout detection}: a kernel thread that wakes periodically,
      scans every container's execution timestamp, and demotes
      applications whose policy has been executing longer than the
      [TimeOut] period — the runaway policy is retired and its region
      falls back to the kernel's default pageout policy
      ({!Frame_manager.demote}); the application itself keeps running.
      The sleep interval adapts — halved when a timeout is found,
      doubled otherwise — clamped to [250 ms, 8 s] (the paper's WakeUp
      equation). *)

open Hipec_sim

(** {1 Static validation} *)

val validate : Program.t -> Operand.t -> (unit, string) result
(** Check every event's code against the operand array's declared
    kinds.  This is what makes loading a hostile buffer safe: the
    executor only ever runs validated programs. *)

val check_termination : Instr.t array -> (unit, string) result
(** One [validate] ingredient, exposed for direct testing: the last
    command must leave the event ([Return]) or branch away ([Jump]),
    and — independently of check ordering — a zero-length body is an
    error, never an out-of-bounds access. *)

(** {1 The checker thread} *)

type t

val create :
  ?timeout:Sim_time.t ->
  ?initial_wakeup:Sim_time.t ->
  kernel:Hipec_vm.Kernel.t ->
  manager:Frame_manager.t ->
  unit ->
  t
(** [timeout] (default 100 ms of policy execution) is the [TimeOut]
    period, set by a privileged user in the paper.  [initial_wakeup]
    defaults to 1 s. *)

val start : t -> unit
(** Schedule the periodic scan on the kernel's engine. *)

val stop : t -> unit

val scan_now : t -> int
(** One synchronous sweep (also what the periodic wakeup runs); returns
    the number of policies demoted. *)

val wakeup_interval : t -> Sim_time.t
(** Current adaptive sleep interval. *)

val min_wakeup : Sim_time.t
(** 250 ms. *)

val max_wakeup : Sim_time.t
(** 8 s. *)

val timeouts_detected : t -> int
val scans : t -> int
