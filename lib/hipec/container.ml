open Hipec_sim
open Hipec_vm

type state =
  | Active
  | Throttled of { since : Sim_time.t; until : Sim_time.t; fuel : int }
  | Degraded of { reason : string; at : Sim_time.t }

type code = ..
type code += No_code

type t = {
  id : int;
  task : Task.t;
  obj : Vm_object.t;
  region : Vm_map.region;
  program : Program.t;
  operands : Operand.t;
  queues : Operand.std_queues;
  min_frames : int;
  mutable frames_held : int;
  mutable admitted : bool;
  (* split representation so the fault hot path can mark a run
     started/stopped without allocating a [Some] per fault; the option
     view is rebuilt on demand for the checker *)
  mutable executing : bool;
  mutable execution_started_at : Sim_time.t;
  mutable timed_out : bool;
  mutable state : state;
  mutable events_run : int;
  mutable commands_interpreted : int;
  (* fuel ledger: commands burned inside the current accounting window,
     maintained by the frame manager when fuel quotas are engaged *)
  mutable fuel_window_start : Sim_time.t;
  mutable fuel_used : int;
  mutable throttles : int;
  mutable cooldown_level : int;
  mutable code : code;
}

let next_id = ref 0

let create ~task ~obj ~region ~program ~operands ~queues ~min_frames () =
  incr next_id;
  {
    id = !next_id;
    task;
    obj;
    region;
    program;
    operands;
    queues;
    min_frames;
    frames_held = 0;
    admitted = false;
    executing = false;
    execution_started_at = Sim_time.zero;
    timed_out = false;
    state = Active;
    events_run = 0;
    commands_interpreted = 0;
    fuel_window_start = Sim_time.zero;
    fuel_used = 0;
    throttles = 0;
    cooldown_level = 0;
    code = No_code;
  }

let id t = t.id
let task t = t.task
let obj t = t.obj
let region t = t.region
let program t = t.program
let code t = t.code
let set_code t c = t.code <- c
let operands t = t.operands
let free_queue t = t.queues.Operand.free
let active_queue t = t.queues.Operand.active
let inactive_queue t = t.queues.Operand.inactive
let min_frames t = t.min_frames
let frames_held t = t.frames_held
let add_frames t n = t.frames_held <- t.frames_held + n

let remove_frames t n =
  if n > t.frames_held then invalid_arg "Container.remove_frames: negative balance";
  t.frames_held <- t.frames_held - n

let admitted t = t.admitted
let set_admitted t v = t.admitted <- v
let resident_pages t = Vm_object.resident_count t.obj
let executing t = t.executing
let execution_started t = if t.executing then Some t.execution_started_at else None

let start_execution t ~at =
  t.executing <- true;
  t.execution_started_at <- at

let stop_execution t = t.executing <- false

let set_execution_started t = function
  | None -> t.executing <- false
  | Some at -> start_execution t ~at
let timed_out t = t.timed_out
let set_timed_out t = t.timed_out <- true
let state t = t.state
let degraded t = match t.state with Degraded _ -> true | Active | Throttled _ -> false
let throttled t = match t.state with Throttled _ -> true | Active | Degraded _ -> false

let throttled_until t =
  match t.state with Throttled { until; _ } -> Some until | Active | Degraded _ -> None

let degraded_reason t =
  match t.state with
  | Degraded { reason; _ } -> Some reason
  | Active | Throttled _ -> None

let set_degraded t ~reason ~at =
  match t.state with
  | Degraded _ -> ()  (* first demotion wins *)
  (* demotion is permanent and wins over a temporary throttle *)
  | Active | Throttled _ -> t.state <- Degraded { reason; at }

let set_throttled t ~since ~until =
  match t.state with
  | Active ->
      t.state <- Throttled { since; until; fuel = t.fuel_used };
      t.throttles <- t.throttles + 1
  | Throttled _ | Degraded _ -> ()

let clear_throttled t =
  match t.state with
  | Throttled _ -> t.state <- Active
  | Active | Degraded _ -> ()
let events_run t = t.events_run
let count_event_run t = t.events_run <- t.events_run + 1
let commands_interpreted t = t.commands_interpreted
let count_command t =
  let n = t.commands_interpreted + 1 in
  t.commands_interpreted <- n;
  n

let fuel_window_start t = t.fuel_window_start
let fuel_used t = t.fuel_used
let throttles t = t.throttles
let cooldown_level t = t.cooldown_level
let set_cooldown_level t v = t.cooldown_level <- max 0 v

let reset_fuel_window t ~at =
  t.fuel_window_start <- at;
  t.fuel_used <- 0

let burn_fuel t n = t.fuel_used <- t.fuel_used + n

let pp fmt t =
  Format.fprintf fmt "container#%d(task=%s,frames=%d,min=%d%s%s)" t.id (Task.name t.task)
    t.frames_held t.min_frames
    (if t.timed_out then ",TIMED-OUT" else "")
    (match t.state with
    | Degraded _ -> ",DEGRADED"
    | Throttled _ -> ",THROTTLED"
    | Active -> "")
