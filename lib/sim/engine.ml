type handle = { mutable cancelled : bool; daemon : bool }

type event = { fire : t -> unit; token : handle }

and t = {
  mutable clock : Sim_time.t;
  queue : event Event_queue.t;
  mutable live : int;  (* non-daemon, not cancelled *)
  mutable live_daemon : int;
  mutable stopping : bool;
}

let create () =
  {
    clock = Sim_time.zero;
    queue = Event_queue.create ();
    live = 0;
    live_daemon = 0;
    stopping = false;
  }

let now t = t.clock
let advance t d = t.clock <- Sim_time.add t.clock d

let schedule_at t ?(daemon = false) ~at fire =
  if Sim_time.(at < t.clock) then invalid_arg "Engine.schedule_at: time in the past";
  let token = { cancelled = false; daemon } in
  Event_queue.add t.queue ~time:at { fire; token };
  if daemon then t.live_daemon <- t.live_daemon + 1 else t.live <- t.live + 1;
  token

let schedule t ?daemon ~after fire =
  schedule_at t ?daemon ~at:(Sim_time.add t.clock after) fire

let cancel t handle =
  if not handle.cancelled then begin
    handle.cancelled <- true;
    if handle.daemon then t.live_daemon <- t.live_daemon - 1
    else t.live <- t.live - 1
  end

let pending t = t.live
let has_events t = t.live + t.live_daemon > 0

(* Pop the earliest event and run it unless it was cancelled.  Reads the
   time and the payload separately so that nothing is allocated. *)
let fire_next t =
  if Event_queue.is_empty t.queue then false
  else begin
    let time = Event_queue.min_time t.queue in
    let { fire; token } = Event_queue.take t.queue in
    if token.cancelled then false
    else begin
      if token.daemon then t.live_daemon <- t.live_daemon - 1 else t.live <- t.live - 1;
      (* an [advance] inside a previous event may have pushed the clock
         past this event's timestamp; the clock never moves backward *)
      if Sim_time.(time > t.clock) then t.clock <- time;
      fire t;
      true
    end
  end

(* Run the earliest event; with [daemons_too=false] stop once no live
   non-daemon event remains. *)
let rec step_gen t ~daemons_too =
  if (not daemons_too) && t.live = 0 then false
  else if not (has_events t) then false
  else if fire_next t then true
  else step_gen t ~daemons_too

let step t = step_gen t ~daemons_too:false
let step_any t = step_gen t ~daemons_too:true

(* The run loops are top-level so that a call builds no closure:
   [Kernel.charge] calls [run_until] on every synchronous cost. *)
let rec run_loop t = if (not t.stopping) && step t then run_loop t

let run t =
  t.stopping <- false;
  run_loop t

(* fires the earliest event (skipping it when cancelled) while it is
   due by [limit] *)
let rec run_until_loop t limit =
  if
    (not t.stopping)
    && (not (Event_queue.is_empty t.queue))
    && Sim_time.(Event_queue.min_time t.queue <= limit)
  then begin
    ignore (fire_next t);
    run_until_loop t limit
  end

let run_until t limit =
  t.stopping <- false;
  run_until_loop t limit;
  if Sim_time.(t.clock < limit) then t.clock <- limit

let stop t = t.stopping <- true
