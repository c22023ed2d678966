open Hipec_sim
open Hipec_machine
open Hipec_vm

type t = {
  kernel : Kernel.t;
  manager : Frame_manager.t;
  checker : Checker.t;
  buffers : Vm_map.region Int_table.t;  (* container id -> command buffer *)
}

let init ?burst_fraction ?max_steps ?checker_timeout ?checker_wakeup
    ?(start_checker = true) kernel =
  let manager = Frame_manager.create ~kernel ?burst_fraction ?max_steps () in
  let checker =
    Checker.create ?timeout:checker_timeout ?initial_wakeup:checker_wakeup ~kernel ~manager
      ()
  in
  if start_checker then Checker.start checker;
  { kernel; manager; checker; buffers = Int_table.create 16 }

let kernel t = t.kernel
let manager t = t.manager
let checker t = t.checker

(* One-call overload protection: engage the kernel's pressure controller,
   subscribe the frame manager (emergency seizure, admission draining)
   and arm the per-tenant fuel ledger.  The default quota extends the
   executor's per-run step budget into the window: a tenant may burn up
   to four full runs' worth of commands per window before throttling. *)
let enable_overload ?fuel_quota ?fuel_window ?fuel_cooldown t =
  ignore (Kernel.enable_pressure t.kernel);
  Frame_manager.attach_pressure t.manager;
  let quota =
    match fuel_quota with
    | Some q -> q
    | None -> 4 * Executor.max_steps (Frame_manager.executor t.manager)
  in
  Frame_manager.set_fuel_policy ~quota ?window:fuel_window ?cooldown:fuel_cooldown
    t.manager

type spec = {
  policy : Program.t;
  min_frames : int;
  free_target : int option;
  inactive_target : int option;
  reserved_target : int option;
  extra_operands : (int * Operand.value) list;
}

let default_spec ~policy ~min_frames =
  {
    policy;
    min_frames;
    free_target = None;
    inactive_target = None;
    reserved_target = None;
    extra_operands = [];
  }

(* The wired, read-only user area holding the policy's command words
   (paper §4.1): writing into it terminates the application. *)
let install_command_buffer t task container =
  let words =
    List.fold_left (fun acc (_, ws) -> acc + Array.length ws) 0
      (Program.to_image (Container.program container))
  in
  let npages = max 1 ((words * 4 + Frame.page_size - 1) / Frame.page_size) in
  let region = Kernel.vm_allocate t.kernel task ~npages in
  Kernel.wire_region t.kernel task region;
  region.Vm_map.command_buffer <- true;
  Kernel.protect_region t.kernel task region ~prot:Pmap.Read_only;
  Int_table.replace t.buffers (Container.id container) region

let command_buffer_region t container = Int_table.find_opt t.buffers (Container.id container)
let demotion_reason _t container = Container.degraded_reason container

let build_operands spec =
  let ops = Operand.create () in
  let min = spec.min_frames in
  let queues =
    Operand.install_std ops ~name:"hipec"
      ~free_target:(Option.value spec.free_target ~default:(max 4 (min / 16)))
      ~inactive_target:(Option.value spec.inactive_target ~default:(max 8 (min / 4)))
      ~reserved_target:(Option.value spec.reserved_target ~default:2)
  in
  let rec add_extras = function
    | [] -> Ok ()
    | (ix, value) :: rest ->
        if ix < Operand.Std.first_user || ix >= Operand.size then
          Error
            (Printf.sprintf "operand %d outside user range %d..%d" ix
               Operand.Std.first_user (Operand.size - 1))
        else if Operand.get ops ix <> None then
          Error (Printf.sprintf "operand %d declared twice" ix)
        else begin
          Operand.set ops ix value;
          add_extras rest
        end
  in
  match add_extras spec.extra_operands with
  | Error _ as e -> e
  | Ok () -> Ok (ops, queues)

(* Wire the kernel's fault path to the policy executor. *)
let install_hook t container =
  let manager = t.manager in
  let region = Container.region container in
  let on_fault ~task ~obj:_ ~offset ~write:_ =
    let fault_va =
      Pmap.va_of_vpn (region.Vm_map.start_vpn + (offset - region.Vm_map.obj_offset))
    in
    match Frame_manager.page_fault manager container ~fault_va with
    | Ok page -> Kernel.Grant_page page
    | Error reason ->
        (* A policy stuck over its step budget is demoted by the
           security checker, not by the fault path: block until the
           checker's next sweep retires it.  Either way the region falls
           back to the default pageout policy and the kernel resolves
           this fault there — the task survives. *)
        if Container.executing container then begin
          let engine = Kernel.engine t.kernel in
          let rec wait () =
            if
              Task.alive task
              && (not (Container.degraded container))
              && Engine.has_events engine
            then if Engine.step_any engine then wait ()
          in
          wait ()
        end;
        if not (Container.degraded container) then
          Frame_manager.demote manager container ~reason:("HiPEC policy error: " ^ reason);
        Kernel.Fallback
          (Option.value (Container.degraded_reason container) ~default:reason)
  in
  let on_resolved ~task:_ ~page =
    Engine.advance (Kernel.engine t.kernel)
      (Kernel.costs t.kernel).Costs.hipec_frame_bookkeeping;
    (* event ABI: the freshly resident page joins the active queue *)
    Page_queue.enqueue_tail (Container.active_queue container) page
  in
  let on_task_terminated ~task =
    if Task.id task = Task.id (Container.task container) then begin
      Frame_manager.remove_container manager container ~flush_dirty:false;
      Int_table.remove t.buffers (Container.id container)
    end
  in
  Kernel.set_manager t.kernel (Container.obj container)
    { Kernel.on_fault; on_resolved; on_task_terminated }

let hipec_region_of_spec t task region spec =
  let fail msg =
    Vm_map.remove (Task.vm_map task) region;
    Error msg
  in
  match build_operands spec with
  | Error msg -> fail msg
  | Ok (operands, queues) -> (
      (* static security check before anything is interpreted *)
      match Checker.validate spec.policy operands with
      | Error msg -> fail ("security checker rejected policy: " ^ msg)
      | Ok () -> (
          let container =
            Container.create ~task ~obj:region.Vm_map.obj ~region ~program:spec.policy
              ~operands ~queues ~min_frames:spec.min_frames ()
          in
          match Frame_manager.admit t.manager container with
          | Error e -> fail (Frame_manager.admission_error_message e)
          | Ok () ->
              (* decode-once: under the compiled backend the container
                 is bound here, at install time, to its program's
                 closures (compiled now if no container installed the
                 program before), so no fault ever pays the decode cost *)
              Executor.precompile (Frame_manager.executor t.manager) container;
              install_command_buffer t task container;
              install_hook t container;
              Ok (region, container)))

let vm_allocate_hipec t task ~npages spec =
  Kernel.null_syscall t.kernel;
  hipec_region_of_spec t task (Kernel.vm_allocate t.kernel task ~npages) spec

let vm_map_hipec t task ?name ~npages spec =
  Kernel.null_syscall t.kernel;
  let name = Option.value name ~default:"hipec-mapped-file" in
  hipec_region_of_spec t task (Kernel.vm_map_file t.kernel task ~name ~npages ()) spec

let vm_map_object_hipec t task ~obj spec =
  Kernel.null_syscall t.kernel;
  if Kernel.managed t.kernel obj then
    Error (Printf.sprintf "object %s is already under HiPEC control" (Vm_object.name obj))
  else
    let region =
      Kernel.vm_map_object t.kernel task ~obj ~obj_offset:0
        ~npages:(Vm_object.size_pages obj) ~prot:Pmap.Read_write
    in
    hipec_region_of_spec t task region spec

let migrate_frames t ~src ~dst ~n =
  Kernel.null_syscall t.kernel;
  Frame_manager.migrate t.manager ~src ~dst ~n

let vm_deallocate_hipec t task container =
  Kernel.null_syscall t.kernel;
  Frame_manager.remove_container t.manager container ~flush_dirty:true;
  (match command_buffer_region t container with
  | Some buffer ->
      buffer.Vm_map.command_buffer <- false;
      Kernel.vm_deallocate t.kernel task buffer;
      Int_table.remove t.buffers (Container.id container)
  | None -> ());
  let region = Container.region container in
  if List.memq region (Vm_map.regions (Task.vm_map task)) then
    Kernel.vm_deallocate t.kernel task region
