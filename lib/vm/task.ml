open Hipec_machine
open Hipec_sim

type t = {
  id : int;
  name : string;
  pmap : Pmap.t;
  vm_map : Vm_map.t;
  mutable death_reason : string option;
  mutable faults : int;
  mutable pageins : int;
  mutable pageouts : int;
  mutable zero_fills : int;
  mutable cpu_time : Sim_time.t;
}

type Pmap.owner += Pmap_of of t

let next_id = ref 0

let create ?name () =
  incr next_id;
  let name = match name with Some n -> n | None -> Printf.sprintf "task-%d" !next_id in
  let t =
    {
      id = !next_id;
      name;
      pmap = Pmap.create ();
      vm_map = Vm_map.create ();
      death_reason = None;
      faults = 0;
      pageins = 0;
      pageouts = 0;
      zero_fills = 0;
      cpu_time = Sim_time.zero;
    }
  in
  Pmap.set_owner t.pmap (Pmap_of t);
  t

let of_pmap pmap = match Pmap.owner pmap with Pmap_of t -> t | _ -> raise Not_found

let id t = t.id
let name t = t.name
let pmap t = t.pmap
let vm_map t = t.vm_map
let alive t = t.death_reason = None

let kill t ~reason = if alive t then t.death_reason <- Some reason

let death_reason t = t.death_reason
let faults t = t.faults
let count_fault t = t.faults <- t.faults + 1
let pageins t = t.pageins
let count_pagein t = t.pageins <- t.pageins + 1
let pageouts t = t.pageouts
let count_pageout t = t.pageouts <- t.pageouts + 1
let zero_fills t = t.zero_fills
let count_zero_fill t = t.zero_fills <- t.zero_fills + 1
let cpu_time t = t.cpu_time
let charge_cpu t d = t.cpu_time <- Sim_time.add t.cpu_time d

let pp fmt t =
  Format.fprintf fmt "%s(#%d,%s,faults=%d)" t.name t.id
    (match t.death_reason with None -> "alive" | Some r -> "dead:" ^ r)
    t.faults
