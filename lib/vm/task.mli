(** Tasks: an address space plus accounting, the unit the kernel
    schedules and (when a HiPEC policy misbehaves) terminates. *)

open Hipec_machine
open Hipec_sim

type t

val create : ?name:string -> unit -> t
val id : t -> int
val name : t -> string
val pmap : t -> Pmap.t
val vm_map : t -> Vm_map.t

val of_pmap : Pmap.t -> t
(** The task a pmap belongs to; raises [Not_found] for a pmap no task
    made. *)

val alive : t -> bool
val kill : t -> reason:string -> unit
val death_reason : t -> string option

(** {1 Accounting} *)

val faults : t -> int
val count_fault : t -> unit
val pageins : t -> int
val count_pagein : t -> unit
val pageouts : t -> int
val count_pageout : t -> unit
val zero_fills : t -> int
val count_zero_fill : t -> unit

val cpu_time : t -> Sim_time.t
val charge_cpu : t -> Sim_time.t -> unit

val pp : Format.formatter -> t -> unit
