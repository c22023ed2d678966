(** HiPEC policy programs: per-event command sequences plus the binary
    command-buffer image.

    The buffer image is what lives (wired, read-only) in the user's
    address space: for each event, a magic word followed by the encoded
    commands (exactly the layout of the paper's Table 2 listings). *)

type t

val magic : int32
(** The "HiPEC Magic No" heading each event's command block. *)

val make : (int * Instr.t array) list -> t
(** [make [(event, code); ...]].  Raises [Invalid_argument] on a
    duplicate or negative event number or an empty code block.  No
    semantic validation happens here — that is {!Checker.validate}'s
    job, mirroring the paper's split between loading a buffer and the
    security checker vetting it. *)

val events : t -> int list
(** Ascending. *)

val code : t -> event:int -> Instr.t array option

val code_or_empty : t -> event:int -> Instr.t array
(** [code] without the option: the empty array when [event] is
    undefined (a defined event's code is never empty).  Allocates
    nothing, for the executor's per-run lookup. *)

val has_event : t -> event:int -> bool

val total_commands : t -> int

(** {1 Binary image} *)

val to_image : t -> (int * int32 array) list
(** Per event: magic word at CC 0, then the commands. *)

val of_image : (int * int32 array) list -> (t, string) result
(** Checks the magic word and decodes every command. *)

val to_bytes : t -> bytes
(** Serialize the whole command buffer to the on-disk/in-memory wire
    format: a file magic, the event count, then per event its number,
    length and big-endian command words (each block headed by the
    {!magic} word, as in the user's wired buffer). *)

val of_bytes : bytes -> (t, string) result
(** Parse {!to_bytes} output; validates both magics, bounds and
    every command word. *)

val pp : Format.formatter -> t -> unit
(** Disassembly listing of every event, Table 2 style: command counter,
    hex bytes, mnemonic. *)

(** Symbolic assembly with labels, resolving to command counters — the
    layer the policy library and the pseudo-code translator emit. *)
module Asm : sig
  type item =
    | Label of string  (** marks the next instruction's position *)
    | Op of Instr.t
    | Jump_to of string  (** [Jump] to a label *)

  val assemble : item list -> (Instr.t array, string) result
  (** Errors on undefined or duplicate labels or an empty body. *)
end
