(** Peephole optimization of compiled HiPEC command streams.

    Every interpreted command costs a fetch+decode, so shorter programs
    are faster policies.  Passes (run to a fixed point):

    - {b jump threading}: a [Jump] whose target is another [Jump]
      branches straight to the final destination;
    - {b jump-to-next elimination}: a [Jump] to the immediately
      following command is dropped — unless it is the else-branch of a
      test (the skip-next discipline needs it);
    - {b dead-code elimination}: commands unreachable from CC 0 are
      removed (and every jump target re-pointed);
    - {b dead-branch elimination}: a [Comp] the bare-code abstract
      interpreter ({!Hipec_core.Analysis.Code}) proves always-true
      drops together with its else-branch [Jump]; one proved
      always-false drops alone, leaving the [Jump] as the
      unconditional continuation.  Only facts independent of
      install-time operand values are used, so the rewrite is sound
      for every container the program could be installed into.

    Semantics are preserved exactly: the optimizer never touches the
    test/else-Jump pairing required by {!Hipec_core.Checker.validate}. *)

open Hipec_core

val optimize_code : Instr.t array -> Instr.t array
(** One event's command block. *)

val optimize : Program.t -> Program.t
(** Every event of a program. *)

val savings : before:Program.t -> after:Program.t -> int * int
(** [(commands_before, commands_after)]. *)
