(** The Loop Tactics pass pipeline, as it sits inside Polly in Fig. 4:
    SCoP detection -> schedule-tree matching and rewriting -> AST/IR
    regeneration — with an optional LLVM-style verify-after-each-pass
    mode backed by {!Tdo_analysis}. *)

module Diag = Tdo_analysis.Diag

type outcome =
  | Offloaded of Offload.report  (** the pipeline ran (it may still have offloaded nothing) *)
  | Not_scop of string
      (** detection obstruction; [func] is the input unchanged and the
          host path is used, as Polly does *)
  | Rejected of Diag.t list
      (** verification found errors; the {e original} function is
          returned — a miscompiled region never reaches execution *)

type checked = {
  func : Tdo_ir.Ir.func;
  outcome : outcome;
  diagnostics : Diag.t list;
      (** every diagnostic the checkers produced, warnings and notes
          included; empty when [verify] was off *)
}

val run_checked : ?config:Offload.config -> ?verify:bool -> Tdo_ir.Ir.func -> checked
(** [verify] (default off) checks the input IR and the detected
    schedule tree with {!Tdo_analysis.Verify}, validates every
    intermediate rewrite and the final offload rewrite with
    {!Tdo_analysis.Legality}, proves accesses in bounds with
    {!Tdo_analysis.Bounds}, and re-verifies the regenerated IR. Each
    diagnostic is prefixed with the pipeline stage that produced it. *)
