(** Static checks over the mini-C AST: scoping, array ranks, index and
    bound types, assignment type agreement. *)

exception Type_error of string

val check_func : Ast.func -> unit
(** Raises {!Type_error} with a readable message on the first
    violation. *)
