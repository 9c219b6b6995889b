(** Recursive-descent parser for the mini-C front end. *)

exception Parse_error of { line : int; message : string }

val parse_func : string -> Ast.func
(** Parse a single function definition (convenience for tests and
    kernels). Raises if the source does not contain exactly one
    function. *)
