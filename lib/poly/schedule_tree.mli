(** Schedule trees (Polly/isl style, specialised to single-dimensional
    bands).

    The execution order of every statement instance is encoded by the
    parent-child relation: a [Band] node is one loop dimension, [Seq]
    orders its children, [Stmt] is a leaf statement, [Mark] carries an
    optimiser annotation, and [Code] is an opaque escape hatch holding
    already-lowered IR (the offload pass replaces matched subtrees with
    [Code] nodes full of runtime calls). *)

module Ast = Tdo_lang.Ast

type band = { iter : string; lo : Affine.t; hi : Affine.t; step : int }

type stmt_info = {
  sid : int;  (** unique within a tree *)
  write : Access.t;
  op : Ast.assign_op;
  rhs : Ast.expr;
  reads : Access.t list;
}

type t =
  | Band of band * t
  | Seq of t list
  | Stmt of stmt_info
  | Mark of string * t
  | Code of Tdo_ir.Ir.stmt list

val pp : Format.formatter -> t -> unit

val stmts : t -> stmt_info list
(** All statement leaves, in execution order. *)

val stmts_with_context : t -> (band list * stmt_info) list
(** Each statement with its enclosing bands, outermost first. *)

val band_extent : band -> int option
(** Trip count when both bounds are constant and the band is
    normalised ([lo <= hi]); counts full steps. *)

val contains_code : t -> bool
