(** Affine (linear + constant) integer expressions over loop iterators.

    The restricted polyhedral model of this flow: array subscripts and
    loop bounds must be affine for a region to become a SCoP, exactly
    as in Polly. *)

module Ast = Tdo_lang.Ast

type t
(** Canonical form: sorted variable terms with non-zero coefficients
    plus a constant. *)

val const : int -> t
val var : string -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : int -> t -> t

val of_expr : Ast.expr -> t option
(** Affine interpretation of an integer AST expression: literals,
    variables, [+], [-], unary minus, and multiplication where at least
    one side is constant. [None] for anything else (e.g. [i*j]). *)

val to_expr : t -> Ast.expr
(** Lower back to an AST expression (canonical sum form). *)

val coeff : t -> string -> int
val constant : t -> int
val vars : t -> string list
(** Sorted names with non-zero coefficients. *)

val is_constant : t -> int option
val equal : t -> t -> bool

val range : extents:(string * (int * int)) list -> t -> (int * int) option
(** Least and greatest value of the form when each variable [v] ranges
    over the inclusive interval [List.assoc v extents]; [None] when a
    variable has no extent. *)

val subst : t -> string -> t -> t
(** [subst f x g] replaces [x] by [g] in [f]. *)

val pp : Format.formatter -> t -> unit
