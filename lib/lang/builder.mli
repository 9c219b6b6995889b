(** Combinators for constructing mini-C ASTs programmatically — the
    embedded-DSL alternative to parsing source text. Only tests use it:
    they generate random kernels with it and check that it builds what
    the parser builds. *)

open Ast

(** {1 Expressions} *)

val int : int -> expr
val float : float -> expr
val var : string -> expr
val idx : string -> expr list -> expr
val ( * ) : expr -> expr -> expr

(** {1 Statements} *)

val assign : string -> expr list -> expr -> stmt
(** [assign "C" [i; j] e] is [C\[i\]\[j\] = e]. *)

val add_assign : string -> expr list -> expr -> stmt
val mul_assign : string -> expr list -> expr -> stmt

val for_ : string -> ?lo:expr -> ?step:int -> expr -> stmt list -> stmt
(** [for_ "i" hi body] is [for (int i = 0; i < hi; i++) body]. *)

(** {1 Functions} *)

val scalar : typ -> string -> param
val array : string -> int list -> param
val func : ?ret:typ -> string -> param list -> stmt list -> func
(** Builds and type-checks the function; raises
    {!Typecheck.Type_error} on an ill-typed construction. *)
