(** Abstract syntax of the mini-C input language.

    The subset covers exactly what the paper's flow consumes: affine
    [for] loop nests over multi-dimensional [float] arrays with scalar
    parameters — every PolyBench/C kernel of the evaluation is
    expressible verbatim (modulo the PolyBench macro boilerplate). *)

type typ = Tvoid | Tfloat | Tint

type binop = Add | Sub | Mul | Div

type expr =
  | Int_lit of int
  | Float_lit of float
  | Var of string
  | Index of string * expr list  (** [A\[i\]\[j\]] *)
  | Binop of binop * expr * expr
  | Neg of expr

type assign_op = Set  (** [=] *) | Add_assign  (** [+=] *) | Sub_assign | Mul_assign

type lvalue = { base : string; indices : expr list }

type stmt =
  | For of { var : string; lo : expr; hi : expr; step : int; body : stmt list }
      (** [for (int var = lo; var < hi; var += step) body] *)
  | Assign of { lhs : lvalue; op : assign_op; rhs : expr }
  | Decl_scalar of { name : string; typ : typ; init : expr option }
  | Decl_array of { name : string; dims : int list }
  | Block of stmt list

type param = { pname : string; ptyp : typ; dims : int list  (** [] for scalars *) }

type func = { fname : string; ret : typ; params : param list; body : stmt list }

type program = func list

val pp_expr : Format.formatter -> expr -> unit
val pp_stmt : Format.formatter -> stmt -> unit
val pp_func : Format.formatter -> func -> unit

val expr_equal : expr -> expr -> bool
(** Structural equality. *)

val structural_digest : func -> string
(** Hex digest of the function's structure alone — identifiers, bounds,
    operators — with the concrete syntax already erased by the parser.
    Two sources that parse to the same AST share a digest; any semantic
    change (a bound, a loop body, an array shape) changes it. The key
    space shared by the serving layer's compiled-kernel cache
    ({!Tdo_serve.Kernel_cache}) and the autotuner's configuration
    database ({!Tdo_tune.Db}). *)
