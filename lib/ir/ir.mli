(** Mid-level intermediate representation.

    The IR keeps the loop structure of the source first-class (the
    information Polly recovers from LLVM-IR) and adds what the source
    language does not have: region-of-interest markers and calls into
    the CIM runtime library — the [polly_cim*] calls of Listing 1 that
    the offload pass inserts. Expressions are shared with the AST. *)

module Ast = Tdo_lang.Ast

type pin = Pin_a | Pin_b

type mat_ref = {
  array : string;  (** host array the operand lives in *)
  row_off : Ast.expr;  (** physical element offsets into that array *)
  col_off : Ast.expr;
  rows : int;  (** operand extent (constant at compile time) *)
  cols : int;
  trans : bool;  (** operand is op(M) = M^T *)
}

and call =
  | Cim_init
  | Cim_alloc of { array : string }
  | Cim_h2d of { array : string }
  | Cim_d2h of { array : string }
  | Cim_free of { array : string }
  | Cim_gemm of {
      m : int;
      n : int;
      k : int;
      alpha : Ast.expr;
      beta : Ast.expr;
      a : mat_ref;
      b : mat_ref;
      c : mat_ref;
      pin : pin;
    }
  | Cim_gemm_batched of {
      m : int;
      n : int;
      k : int;
      alpha : Ast.expr;
      beta : Ast.expr;
      batch : (mat_ref * mat_ref * mat_ref) list;
      pin : pin;
    }
  | Cim_im2col of { src : string; dst : string; kh : int; kw : int; oh : int; ow : int }
      (** device-side patch gathering: [dst(i*ow+j, p*kw+q) = src(i+p, j+q)] *)

type stmt =
  | For of { var : string; lo : Ast.expr; hi : Ast.expr; step : int; body : stmt list }
  | Assign of { lhs : Ast.lvalue; op : Ast.assign_op; rhs : Ast.expr }
  | Decl_scalar of { name : string; typ : Ast.typ; init : Ast.expr option }
  | Decl_array of { name : string; dims : int list }
  | Call of call
  | Roi_begin
  | Roi_end

type func = { name : string; params : Ast.param list; body : stmt list }

val mat_ref_whole : array:string -> rows:int -> cols:int -> ?trans:bool -> unit -> mat_ref
(** Reference covering a whole 2-D array (zero offsets). *)

val pp_func : Format.formatter -> func -> unit
(** Pretty-prints runtime calls with their [polly_cim*] names, so the
    output of the offload pass reads like Listing 1 of the paper. *)

val contains_cim_calls : func -> bool
