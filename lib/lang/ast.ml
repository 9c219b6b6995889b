type typ = Tvoid | Tfloat | Tint

type binop = Add | Sub | Mul | Div

type expr =
  | Int_lit of int
  | Float_lit of float
  | Var of string
  | Index of string * expr list
  | Binop of binop * expr * expr
  | Neg of expr

type assign_op = Set | Add_assign | Sub_assign | Mul_assign

type lvalue = { base : string; indices : expr list }

type stmt =
  | For of { var : string; lo : expr; hi : expr; step : int; body : stmt list }
  | Assign of { lhs : lvalue; op : assign_op; rhs : expr }
  | Decl_scalar of { name : string; typ : typ; init : expr option }
  | Decl_array of { name : string; dims : int list }
  | Block of stmt list

type param = { pname : string; ptyp : typ; dims : int list }

type func = { fname : string; ret : typ; params : param list; body : stmt list }

type program = func list

let binop_to_string = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

let rec pp_expr ppf = function
  | Int_lit n -> Format.fprintf ppf "%d" n
  | Float_lit f -> Format.fprintf ppf "%g" f
  | Var v -> Format.fprintf ppf "%s" v
  | Index (base, idx) ->
      Format.fprintf ppf "%s" base;
      List.iter (fun e -> Format.fprintf ppf "[%a]" pp_expr e) idx
  | Binop (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" pp_expr a (binop_to_string op) pp_expr b
  | Neg e -> Format.fprintf ppf "(-%a)" pp_expr e

let assign_op_to_string = function
  | Set -> "="
  | Add_assign -> "+="
  | Sub_assign -> "-="
  | Mul_assign -> "*="

let typ_to_string = function Tvoid -> "void" | Tfloat -> "float" | Tint -> "int"

let rec pp_stmt ppf = function
  | For { var; lo; hi; step; body } ->
      Format.fprintf ppf "@[<v 2>for (int %s = %a; %s < %a; %s += %d) {@,%a@]@,}" var pp_expr lo
        var pp_expr hi var step pp_stmts body
  | Assign { lhs; op; rhs } ->
      Format.fprintf ppf "%s%t %s %a;" lhs.base
        (fun ppf -> List.iter (fun e -> Format.fprintf ppf "[%a]" pp_expr e) lhs.indices)
        (assign_op_to_string op) pp_expr rhs
  | Decl_scalar { name; typ; init } -> (
      match init with
      | None -> Format.fprintf ppf "%s %s;" (typ_to_string typ) name
      | Some e -> Format.fprintf ppf "%s %s = %a;" (typ_to_string typ) name pp_expr e)
  | Decl_array { name; dims } ->
      Format.fprintf ppf "float %s" name;
      List.iter (fun d -> Format.fprintf ppf "[%d]" d) dims;
      Format.fprintf ppf ";"
  | Block body -> Format.fprintf ppf "@[<v 2>{@,%a@]@,}" pp_stmts body

and pp_stmts ppf body =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt ppf body

let pp_func ppf f =
  let pp_param ppf p =
    Format.fprintf ppf "%s %s" (typ_to_string p.ptyp) p.pname;
    List.iter (fun d -> Format.fprintf ppf "[%d]" d) p.dims
  in
  Format.fprintf ppf "@[<v 2>%s %s(%a) {@,%a@]@,}" (typ_to_string f.ret) f.fname
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_param)
    f.params pp_stmts f.body

let rec expr_equal a b =
  match (a, b) with
  | Int_lit x, Int_lit y -> x = y
  | Float_lit x, Float_lit y -> x = y
  | Var x, Var y -> String.equal x y
  | Index (x, xi), Index (y, yi) ->
      String.equal x y && List.length xi = List.length yi && List.for_all2 expr_equal xi yi
  | Binop (o1, a1, b1), Binop (o2, a2, b2) -> o1 = o2 && expr_equal a1 a2 && expr_equal b1 b2
  | Neg x, Neg y -> expr_equal x y
  | (Int_lit _ | Float_lit _ | Var _ | Index _ | Binop _ | Neg _), _ -> false

(* The AST is plain data, so marshalling yields a canonical byte string
   of the structure; digesting it gives a stable structural key. *)
let structural_digest (f : func) = Digest.to_hex (Digest.string (Marshal.to_string f []))
