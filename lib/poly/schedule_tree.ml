module Ast = Tdo_lang.Ast

type band = { iter : string; lo : Affine.t; hi : Affine.t; step : int }

type stmt_info = {
  sid : int;
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

let rec pp ppf = function
  | Band (b, child) ->
      Format.fprintf ppf "@[<v 2>band %s in [%a, %a) step %d@,%a@]" b.iter Affine.pp b.lo
        Affine.pp b.hi b.step pp child
  | Seq children ->
      Format.fprintf ppf "@[<v 2>seq@,%a@]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp)
        children
  | Stmt s ->
      Format.fprintf ppf "S%d: %a %s ..." s.sid Access.pp s.write
        (match s.op with
        | Ast.Set -> "="
        | Ast.Add_assign -> "+="
        | Ast.Sub_assign -> "-="
        | Ast.Mul_assign -> "*=")
  | Mark (name, child) -> Format.fprintf ppf "@[<v 2>mark %S@,%a@]" name pp child
  | Code stmts -> Format.fprintf ppf "code (%d lowered statements)" (List.length stmts)

let rec stmts = function
  | Band (_, child) -> stmts child
  | Seq children -> List.concat_map stmts children
  | Stmt s -> [ s ]
  | Mark (_, child) -> stmts child
  | Code _ -> []

let stmts_with_context tree =
  let rec walk bands = function
    | Band (b, child) -> walk (b :: bands) child
    | Seq children -> List.concat_map (walk bands) children
    | Stmt s -> [ (List.rev bands, s) ]
    | Mark (_, child) -> walk bands child
    | Code _ -> []
  in
  walk [] tree

let band_extent b =
  match (Affine.is_constant b.lo, Affine.is_constant b.hi) with
  | Some lo, Some hi when hi >= lo -> Some ((hi - lo + b.step - 1) / b.step)
  | _ -> None

let rec contains_code = function
  | Code _ -> true
  | Band (_, child) | Mark (_, child) -> contains_code child
  | Seq children -> List.exists contains_code children
  | Stmt _ -> false
