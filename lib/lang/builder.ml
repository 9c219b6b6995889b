open Ast

let int n = Int_lit n
let float f = Float_lit f
let var name = Var name
let idx base indices = Index (base, indices)
let ( * ) a b = Binop (Mul, a, b)

let make_assign op base indices rhs = Assign { lhs = { base; indices }; op; rhs }
let assign base indices rhs = make_assign Set base indices rhs
let add_assign base indices rhs = make_assign Add_assign base indices rhs
let mul_assign base indices rhs = make_assign Mul_assign base indices rhs

let for_ name ?(lo = Int_lit 0) ?(step = 1) hi body = For { var = name; lo; hi; step; body }

let scalar ptyp pname = { pname; ptyp; dims = [] }
let array pname dims = { pname; ptyp = Tfloat; dims }

let func ?(ret = Tvoid) fname params body =
  let f = { fname; ret; params; body } in
  Typecheck.check_func f;
  f
