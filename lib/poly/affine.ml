module Ast = Tdo_lang.Ast
module Terms = Map.Make (String)

type t = { const : int; terms : int Terms.t }
(** invariant: no zero coefficients in [terms] *)

let normalize terms = Terms.filter (fun _ c -> c <> 0) terms

let const c = { const = c; terms = Terms.empty }
let var name = { const = 0; terms = Terms.singleton name 1 }

let add a b =
  {
    const = a.const + b.const;
    terms =
      normalize
        (Terms.union (fun _ ca cb -> Some (ca + cb)) a.terms b.terms);
  }

let scale k a =
  if k = 0 then const 0
  else { const = k * a.const; terms = Terms.map (fun c -> k * c) a.terms }

let neg a = scale (-1) a
let sub a b = add a (neg b)

let rec of_expr : Ast.expr -> t option = function
  | Ast.Int_lit n -> Some (const n)
  | Ast.Float_lit _ -> None
  | Ast.Var name -> Some (var name)
  | Ast.Index _ -> None
  | Ast.Neg e -> Option.map neg (of_expr e)
  | Ast.Binop (Ast.Add, a, b) -> (
      match (of_expr a, of_expr b) with Some a, Some b -> Some (add a b) | _ -> None)
  | Ast.Binop (Ast.Sub, a, b) -> (
      match (of_expr a, of_expr b) with Some a, Some b -> Some (sub a b) | _ -> None)
  | Ast.Binop (Ast.Mul, a, b) -> (
      match (of_expr a, of_expr b) with
      | Some a, Some b -> (
          match (is_constant a, is_constant b) with
          | Some k, _ -> Some (scale k b)
          | _, Some k -> Some (scale k a)
          | None, None -> None)
      | _ -> None)
  | Ast.Binop (Ast.Div, _, _) -> None

and is_constant a = if Terms.is_empty a.terms then Some a.const else None

let to_expr a =
  let term name c acc =
    let var_expr = Ast.Var name in
    let term_expr =
      if c = 1 then var_expr else Ast.Binop (Ast.Mul, Ast.Int_lit c, var_expr)
    in
    match acc with None -> Some term_expr | Some e -> Some (Ast.Binop (Ast.Add, e, term_expr))
  in
  let body = Terms.fold term a.terms None in
  match (body, a.const) with
  | None, c -> Ast.Int_lit c
  | Some e, 0 -> e
  | Some e, c when c > 0 -> Ast.Binop (Ast.Add, e, Ast.Int_lit c)
  | Some e, c -> Ast.Binop (Ast.Sub, e, Ast.Int_lit (-c))

let coeff a name = Option.value ~default:0 (Terms.find_opt name a.terms)
let constant a = a.const
let vars a = List.map fst (Terms.bindings a.terms)
let equal a b = a.const = b.const && Terms.equal ( = ) a.terms b.terms

let range ~extents a =
  Terms.fold
    (fun v c acc ->
      match (acc, List.assoc_opt v extents) with
      | Some (lo, hi), Some (l, h) -> Some (lo + min (c * l) (c * h), hi + max (c * l) (c * h))
      | _ -> None)
    a.terms
    (Some (a.const, a.const))

let subst a name g =
  match Terms.find_opt name a.terms with
  | None -> a
  | Some c -> add { a with terms = Terms.remove name a.terms } (scale c g)

let pp ppf a =
  let first = ref true in
  Terms.iter
    (fun name c ->
      if !first then begin
        if c = 1 then Format.fprintf ppf "%s" name
        else Format.fprintf ppf "%d%s" c name;
        first := false
      end
      else if c >= 0 then Format.fprintf ppf " + %d%s" c name
      else Format.fprintf ppf " - %d%s" (-c) name)
    a.terms;
  if !first then Format.fprintf ppf "%d" a.const
  else if a.const > 0 then Format.fprintf ppf " + %d" a.const
  else if a.const < 0 then Format.fprintf ppf " - %d" (-a.const)
