module Ast = Tdo_lang.Ast

type t = { array : string; indices : Affine.t list }

let of_indices array indices =
  let rec map_all acc = function
    | [] -> Some (List.rev acc)
    | e :: rest -> (
        match Affine.of_expr e with
        | None -> None
        | Some a -> map_all (a :: acc) rest)
  in
  Option.map (fun indices -> { array; indices }) (map_all [] indices)

let of_lvalue (lv : Ast.lvalue) = of_indices lv.Ast.base lv.Ast.indices

let reads_of_expr expr =
  let exception Not_affine in
  let acc = ref [] in
  let rec visit = function
    | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Var _ -> ()
    | Ast.Index (array, indices) -> (
        match of_indices array indices with
        | None -> raise Not_affine
        | Some access -> acc := access :: !acc)
    | Ast.Binop (_, a, b) ->
        visit a;
        visit b
    | Ast.Neg e -> visit e
  in
  match visit expr with
  | () -> Some (List.rev !acc)
  | exception Not_affine -> None

let equal a b =
  String.equal a.array b.array
  && List.length a.indices = List.length b.indices
  && List.for_all2 Affine.equal a.indices b.indices

let pp ppf a =
  Format.fprintf ppf "%s" a.array;
  List.iter (fun idx -> Format.fprintf ppf "[%a]" Affine.pp idx) a.indices

let region a ~extents =
  let rec all acc = function
    | [] -> Domain.box (List.rev acc)
    | idx :: rest -> (
        match Affine.range ~extents idx with
        | None -> None
        | Some bounds -> all (bounds :: acc) rest)
  in
  if a.indices = [] then None else all [] a.indices

let index_signature a ~iters =
  let classify idx =
    let used = List.filter (fun v -> Affine.coeff idx v <> 0) (Affine.vars idx) in
    match used with
    | [] -> Some `Other
    | [ v ] ->
        if Affine.coeff idx v = 1 && Affine.constant idx = 0 then
          (* exactly one iterator with unit coefficient *)
          Option.map (fun p -> `Iter p)
            (List.find_index (String.equal v) iters)
        else None
    | _ :: _ :: _ -> None
  in
  let rec all acc = function
    | [] -> Some (List.rev acc)
    | idx :: rest -> (
        match classify idx with None -> None | Some c -> all (c :: acc) rest)
  in
  all [] a.indices
