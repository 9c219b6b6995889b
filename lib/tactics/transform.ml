module St = Tdo_poly.Schedule_tree
module Affine = Tdo_poly.Affine
module Access = Tdo_poly.Access
module Ast = Tdo_lang.Ast

(* A perfect nest: Band b1 (Band b2 (... (Stmt s))). *)
let rec perfect_nest tree =
  match tree with
  | St.Band (b, child) ->
      Option.map (fun (bands, s) -> (b :: bands, s)) (perfect_nest child)
  | St.Stmt s -> Some ([], s)
  | St.Seq _ | St.Mark _ | St.Code _ -> None

let rectangular (b : St.band) =
  Affine.is_constant b.St.lo <> None && Affine.is_constant b.St.hi <> None

let writes_distinct_cells bands (s : St.stmt_info) =
  List.for_all
    (fun (b : St.band) ->
      List.exists
        (fun idx ->
          Affine.coeff idx b.St.iter = 1
          && Affine.constant idx = 0
          && Affine.vars idx = [ b.St.iter ])
        s.St.write.Access.indices)
    bands

let permutable bands (s : St.stmt_info) =
  List.for_all rectangular bands
  &&
  match s.St.op with
  | Ast.Add_assign | Ast.Sub_assign -> true
  | Ast.Set | Ast.Mul_assign -> writes_distinct_cells bands s

let rec permutations = function
  | [] -> [ [] ]
  | items ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y != x) items in
          List.map (fun perm -> x :: perm) (permutations rest))
        items

let rebuild bands s =
  List.fold_right (fun b child -> St.Band (b, child)) bands (St.Stmt s)

let interchange_candidates tree =
  match perfect_nest tree with
  | Some (bands, s)
    when List.length bands >= 2 && List.length bands <= 4 && permutable bands s ->
      let variants =
        permutations bands
        |> List.filter (fun perm -> perm <> bands)
        |> List.map (fun perm -> rebuild perm s)
      in
      tree :: variants
  | Some _ | None -> [ tree ]

