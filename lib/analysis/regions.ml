module St = Tdo_poly.Schedule_tree
module Affine = Tdo_poly.Affine
module Access = Tdo_poly.Access
module Domain = Tdo_poly.Domain
module Deps = Tdo_poly.Deps
module Ir = Tdo_ir.Ir
module Ast = Tdo_lang.Ast
module Strings = Deps.Strings

type region = Box of Domain.box | Top

(* 1-D boxes are widened to [n x 1] columns so statement accesses to a
   vector and the [n x 1] operand windows of runtime calls live in one
   rank and can be compared. *)
let normalise box =
  match Domain.box_bounds box with
  | [ b ] -> ( match Domain.box [ b; (0, 0) ] with Some b' -> b' | None -> box)
  | _ -> box

let box_cells box =
  List.fold_left (fun acc (lo, hi) -> acc * (hi - lo + 1)) 1 (Domain.box_bounds box)

let box_shape box =
  match Domain.box_bounds box with
  | [ (l0, h0) ] -> (h0 - l0 + 1, 1)
  | [ (l0, h0); (l1, h1) ] -> (h0 - l0 + 1, h1 - l1 + 1)
  | bounds -> (List.fold_left (fun acc (lo, hi) -> acc * (hi - lo + 1)) 1 bounds, 1)

let overlap r1 r2 =
  match (r1, r2) with
  | Top, _ | _, Top -> true
  | Box a, Box b -> Domain.box_rank a <> Domain.box_rank b || Domain.inter_box a b <> None

let pp ppf = function
  | Top -> Format.pp_print_string ppf "[*]"
  | Box b ->
      List.iter (fun (lo, hi) -> Format.fprintf ppf "[%d..%d]" lo hi) (Domain.box_bounds b)

(* ---------- footprints ---------- *)

type footprint = (string * region list) list

let overlap_any xs ys = List.exists (fun x -> List.exists (overlap x) ys) xs

let overlapping (xs : footprint) (ys : footprint) =
  List.filter_map
    (fun (arr, rx) ->
      match List.assoc_opt arr ys with
      | Some ry when overlap_any rx ry -> Some arr
      | _ -> None)
    xs

let pp_footprint ppf (fp : footprint) =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf (arr, regions) ->
      let printed = List.sort_uniq compare (List.map (Format.asprintf "%a" pp) regions) in
      Format.fprintf ppf "%s%s" arr (String.concat "+" printed))
    ppf fp

(* ---------- regions of single accesses and operands ---------- *)

let region_of_access ~env (a : Access.t) =
  match Access.region a ~extents:env with Some box -> Box (normalise box) | None -> Top

(* min/max of an affine form when each variable ranges over its
   inclusive interval; [None] when a variable has no extent *)
let affine_range ~env a =
  let rec go lo hi = function
    | [] -> Some (lo, hi)
    | v :: rest -> (
        match List.assoc_opt v env with
        | None -> None
        | Some (l, h) ->
            let c = Affine.coeff a v in
            go (lo + min (c * l) (c * h)) (hi + max (c * l) (c * h)) rest)
  in
  go (Affine.constant a) (Affine.constant a) (Affine.vars a)

let mat_ref_region ~env (r : Ir.mat_ref) =
  match (Affine.of_expr r.Ir.row_off, Affine.of_expr r.Ir.col_off) with
  | Some ro, Some co -> (
      match (affine_range ~env ro, affine_range ~env co) with
      | Some (rl, rh), Some (cl, ch) -> (
          (* op(M) = M^T swaps which extent runs down the physical rows *)
          let prows, pcols =
            if r.Ir.trans then (r.Ir.cols, r.Ir.rows) else (r.Ir.rows, r.Ir.cols)
          in
          match Domain.box [ (rl, rh + prows - 1); (cl, ch + pcols - 1) ] with
          | Some b -> Box b
          | None -> Top)
      | _ -> Top)
  | _ -> Top

let mat_ref_cells (r : Ir.mat_ref) = r.Ir.rows * r.Ir.cols

let band_env bands =
  List.fold_left
    (fun acc (b : St.band) ->
      match (acc, Affine.is_constant b.St.lo, Affine.is_constant b.St.hi) with
      | Some acc, Some lo, Some hi when hi > lo -> Some ((b.St.iter, (lo, hi - 1)) :: acc)
      | _ -> None)
    (Some []) bands

(* ---------- footprints of IR and schedule trees ---------- *)

let rec expr_arrays acc = function
  | Ast.Index (a, idx) -> List.fold_left expr_arrays (Strings.add a acc) idx
  | Ast.Binop (_, a, b) -> expr_arrays (expr_arrays acc a) b
  | Ast.Neg e -> expr_arrays acc e
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Var _ -> acc

let const_of_expr e =
  match Affine.of_expr e with Some a -> Affine.is_constant a | None -> None

(* walk straight IR with the current constant loop intervals; [read]
   and [write] receive each touched array with its region *)
let rec ir_stmt_regions ~env ~read ~write (s : Ir.stmt) =
  let reads_of_expr e =
    match Access.reads_of_expr e with
    | Some accs -> List.iter (fun (a : Access.t) -> read a.Access.array (region_of_access ~env a)) accs
    | None ->
        (* a non-affine subscript hides which cells are read *)
        Strings.iter (fun arr -> read arr Top) (expr_arrays Strings.empty e)
  in
  match s with
  | Ir.For { var; lo; hi; step; body } ->
      let env = List.remove_assoc var env in
      let env =
        match (const_of_expr lo, const_of_expr hi) with
        | Some l, Some h when step > 0 && h > l ->
            (var, (l, l + (step * ((h - 1 - l) / step)))) :: env
        | _ -> env
      in
      List.iter (ir_stmt_regions ~env ~read ~write) body
  | Ir.Assign { lhs; op; rhs } ->
      (if lhs.Ast.indices <> [] then
         let wregion =
           match Access.of_lvalue lhs with
           | Some a -> region_of_access ~env a
           | None -> Top
         in
         write lhs.Ast.base wregion;
         if op <> Ast.Set then read lhs.Ast.base wregion);
      List.iter reads_of_expr lhs.Ast.indices;
      reads_of_expr rhs
  | Ir.Decl_scalar { init = Some e; _ } -> reads_of_expr e
  | Ir.Decl_scalar _ | Ir.Decl_array _ | Ir.Roi_begin | Ir.Roi_end -> ()
  | Ir.Call c -> (
      let mat role (r : Ir.mat_ref) = role r.Ir.array (mat_ref_region ~env r) in
      match c with
      | Ir.Cim_init -> ()
      | Ir.Cim_alloc { array } | Ir.Cim_free { array } | Ir.Cim_h2d { array } -> read array Top
      | Ir.Cim_d2h { array } ->
          read array Top;
          write array Top
      | Ir.Cim_gemm { a; b; c = cref; _ } ->
          mat read a;
          mat read b;
          mat read cref;
          mat write cref
      | Ir.Cim_gemm_batched { batch; _ } ->
          List.iter
            (fun (a, b, cref) ->
              mat read a;
              mat read b;
              mat read cref;
              mat write cref)
            batch
      | Ir.Cim_im2col { src; dst; _ } ->
          read src Top;
          read dst Top;
          write dst Top)

let make_table () =
  let table : (string, region list ref) Hashtbl.t = Hashtbl.create 8 in
  let add arr region =
    match Hashtbl.find_opt table arr with
    | Some rs -> rs := region :: !rs
    | None -> Hashtbl.add table arr (ref [ region ])
  in
  let finish () =
    Hashtbl.fold (fun arr rs acc -> (arr, List.rev !rs) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  (add, finish)

let tree_footprint ~writes t =
  let add, finish = make_table () in
  (* statement leaves: one region per access over the band extents,
     Top for the whole statement when a band bound is not constant —
     the precision of Deps.access_regions *)
  List.iter
    (fun (bands, (s : St.stmt_info)) ->
      let env = band_env bands in
      let accesses =
        if writes then [ s.St.write ]
        else s.St.reads @ if s.St.op = Ast.Set then [] else [ s.St.write ]
      in
      List.iter
        (fun (a : Access.t) ->
          let region =
            match env with None -> Top | Some env -> region_of_access ~env a
          in
          add a.Access.array region)
        accesses)
    (St.stmts_with_context t);
  (* Code subtrees: walk the lowered IR under the enclosing bands *)
  let read arr r = if not writes then add arr r in
  let write arr r = if writes then add arr r in
  let rec walk env = function
    | St.Code stmts -> List.iter (ir_stmt_regions ~env ~read ~write) stmts
    | St.Band (b, child) ->
        let env = List.remove_assoc b.St.iter env in
        let env =
          match (Affine.is_constant b.St.lo, Affine.is_constant b.St.hi) with
          | Some lo, Some hi when hi > lo -> (b.St.iter, (lo, hi - 1)) :: env
          | _ -> env
        in
        walk env child
    | St.Mark (_, child) -> walk env child
    | St.Seq children -> List.iter (walk env) children
    | St.Stmt _ -> ()
  in
  walk [] t;
  finish ()
