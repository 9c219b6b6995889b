module St = Tdo_poly.Schedule_tree
module Affine = Tdo_poly.Affine
module Access = Tdo_poly.Access
module Domain = Tdo_poly.Domain
module Ir = Tdo_ir.Ir
module Ast = Tdo_lang.Ast
module Strings = Set.Make (String)

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

(* ---------- loop intervals ---------- *)

let const_of_expr e = Option.bind (Affine.of_expr e) Affine.is_constant

let interval ~lo ~hi ~step =
  match (lo, hi) with
  | Some l, Some h when step > 0 && h > l -> Some (l, l + (step * ((h - 1 - l) / step)))
  | _ -> None

let band_interval (b : St.band) =
  interval ~lo:(Affine.is_constant b.St.lo) ~hi:(Affine.is_constant b.St.hi) ~step:b.St.step

let enter_loop env var iv =
  let env = List.remove_assoc var env in
  match iv with Some iv -> (var, iv) :: env | None -> env

(* ---------- operand windows ---------- *)

let mat_ref_region ~env (r : Ir.mat_ref) =
  match (Affine.of_expr r.Ir.row_off, Affine.of_expr r.Ir.col_off) with
  | Some ro, Some co -> (
      match (Affine.range ~extents:env ro, Affine.range ~extents:env co) with
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

let rec expr_mentions vars = function
  | Ast.Var v -> List.mem v vars
  | Ast.Int_lit _ | Ast.Float_lit _ -> false
  | Ast.Index (_, idx) -> List.exists (expr_mentions vars) idx
  | Ast.Binop (_, a, b) -> expr_mentions vars a || expr_mentions vars b
  | Ast.Neg e -> expr_mentions vars e

let window_varies ~vars (r : Ir.mat_ref) =
  expr_mentions vars r.Ir.row_off || expr_mentions vars r.Ir.col_off

(* ---------- the access walk ---------- *)

(* Where an access lands, resolved to a region only by footprints:
   affine subscripts, a runtime-call operand window, or any cell (a
   whole-array transfer or a non-affine subscript). *)
type target = Cells of Access.t | Window of Ir.mat_ref | Whole

let rec expr_arrays f = function
  | Ast.Index (a, idx) ->
      f a;
      List.iter (expr_arrays f) idx
  | Ast.Binop (_, a, b) ->
      expr_arrays f a;
      expr_arrays f b
  | Ast.Neg e -> expr_arrays f e
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Var _ -> ()

(* [visit ~write env array target] for every array access of an IR
   statement, [env] holding the intervals of the enclosing loops *)
let rec ir_accesses visit env (s : Ir.stmt) =
  let read array target = visit ~write:false env array target in
  let write array target = visit ~write:true env array target in
  let reads_of_expr e =
    match Access.reads_of_expr e with
    | Some accs -> List.iter (fun (a : Access.t) -> read a.Access.array (Cells a)) accs
    | None -> expr_arrays (fun array -> read array Whole) e
  in
  match s with
  | Ir.For { var; lo; hi; step; body } ->
      let env = enter_loop env var (interval ~lo:(const_of_expr lo) ~hi:(const_of_expr hi) ~step) in
      List.iter (ir_accesses visit env) body
  | Ir.Assign { lhs; op; rhs } ->
      (if lhs.Ast.indices <> [] then
         let target = match Access.of_lvalue lhs with Some a -> Cells a | None -> Whole in
         write lhs.Ast.base target;
         if op <> Ast.Set then read lhs.Ast.base target);
      List.iter reads_of_expr lhs.Ast.indices;
      reads_of_expr rhs
  | Ir.Decl_scalar { init = Some e; _ } -> reads_of_expr e
  | Ir.Decl_scalar _ | Ir.Decl_array _ | Ir.Roi_begin | Ir.Roi_end -> ()
  | Ir.Call c -> (
      (* a GEMM reads its output window only to scale it by a beta that
         is not the literal 0 *)
      let operands beta ((a : Ir.mat_ref), (b : Ir.mat_ref), (c : Ir.mat_ref)) =
        read a.Ir.array (Window a);
        read b.Ir.array (Window b);
        (match beta with Ast.Float_lit 0.0 | Ast.Int_lit 0 -> () | _ -> read c.Ir.array (Window c));
        write c.Ir.array (Window c)
      in
      match c with
      | Ir.Cim_init | Ir.Cim_alloc _ | Ir.Cim_free _ -> ()
      | Ir.Cim_h2d { array } -> read array Whole
      | Ir.Cim_d2h { array } -> write array Whole
      | Ir.Cim_gemm { beta; a; b; c; _ } -> operands beta (a, b, c)
      | Ir.Cim_gemm_batched { beta; batch; _ } -> List.iter (operands beta) batch
      | Ir.Cim_im2col { src; dst; _ } ->
          read src Whole;
          read dst Whole;
          write dst Whole)

(* the same walk over a schedule tree: a statement leaf reads the
   accumulated-into cell of [+=]/[-=]/[*=] besides its operands, and
   [Code] subtrees are walked as IR under the enclosing bands *)
let tree_accesses visit t =
  let rec walk env = function
    | St.Band (b, child) -> walk (enter_loop env b.St.iter (band_interval b)) child
    | St.Mark (_, child) -> walk env child
    | St.Seq children -> List.iter (walk env) children
    | St.Stmt s ->
        let w = s.St.write in
        visit ~write:true env w.Access.array (Cells w);
        if s.St.op <> Ast.Set then visit ~write:false env w.Access.array (Cells w);
        List.iter (fun (a : Access.t) -> visit ~write:false env a.Access.array (Cells a)) s.St.reads
    | St.Code stmts -> List.iter (ir_accesses visit env) stmts
  in
  walk [] t

(* ---------- array names ---------- *)

let names walk =
  let reads = ref Strings.empty and writes = ref Strings.empty in
  walk (fun ~write _env array _target ->
      if write then writes := Strings.add array !writes else reads := Strings.add array !reads);
  (!reads, !writes)

let arrays t = names (fun visit -> tree_accesses visit t)
let stmt_arrays s = names (fun visit -> ir_accesses visit [] s)

(* ---------- footprints ---------- *)

type footprint = (string * region list) list

let region env = function
  | Cells a -> (
      match Access.region a ~extents:env with Some box -> Box (normalise box) | None -> Top)
  | Window r -> mat_ref_region ~env r
  | Whole -> Top

let footprints t =
  let reads = Hashtbl.create 8 and writes = Hashtbl.create 8 in
  tree_accesses
    (fun ~write env array target ->
      let table = if write then writes else reads in
      let r = region env target in
      match Hashtbl.find_opt table array with
      | Some rs -> rs := r :: !rs
      | None -> Hashtbl.add table array (ref [ r ]))
    t;
  let sorted table =
    Hashtbl.fold (fun array rs acc -> (array, !rs) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  (sorted reads, sorted writes)

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
