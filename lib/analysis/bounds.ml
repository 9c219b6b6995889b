module St = Tdo_poly.Schedule_tree
module Affine = Tdo_poly.Affine
module Access = Tdo_poly.Access
module Ir = Tdo_ir.Ir
module Ast = Tdo_lang.Ast

(* The iteration point at which an affine form takes its extreme value
   over the loop extents: each variable at the end of its interval
   that the sign of its coefficient picks. *)
let extreme_point ~extents ~maximise idx =
  List.map
    (fun v ->
      let lo, hi = List.assoc v extents in
      (v, if (Affine.coeff idx v > 0) = maximise then hi else lo))
    (Affine.vars idx)

let witness_string = function
  | [] -> "the empty iteration point"
  | assignment ->
      String.concat ", " (List.map (fun (v, x) -> Printf.sprintf "%s = %d" v x) assignment)

let pp_affine a = Format.asprintf "%a" Affine.pp a

(* One subscript against one declared extent. *)
let check_axis ~extents ~array ~axis ~extent idx =
  match Affine.range ~extents idx with
  | Some (lo, hi) ->
      (if hi >= extent then
         [
           Diag.errorf "E201"
             ~hint:"shrink the loop range or the subscript offset"
             "out-of-bounds access: '%s' dimension %d has extent %d but subscript %s reaches %d at %s"
             array axis extent (pp_affine idx) hi
             (witness_string (extreme_point ~extents ~maximise:true idx));
         ]
       else [])
      @
      if lo < 0 then
        [
          Diag.errorf "E202"
            ~hint:"negative subscripts fall before the array"
            "out-of-bounds access: '%s' dimension %d subscript %s reaches %d at %s" array axis
            (pp_affine idx) lo
            (witness_string (extreme_point ~extents ~maximise:false idx));
        ]
      else []
  | None ->
      [
        Diag.notef "N203"
          "access to '%s' dimension %d not provable: subscript %s ranges over a non-constant \
           loop bound"
          array axis (pp_affine idx);
      ]

let check_access ~extents ~dims (a : Access.t) =
  match List.assoc_opt a.Access.array dims with
  | None -> []
  | Some ds when List.length ds <> List.length a.Access.indices -> []
  | Some ds ->
      List.concat
        (List.mapi
           (fun axis (extent, idx) -> check_axis ~extents ~array:a.Access.array ~axis ~extent idx)
           (List.combine ds a.Access.indices))

(* Operand window of a runtime call: rows x cols starting at the
   (affine) element offsets. A 1-D array is an n x 1 column. *)
let check_mat_ref ~extents ~dims (r : Ir.mat_ref) =
  match List.assoc_opt r.Ir.array dims with
  | None -> []
  | Some ds -> (
      let d0, d1 = match ds with [ n ] -> (n, 1) | [ a; b ] -> (a, b) | _ -> (0, 0) in
      if d0 = 0 then []
      else
        match (Affine.of_expr r.Ir.row_off, Affine.of_expr r.Ir.col_off) with
        | Some ro, Some co ->
            let span phys_rows = Affine.add ro (Affine.const (phys_rows - 1)) in
            (* op(M) = M^T swaps which extent runs down the rows *)
            let rows, cols = if r.Ir.trans then (r.Ir.cols, r.Ir.rows) else (r.Ir.rows, r.Ir.cols) in
            check_axis ~extents ~array:r.Ir.array ~axis:0 ~extent:d0 (span rows)
            @ check_axis ~extents ~array:r.Ir.array ~axis:1 ~extent:d1
                (Affine.add co (Affine.const (cols - 1)))
        | _ -> [])

let degenerate_loop ~var ~lo ~hi =
  Diag.errorf "E204"
    ~hint:
      "an empty loop makes every legality and bounds conclusion about its body vacuous; fix the \
       bounds or delete the loop"
    "degenerate loop: 'for (%s = %d; %s < %d)' has an empty iteration space (trip count %d)" var
    lo var hi
    (max 0 (hi - lo))

let call_mat_refs = function
  | Ir.Cim_gemm { a; b; c; _ } -> [ a; b; c ]
  | Ir.Cim_gemm_batched { batch; _ } -> List.concat_map (fun (a, b, c) -> [ a; b; c ]) batch
  | Ir.Cim_init | Ir.Cim_alloc _ | Ir.Cim_h2d _ | Ir.Cim_d2h _ | Ir.Cim_free _ | Ir.Cim_im2col _
    -> []

let accesses_of_assign (lhs : Ast.lvalue) rhs =
  let w = match Access.of_lvalue lhs with Some a when a.Access.indices <> [] -> [ a ] | _ -> [] in
  let r = match Access.reads_of_expr rhs with Some rs -> rs | None -> [] in
  w @ r

let func (f : Ir.func) =
  let diags = ref [] in
  let emit ds = diags := !diags @ ds in
  let dims =
    ref
      (List.filter_map
         (fun (p : Ast.param) -> if p.Ast.dims = [] then None else Some (p.Ast.pname, p.Ast.dims))
         f.Ir.params)
  in
  let rec walk extents (stmt : Ir.stmt) =
    match stmt with
    | Ir.For { var; lo; hi; step; body } -> (
        match (Regions.const_of_expr lo, Regions.const_of_expr hi) with
        | Some l, Some h when h <= l ->
            (* the body never executes: any legality or bounds claim
               about it would be vacuous, so reject instead of walking *)
            emit [ degenerate_loop ~var ~lo:l ~hi:h ]
        | lo, hi ->
            List.iter (walk (Regions.enter_loop extents var (Regions.interval ~lo ~hi ~step))) body)
    | Ir.Assign { lhs; rhs; _ } ->
        List.iter (fun a -> emit (check_access ~extents ~dims:!dims a)) (accesses_of_assign lhs rhs)
    | Ir.Decl_array { name; dims = ds } -> dims := (name, ds) :: !dims
    | Ir.Decl_scalar { init = Some e; _ } ->
        List.iter
          (fun a -> emit (check_access ~extents ~dims:!dims a))
          (match Access.reads_of_expr e with Some rs -> rs | None -> [])
    | Ir.Decl_scalar _ -> ()
    | Ir.Call call -> List.iter (fun r -> emit (check_mat_ref ~extents ~dims:!dims r)) (call_mat_refs call)
    | Ir.Roi_begin | Ir.Roi_end -> ()
  in
  List.iter (walk []) f.Ir.body;
  !diags
