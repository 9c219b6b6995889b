module St = Tdo_poly.Schedule_tree
module Affine = Tdo_poly.Affine
module Access = Tdo_poly.Access
module Ast = Tdo_lang.Ast

type operand = { array : string; trans : bool }

type gemm = {
  c_array : string;
  a : operand;
  b : operand;
  m : int;
  n : int;
  k : int;
  iter_i : string;
  iter_j : string;
  iter_k : string;
  alpha : Ast.expr;
  beta : Ast.expr;
}

type gemv = {
  a : operand;
  x_array : string;
  y_array : string;
  m : int;
  k : int;
  alpha : Ast.expr;
  beta : Ast.expr;
}

type conv = {
  input : string;
  weights : string;
  output : string;
  out_h : int;
  out_w : int;
  ker_h : int;
  ker_w : int;
  alpha : Ast.expr;
  accumulate : bool;
}

type kernel = Kgemm of gemm | Kgemv of gemv | Kconv of conv

let ( let* ) = Option.bind

(* A normalised band: constant extent, zero lower bound, unit step. *)
let band_extent_0 (b : St.band) =
  match (Affine.is_constant b.St.lo, Affine.is_constant b.St.hi, b.St.step) with
  | Some 0, Some hi, 1 when hi > 0 -> Some hi
  | _ -> None

(* Multiplicative factor split of an expression: scalar factors (no
   array reads) and access factors. Fails on anything else. *)
let rec mul_factors (e : Ast.expr) =
  match e with
  | Ast.Binop (Ast.Mul, a, b) -> (
      match (mul_factors a, mul_factors b) with
      | Some fa, Some fb -> Some (fa @ fb)
      | _ -> None)
  | Ast.Index (array, indices) -> Some [ `Access (array, indices) ]
  | Ast.Var _ | Ast.Float_lit _ -> Some [ `Scalar e ]
  | Ast.Int_lit _ | Ast.Binop _ | Ast.Neg _ -> None

let scalar_product = function
  | [] -> Ast.Float_lit 1.0
  | first :: rest -> List.fold_left (fun acc e -> Ast.Binop (Ast.Mul, acc, e)) first rest

let scalars_of factors =
  List.filter_map (function `Scalar e -> Some e | `Access _ -> None) factors

let accesses_of factors =
  List.filter_map
    (function
      | `Access (array, indices) -> Access.of_lvalue { Ast.base = array; indices }
      | `Scalar _ -> None)
    factors

(* Zero-init or beta-style rescale of [target]: returns the beta
   expression. Accepted forms:
     target *= beta            (beta scalar)
     target = 0                (beta 0)
     target = beta * target    (beta scalars)           *)
let beta_of_init (s : St.stmt_info) (target : Access.t) =
  let* () = if Access.equal s.St.write target then Some () else None in
  match s.St.op with
  | Ast.Mul_assign -> (
      match mul_factors s.St.rhs with
      | Some factors when accesses_of factors = [] -> Some (scalar_product (scalars_of factors))
      | _ -> None)
  | Ast.Set -> (
      match s.St.rhs with
      | Ast.Float_lit 0.0 | Ast.Int_lit 0 -> Some (Ast.Float_lit 0.0)
      | rhs -> (
          match mul_factors rhs with
          | Some factors -> (
              match accesses_of factors with
              | [ acc ] when Access.equal acc target ->
                  Some (scalar_product (scalars_of factors))
              | _ -> None)
          | None -> None))
  | Ast.Add_assign | Ast.Sub_assign -> None

(* Signature helper: indices of an access against iterator positions. *)
let signature (a : Access.t) ~iters = Access.index_signature a ~iters

(* The output must not also be an operand. The device reads every
   operand before it writes any output element, while the source reads
   the output's elements as it updates them, so [C[i][j] += A[i][k] *
   C[k][j]] and [y[i] += A[i][j] * y[j]] would compute something else.
   The accumulation itself, the [+=] into the output, is the only read
   of it allowed. *)
let output_not_operand (upd : St.stmt_info) factors =
  let output = upd.St.write.Access.array in
  let reads_output = function
    | `Access (array, _) -> String.equal array output
    | `Scalar _ -> false
  in
  if List.exists reads_output factors then None else Some ()

(* ---------- GEMM ---------- *)

let gemm_bodies tree =
  (* band i (band j (seq [init; band k (stmt)])) or band i (band j (band k (stmt))) *)
  match tree with
  | St.Band (bi, St.Band (bj, St.Seq [ St.Stmt init; St.Band (bk, St.Stmt upd) ])) ->
      Some (bi, bj, bk, Some init, upd)
  | St.Band (bi, St.Band (bj, St.Band (bk, St.Stmt upd))) -> Some (bi, bj, bk, None, upd)
  | _ -> None

let match_gemm tree =
  let* bi, bj, bk, init, upd = gemm_bodies tree in
  let* m = band_extent_0 bi in
  let* n = band_extent_0 bj in
  let* k = band_extent_0 bk in
  let iters = [ bi.St.iter; bj.St.iter; bk.St.iter ] in
  let* () = if upd.St.op = Ast.Add_assign then Some () else None in
  let* c_sig = signature upd.St.write ~iters in
  let* () = if c_sig = [ `Iter 0; `Iter 1 ] then Some () else None in
  let* factors = mul_factors upd.St.rhs in
  let* () = output_not_operand upd factors in
  let accesses = accesses_of factors in
  let* a, b =
    match accesses with
    | [ x; y ] -> (
        let sx = signature x ~iters and sy = signature y ~iters in
        match (sx, sy) with
        | Some sx, Some sy -> (
            let classify access s =
              match s with
              | [ `Iter 0; `Iter 2 ] -> Some (`A { array = access.Access.array; trans = false })
              | [ `Iter 2; `Iter 0 ] -> Some (`A { array = access.Access.array; trans = true })
              | [ `Iter 2; `Iter 1 ] -> Some (`B { array = access.Access.array; trans = false })
              | [ `Iter 1; `Iter 2 ] -> Some (`B { array = access.Access.array; trans = true })
              | _ -> None
            in
            match (classify x sx, classify y sy) with
            | Some (`A a), Some (`B b) | Some (`B b), Some (`A a) -> Some (a, b)
            | _ -> None)
        | _ -> None)
    | _ -> None
  in
  let alpha = scalar_product (scalars_of factors) in
  let* beta =
    match init with
    | None -> Some (Ast.Float_lit 1.0)
    | Some init -> beta_of_init init upd.St.write
  in
  Some
    {
      c_array = upd.St.write.Access.array;
      a;
      b;
      m;
      n;
      k;
      iter_i = bi.St.iter;
      iter_j = bj.St.iter;
      iter_k = bk.St.iter;
      alpha;
      beta;
    }

(* ---------- GEMV ---------- *)

let gemv_bodies tree =
  match tree with
  | St.Band (bi, St.Seq [ St.Stmt init; St.Band (bj, St.Stmt upd) ]) ->
      Some (bi, bj, Some init, upd)
  | St.Band (bi, St.Band (bj, St.Stmt upd)) -> Some (bi, bj, None, upd)
  | _ -> None

let match_gemv tree =
  let* bi, bj, init, upd = gemv_bodies tree in
  let* m = band_extent_0 bi in
  let* k = band_extent_0 bj in
  let iters = [ bi.St.iter; bj.St.iter ] in
  let* () = if upd.St.op = Ast.Add_assign then Some () else None in
  let* y_sig = signature upd.St.write ~iters in
  let* () = if y_sig = [ `Iter 0 ] then Some () else None in
  let* factors = mul_factors upd.St.rhs in
  let* () = output_not_operand upd factors in
  let accesses = accesses_of factors in
  let* a, x_array =
    match accesses with
    | [ p; q ] -> (
        let sp = signature p ~iters and sq = signature q ~iters in
        let classify access s =
          match s with
          | Some [ `Iter 0; `Iter 1 ] -> Some (`A { array = access.Access.array; trans = false })
          | Some [ `Iter 1; `Iter 0 ] -> Some (`A { array = access.Access.array; trans = true })
          | Some [ `Iter 1 ] -> Some (`X access.Access.array)
          | _ -> None
        in
        match (classify p sp, classify q sq) with
        | Some (`A a), Some (`X x) | Some (`X x), Some (`A a) -> Some (a, x)
        | _ -> None)
    | _ -> None
  in
  let alpha = scalar_product (scalars_of factors) in
  let* beta =
    match init with
    | None -> Some (Ast.Float_lit 1.0)
    | Some init -> beta_of_init init upd.St.write
  in
  Some { a; x_array; y_array = upd.St.write.Access.array; m; k; alpha; beta }

(* ---------- 2-D convolution ---------- *)

let conv_bodies tree =
  match tree with
  | St.Band (bi, St.Band (bj, St.Seq [ St.Stmt init; St.Band (bp, St.Band (bq, St.Stmt upd)) ]))
    ->
      Some (bi, bj, bp, bq, Some init, upd)
  | St.Band (bi, St.Band (bj, St.Band (bp, St.Band (bq, St.Stmt upd)))) ->
      Some (bi, bj, bp, bq, None, upd)
  | _ -> None

let match_conv tree =
  let* bi, bj, bp, bq, init, upd = conv_bodies tree in
  let* out_h = band_extent_0 bi in
  let* out_w = band_extent_0 bj in
  let* ker_h = band_extent_0 bp in
  let* ker_w = band_extent_0 bq in
  let iters = [ bi.St.iter; bj.St.iter; bp.St.iter; bq.St.iter ] in
  let* () = if upd.St.op = Ast.Add_assign then Some () else None in
  let* out_sig = signature upd.St.write ~iters in
  let* () = if out_sig = [ `Iter 0; `Iter 1 ] then Some () else None in
  let* factors = mul_factors upd.St.rhs in
  let* () = output_not_operand upd factors in
  let accesses = accesses_of factors in
  let is_shifted idx it_a it_b =
    Affine.coeff idx it_a = 1 && Affine.coeff idx it_b = 1 && Affine.constant idx = 0
    && List.length (Affine.vars idx) = 2
  in
  let* weights, input =
    match accesses with
    | [ p; q ] -> (
        let classify (access : Access.t) =
          match signature access ~iters with
          | Some [ `Iter 2; `Iter 3 ] -> Some (`W access.Access.array)
          | _ -> (
              match access.Access.indices with
              | [ i0; i1 ]
                when is_shifted i0 bi.St.iter bp.St.iter && is_shifted i1 bj.St.iter bq.St.iter
                ->
                  Some (`In access.Access.array)
              | _ -> None)
        in
        match (classify p, classify q) with
        | Some (`W w), Some (`In i) | Some (`In i), Some (`W w) -> Some (w, i)
        | _ -> None)
    | _ -> None
  in
  let alpha = scalar_product (scalars_of factors) in
  let* beta_zero =
    match init with
    | None -> Some false
    | Some init -> (
        match beta_of_init init upd.St.write with
        | Some (Ast.Float_lit 0.0) -> Some true
        | _ -> None)
  in
  Some
    {
      input;
      weights;
      output = upd.St.write.Access.array;
      out_h;
      out_w;
      ker_h;
      ker_w;
      alpha;
      accumulate = not beta_zero;
    }

let classify tree =
  match match_gemm tree with
  | Some g -> Some (Kgemm g)
  | None -> (
      match match_gemv tree with
      | Some g -> Some (Kgemv g)
      | None -> Option.map (fun c -> Kconv c) (match_conv tree))
