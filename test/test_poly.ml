open Tdo_poly
module Ast = Tdo_lang.Ast
module Parser = Tdo_lang.Parser
module Interp = Tdo_lang.Interp
module Lower = Tdo_ir.Lower
module Exec = Tdo_ir.Exec
module Platform = Tdo_runtime.Platform
module Prng = Tdo_util.Prng
module Mat = Tdo_linalg.Mat
module Regions = Tdo_analysis.Regions
module Depgraph = Tdo_analysis.Depgraph

let parse_expr_int src =
  (* parse "void f(...) { t = <expr>; }" and pull the rhs out *)
  let f = Parser.parse_func (Printf.sprintf "void f(int t, int i, int j, int n) { t = %s; }" src) in
  match f.Ast.body with
  | [ Ast.Assign { rhs; _ } ] -> rhs
  | _ -> Alcotest.fail "unexpected parse"

(* ---------- Affine ---------- *)

let test_affine_of_expr () =
  match Affine.of_expr (parse_expr_int "2 * i + j - 3") with
  | None -> Alcotest.fail "affine expression rejected"
  | Some a ->
      Alcotest.(check int) "coeff i" 2 (Affine.coeff a "i");
      Alcotest.(check int) "coeff j" 1 (Affine.coeff a "j");
      Alcotest.(check int) "const" (-3) (Affine.constant a);
      Alcotest.(check (list string)) "vars" [ "i"; "j" ] (Affine.vars a)

let test_affine_rejects_products () =
  Alcotest.(check bool) "i*j rejected" true (Affine.of_expr (parse_expr_int "i * j") = None);
  Alcotest.(check bool) "i/2 rejected" true (Affine.of_expr (parse_expr_int "i / 2") = None);
  Alcotest.(check bool) "2*i accepted" true (Affine.of_expr (parse_expr_int "2 * i") <> None);
  Alcotest.(check bool) "i*2 accepted" true (Affine.of_expr (parse_expr_int "i * 2") <> None)

let test_affine_roundtrip () =
  let samples = [ "2 * i + j - 3"; "i"; "0"; "-i + 4"; "3 * n - 2 * i" ] in
  List.iter
    (fun src ->
      let a = Option.get (Affine.of_expr (parse_expr_int src)) in
      let b = Option.get (Affine.of_expr (Affine.to_expr a)) in
      Alcotest.(check bool) (src ^ " roundtrips") true (Affine.equal a b))
    samples

let test_affine_subst () =
  let a = Option.get (Affine.of_expr (parse_expr_int "2 * i + j")) in
  let g = Option.get (Affine.of_expr (parse_expr_int "n + 1")) in
  let s = Affine.subst a "i" g in
  Alcotest.(check int) "coeff n" 2 (Affine.coeff s "n");
  Alcotest.(check int) "coeff j" 1 (Affine.coeff s "j");
  Alcotest.(check int) "const" 2 (Affine.constant s);
  Alcotest.(check int) "i eliminated" 0 (Affine.coeff s "i")

let test_affine_algebra () =
  let i = Affine.var "i" and j = Affine.var "j" in
  let e = Affine.add (Affine.scale 3 i) (Affine.sub j (Affine.const 5)) in
  Alcotest.(check int) "3i" 3 (Affine.coeff e "i");
  Alcotest.(check bool) "sub self is zero" true
    (Affine.equal (Affine.sub e e) (Affine.const 0));
  Alcotest.(check bool) "is_constant" true (Affine.is_constant (Affine.const 7) = Some 7)

(* ---------- Access ---------- *)

let test_access_signature () =
  let lv indices = { Ast.base = "A"; indices } in
  let acc = Option.get (Access.of_lvalue (lv [ Ast.Var "i"; Ast.Var "k" ])) in
  Alcotest.(check bool) "sig (i,k)" true
    (Access.index_signature acc ~iters:[ "i"; "j"; "k" ] = Some [ `Iter 0; `Iter 2 ]);
  let acc2 = Option.get (Access.of_lvalue (lv [ Ast.Int_lit 0; Ast.Var "j" ])) in
  Alcotest.(check bool) "constant subscript is Other" true
    (Access.index_signature acc2 ~iters:[ "i"; "j" ] = Some [ `Other; `Iter 1 ]);
  let acc3 =
    Option.get (Access.of_lvalue (lv [ Ast.Binop (Ast.Add, Ast.Var "i", Ast.Var "j") ]))
  in
  Alcotest.(check bool) "i+j has no plain signature" true
    (Access.index_signature acc3 ~iters:[ "i"; "j" ] = None)

let test_access_reads () =
  let rhs = parse_expr_int "i" in
  ignore rhs;
  let f =
    Parser.parse_func
      "void f(float C[4][4], float A[4][4], float B[4][4], int i, int j, int k) { C[i][j] = C[i][j] + A[i][k] * B[k][j]; }"
  in
  match f.Ast.body with
  | [ Ast.Assign { rhs; _ } ] -> (
      match Access.reads_of_expr rhs with
      | None -> Alcotest.fail "affine reads rejected"
      | Some reads ->
          Alcotest.(check (list string)) "reads in order" [ "C"; "A"; "B" ]
            (List.map (fun (a : Access.t) -> a.Access.array) reads))
  | _ -> Alcotest.fail "unexpected parse"

(* ---------- SCoP detection ---------- *)

let gemm_src =
  {|
void gemm(float alpha, float beta, float C[8][6], float A[8][4], float B[4][6]) {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 6; j++) {
      C[i][j] *= beta;
      for (int k = 0; k < 4; k++)
        C[i][j] += alpha * A[i][k] * B[k][j];
    }
}
|}

let detect_src src = Scop_detect.detect_func (Lower.func (Parser.parse_func src))

let test_scop_gemm_shape () =
  match detect_src gemm_src with
  | Error e -> Alcotest.failf "gemm is a SCoP: %s" e
  | Ok tree -> (
      match tree with
      | Schedule_tree.Band
          ( { Schedule_tree.iter = "i"; _ },
            Schedule_tree.Band
              ( { Schedule_tree.iter = "j"; _ },
                Schedule_tree.Seq
                  [ Schedule_tree.Stmt _; Schedule_tree.Band ({ Schedule_tree.iter = "k"; _ }, Schedule_tree.Stmt _) ]
              ) ) ->
          Alcotest.(check int) "two statements" 2 (List.length (Schedule_tree.stmts tree))
      | _ -> Alcotest.failf "unexpected tree:@.%a" (fun ppf t -> Schedule_tree.pp ppf t) tree)

let test_scop_rejects_non_affine () =
  let src =
    "void f(float A[16]) { for (int i = 0; i < 4; i++) for (int j = 0; j < 4; j++) A[i * j] = 0.0; }"
  in
  match detect_src src with
  | Ok _ -> Alcotest.fail "non-affine subscript accepted"
  | Error reason -> Alcotest.(check bool) "mentions subscript" true
      (String.length reason > 0)

let test_scop_rejects_scalar_write () =
  let src = "void f(float A[4]) { float t; for (int i = 0; i < 4; i++) t = A[i]; }" in
  match detect_src src with
  | Ok _ -> Alcotest.fail "scalar write accepted"
  | Error _ -> ()

let test_band_extent () =
  match detect_src gemm_src with
  | Error e -> Alcotest.failf "detect: %s" e
  | Ok (Schedule_tree.Band (b, _)) ->
      Alcotest.(check (option int)) "extent of i" (Some 8) (Schedule_tree.band_extent b)
  | Ok _ -> Alcotest.fail "expected band root"

(* ---------- dependences (Depgraph.independent_trees) ---------- *)

let two_kernel_src shared =
  (* two GEMMs; if [shared] the second reads A again (independent),
     otherwise it reads the first kernel's output C (dependent) *)
  Printf.sprintf
    {|
void f(float C[4][4], float D[4][4], float A[4][4], float B[4][4], float E[4][4]) {
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++)
      for (int k = 0; k < 4; k++)
        C[i][j] += A[i][k] * B[k][j];
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++)
      for (int k = 0; k < 4; k++)
        D[i][j] += %s[i][k] * E[k][j];
}
|}
    (if shared then "A" else "C")

let test_deps_independence () =
  let pair shared =
    match detect_src (two_kernel_src shared) with
    | Ok (Schedule_tree.Seq [ x; y ]) -> (x, y)
    | Ok _ | Error _ -> Alcotest.fail "expected two kernels"
  in
  let x, y = pair true in
  Alcotest.(check bool) "shared input is independent (Listing 2)" true
    (Depgraph.independent_trees x y);
  let x, y = pair false in
  Alcotest.(check bool) "flow dependence detected" false (Depgraph.independent_trees x y)

let test_deps_read_write_sets () =
  match detect_src gemm_src with
  | Error e -> Alcotest.failf "detect: %s" e
  | Ok tree ->
      let reads, writes = Regions.footprints tree in
      Alcotest.(check (list string)) "writes" [ "C" ] (List.map fst writes);
      Alcotest.(check (list string)) "reads (includes += target)" [ "A"; "B"; "C" ]
        (List.map fst reads)

(* ---------- Codegen roundtrip ---------- *)

let test_codegen_semantics_preserved () =
  let ast = Parser.parse_func gemm_src in
  let f = Lower.func ast in
  let tree =
    match Scop_detect.detect_func f with Ok t -> t | Error e -> Alcotest.failf "detect: %s" e
  in
  let f' = Codegen.func_with_body f tree in
  let g = Prng.create ~seed:81 in
  let a = Mat.random g ~rows:8 ~cols:4 ~lo:(-1.0) ~hi:1.0 in
  let b = Mat.random g ~rows:4 ~cols:6 ~lo:(-1.0) ~hi:1.0 in
  let c = Mat.random g ~rows:8 ~cols:6 ~lo:(-1.0) ~hi:1.0 in
  let run func =
    let arr = Interp.arr_of_mat c in
    let platform = Platform.create () in
    ignore
      (Exec.run func ~platform
         ~args:
           [
             ("alpha", Interp.Vfloat 1.5);
             ("beta", Interp.Vfloat 0.5);
             ("C", Interp.Varray arr);
             ("A", Interp.Varray (Interp.arr_of_mat a));
             ("B", Interp.Varray (Interp.arr_of_mat b));
           ]);
    Interp.mat_of_arr arr
  in
  Alcotest.(check (float 0.0)) "codegen output is bit-identical" 0.0
    (Mat.max_abs_diff (run f) (run f'))

let test_codegen_roundtrip_structure () =
  let f = Lower.func (Parser.parse_func gemm_src) in
  let tree =
    match Scop_detect.detect_func f with Ok t -> t | Error e -> Alcotest.failf "detect: %s" e
  in
  let f' = Codegen.func_with_body f tree in
  match Scop_detect.detect_func f' with
  | Error e -> Alcotest.failf "regenerated code is still a SCoP: %s" e
  | Ok tree' ->
      Alcotest.(check int) "same statement count"
        (List.length (Schedule_tree.stmts tree))
        (List.length (Schedule_tree.stmts tree'))

let suites =
  [
    ( "poly.affine",
      [
        Alcotest.test_case "of_expr" `Quick test_affine_of_expr;
        Alcotest.test_case "rejects products" `Quick test_affine_rejects_products;
        Alcotest.test_case "roundtrip" `Quick test_affine_roundtrip;
        Alcotest.test_case "subst" `Quick test_affine_subst;
        Alcotest.test_case "algebra" `Quick test_affine_algebra;
      ] );
    ( "poly.access",
      [
        Alcotest.test_case "signatures" `Quick test_access_signature;
        Alcotest.test_case "reads extraction" `Quick test_access_reads;
      ] );
    ( "poly.scop",
      [
        Alcotest.test_case "gemm tree shape" `Quick test_scop_gemm_shape;
        Alcotest.test_case "rejects non-affine" `Quick test_scop_rejects_non_affine;
        Alcotest.test_case "rejects scalar writes" `Quick test_scop_rejects_scalar_write;
        Alcotest.test_case "band extent" `Quick test_band_extent;
      ] );
    ( "poly.deps",
      [
        Alcotest.test_case "independence (Listing 2)" `Quick test_deps_independence;
        Alcotest.test_case "read/write sets" `Quick test_deps_read_write_sets;
      ] );
    ( "poly.codegen",
      [
        Alcotest.test_case "semantics preserved" `Quick test_codegen_semantics_preserved;
        Alcotest.test_case "roundtrip structure" `Quick test_codegen_roundtrip_structure;
      ] );
  ]

(* ---------- Domain (integer box sets) ---------- *)

let test_domain_box_basics () =
  let b = Domain.box_exn [ (0, 3); (2, 5) ] in
  Alcotest.(check int) "rank" 2 (Domain.box_rank b);
  Alcotest.(check (list (pair int int))) "bounds" [ (0, 3); (2, 5) ] (Domain.box_bounds b);
  Alcotest.(check bool) "empty box rejected" true (Domain.box [ (3, 2) ] = None);
  Alcotest.(check (option (list (pair int int)))) "overlap" (Some [ (2, 3) ])
    (Option.map Domain.box_bounds
       (Domain.inter_box (Domain.box_exn [ (0, 3) ]) (Domain.box_exn [ (2, 5) ])));
  Alcotest.(check bool) "disjoint" true
    (Domain.inter_box (Domain.box_exn [ (0, 3) ]) (Domain.box_exn [ (10, 12) ]) = None)

let qcheck_domain_inter_subset =
  QCheck.Test.make ~name:"intersection points lie in both boxes" ~count:100 QCheck.small_int
    (fun seed ->
      let g = Prng.create ~seed in
      let random_box () =
        let lo = Prng.int g ~bound:10 and len = Prng.int g ~bound:6 in
        let lo2 = Prng.int g ~bound:10 and len2 = Prng.int g ~bound:6 in
        Domain.box_exn [ (lo, lo + len); (lo2, lo2 + len2) ]
      in
      let contains b p =
        List.for_all2 (fun (lo, hi) x -> lo <= x && x <= hi) (Domain.box_bounds b) p
      in
      let b1 = random_box () and b2 = random_box () in
      let i = Domain.inter_box b1 b2 in
      let ok = ref true in
      for x = 0 to 16 do
        for y = 0 to 16 do
          let p = [ x; y ] in
          let expected = contains b1 p && contains b2 p in
          if Option.fold ~none:false ~some:(fun i -> contains i p) i <> expected then ok := false
        done
      done;
      !ok)

(* ---------- access regions ---------- *)

let test_access_region () =
  let f =
    Parser.parse_func
      "void f(float A[16][16], int i, int j) { A[i + 2][2 * j] = 1.0; }"
  in
  let access =
    match f.Ast.body with
    | [ Ast.Assign { lhs; _ } ] -> Option.get (Access.of_lvalue lhs)
    | _ -> Alcotest.fail "unexpected parse"
  in
  match Access.region access ~extents:[ ("i", (0, 3)); ("j", (0, 5)) ] with
  | None -> Alcotest.fail "region should be bounded"
  | Some box ->
      Alcotest.(check (list (pair int int))) "bounds" [ (2, 5); (0, 10) ]
        (Domain.box_bounds box)

let test_access_region_negative_coeff () =
  let f = Parser.parse_func "void f(float A[16], int i) { A[8 - i] = 1.0; }" in
  let access =
    match f.Ast.body with
    | [ Ast.Assign { lhs; _ } ] -> Option.get (Access.of_lvalue lhs)
    | _ -> Alcotest.fail "unexpected parse"
  in
  match Access.region access ~extents:[ ("i", (0, 3)) ] with
  | None -> Alcotest.fail "region should be bounded"
  | Some box ->
      Alcotest.(check (list (pair int int))) "bounds flip" [ (5, 8) ] (Domain.box_bounds box)

let test_access_region_unknown_var () =
  let f = Parser.parse_func "void f(float A[16], int i, int n) { A[i + n] = 1.0; }" in
  let access =
    match f.Ast.body with
    | [ Ast.Assign { lhs; _ } ] -> Option.get (Access.of_lvalue lhs)
    | _ -> Alcotest.fail "unexpected parse"
  in
  Alcotest.(check bool) "unbounded var yields None" true
    (Access.region access ~extents:[ ("i", (0, 3)) ] = None)

(* ---------- independence of disjoint slices ---------- *)

let test_deps_disjoint_slices_independent () =
  (* both nests write C, but provably disjoint row ranges *)
  let src =
    {|
void halves(float C[8][4], float A[4][4], float B[4][4]) {
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++)
      C[i][j] += A[i][j];
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++)
      C[i + 4][j] += B[i][j];
}
|}
  in
  match detect_src src with
  | Ok (Schedule_tree.Seq [ x; y ]) ->
      Alcotest.(check bool) "disjoint slices are independent" true
        (Depgraph.independent_trees x y)
  | Ok _ | Error _ -> Alcotest.fail "expected two kernels"

let test_deps_overlapping_slices_dependent () =
  let src =
    {|
void overlap(float C[8][4], float A[4][4], float B[4][4]) {
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++)
      C[i][j] += A[i][j];
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++)
      C[i + 2][j] += B[i][j];
}
|}
  in
  match detect_src src with
  | Ok (Schedule_tree.Seq [ x; y ]) ->
      Alcotest.(check bool) "overlapping slices conflict" false
        (Depgraph.independent_trees x y)
  | Ok _ | Error _ -> Alcotest.fail "expected two kernels"

let domain_suite =
  ( "poly.domain",
    [
      Alcotest.test_case "box basics" `Quick test_domain_box_basics;
      QCheck_alcotest.to_alcotest qcheck_domain_inter_subset;
    ] )

let region_suite =
  ( "poly.regions",
    [
      Alcotest.test_case "access region" `Quick test_access_region;
      Alcotest.test_case "negative coefficients" `Quick test_access_region_negative_coeff;
      Alcotest.test_case "unknown variable" `Quick test_access_region_unknown_var;
      Alcotest.test_case "disjoint slices independent" `Quick
        test_deps_disjoint_slices_independent;
      Alcotest.test_case "overlapping slices dependent" `Quick
        test_deps_overlapping_slices_dependent;
    ] )

let suites = suites @ [ domain_suite; region_suite ]
