open Tdo_lang
module Mat = Tdo_linalg.Mat
module Blas_ref = Tdo_linalg.Blas_ref
module Prng = Tdo_util.Prng

let gemm_src =
  {|
/* C = alpha*A*B + beta*C, PolyBench-style */
void gemm(float alpha, float beta, float C[8][6], float A[8][4], float B[4][6]) {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 6; j++) {
      C[i][j] *= beta;
      for (int k = 0; k < 4; k++)
        C[i][j] += alpha * A[i][k] * B[k][j];
    }
}
|}

(* ---------- lexer ---------- *)

let test_lexer_tokens () =
  let toks = List.map fst (Lexer.tokenize "for (int i = 0; i < 10; i++) x += 1.5;") in
  Alcotest.(check int) "token count" 19 (List.length toks);
  Alcotest.(check bool) "keyword" true (List.hd toks = Lexer.KW_FOR);
  Alcotest.(check bool) "float literal" true (List.mem (Lexer.FLOAT 1.5) toks);
  Alcotest.(check bool) "plus-plus" true (List.mem Lexer.PLUS_PLUS toks)

let test_lexer_comments () =
  let toks = List.map fst (Lexer.tokenize "a // line comment\n /* block \n comment */ b") in
  Alcotest.(check bool) "comments stripped" true
    (toks = [ Lexer.IDENT "a"; Lexer.IDENT "b"; Lexer.EOF ])

let test_lexer_line_numbers () =
  let toks = Lexer.tokenize "a\nb\nc" in
  let line_of ident =
    List.find_map (fun (t, l) -> if t = Lexer.IDENT ident then Some l else None) toks
  in
  Alcotest.(check (option int)) "line 1" (Some 1) (line_of "a");
  Alcotest.(check (option int)) "line 3" (Some 3) (line_of "c")

let test_lexer_error () =
  Alcotest.(check bool) "bad char raises" true
    (try
       ignore (Lexer.tokenize "a ? b");
       false
     with Lexer.Lex_error { line = 1; _ } -> true);
  let message src =
    match Lexer.tokenize src with
    | _ -> Alcotest.failf "%S lexed" src
    | exception Lexer.Lex_error { message; _ } -> message
  in
  Alcotest.(check string) "oversized integer" "integer literal out of range"
    (message "void f(float A[999999999999999999999]) {}");
  Alcotest.(check string) "exponent without digits" "malformed float literal \"1e\""
    (message "x = 1e;");
  Alcotest.(check bool) "max_int still lexes" true
    (List.mem (Lexer.INT max_int) (List.map fst (Lexer.tokenize (string_of_int max_int))))

(* ---------- parser ---------- *)

let test_parse_gemm_shape () =
  let f = Parser.parse_func gemm_src in
  Alcotest.(check string) "name" "gemm" f.Ast.fname;
  Alcotest.(check int) "params" 5 (List.length f.Ast.params);
  let c = List.nth f.Ast.params 2 in
  Alcotest.(check (list int)) "C dims" [ 8; 6 ] c.Ast.dims;
  match f.Ast.body with
  | [ Ast.For { var = "i"; body = [ Ast.For { var = "j"; body; _ } ]; _ } ] ->
      Alcotest.(check int) "j body has init + k loop" 2 (List.length body)
  | _ -> Alcotest.fail "unexpected loop structure"

let test_parse_precedence () =
  let f = Parser.parse_func "void f(float x) { x = 1.0 + 2.0 * 3.0; }" in
  match f.Ast.body with
  | [ Ast.Assign { rhs = Ast.Binop (Ast.Add, Ast.Float_lit 1.0, Ast.Binop (Ast.Mul, _, _)); _ } ]
    ->
      ()
  | _ -> Alcotest.fail "multiplication must bind tighter than addition"

let test_parse_pp_roundtrip () =
  let f = Parser.parse_func gemm_src in
  let printed = Format.asprintf "%a" Ast.pp_func f in
  let f2 = Parser.parse_func printed in
  let printed2 = Format.asprintf "%a" Ast.pp_func f2 in
  Alcotest.(check string) "pp . parse is stable" printed printed2

let test_parse_step () =
  let f = Parser.parse_func "void f(float A[16]) { for (int i = 0; i < 16; i += 4) A[i] = 0.0; }" in
  match f.Ast.body with
  | [ Ast.For { step = 4; _ } ] -> ()
  | _ -> Alcotest.fail "step not parsed"

let test_parse_errors () =
  let expect_error src =
    try
      ignore (Parser.parse_func src);
      false
    with Parser.Parse_error _ -> true
  in
  Alcotest.(check bool) "missing semicolon" true (expect_error "void f(float x) { x = 1.0 }");
  Alcotest.(check bool) "wrong loop var" true
    (expect_error "void f() { for (int i = 0; j < 4; i++) { } }");
  Alcotest.(check bool) "negative step" true
    (expect_error "void f(float A[4]) { for (int i = 0; i < 4; i += 0) A[i] = 0.0; }");
  Alcotest.(check bool) "non-literal dims" true (expect_error "void f(int n, float A[n]) { }")

(* ---------- typecheck ---------- *)

let check_type_error src =
  let f = Parser.parse_func src in
  try
    Typecheck.check_func f;
    false
  with Typecheck.Type_error _ -> true

let test_typecheck_accepts_gemm () = Typecheck.check_func (Parser.parse_func gemm_src)

let test_typecheck_rank () =
  Alcotest.(check bool) "rank mismatch" true
    (check_type_error "void f(float A[4][4]) { A[1] = 0.0; }")

let test_typecheck_undeclared () =
  Alcotest.(check bool) "undeclared" true (check_type_error "void f() { x = 1.0; }")

let test_typecheck_float_subscript () =
  Alcotest.(check bool) "float subscript" true
    (check_type_error "void f(float A[4], float x) { A[x] = 1.0; }")

let test_typecheck_int_from_float () =
  Alcotest.(check bool) "int = float" true
    (check_type_error "void f() { int i; i = 1.5; }")

let test_typecheck_scoping () =
  (* the same loop variable name in sibling loops is fine *)
  Typecheck.check_func
    (Parser.parse_func
       "void f(float A[4]) { for (int i = 0; i < 4; i++) A[i] = 0.0; for (int i = 0; i < 4; i++) A[i] = 1.0; }");
  (* a local declared inside a loop body is invisible outside *)
  Alcotest.(check bool) "scope ends with block" true
    (check_type_error
       "void f(float A[4]) { for (int i = 0; i < 4; i++) { float t; t = A[i]; } A[0] = t; }")

(* ---------- interpreter ---------- *)

let test_interp_gemm_matches_blas () =
  let f = Parser.parse_func gemm_src in
  Typecheck.check_func f;
  let g = Prng.create ~seed:61 in
  let a = Mat.random g ~rows:8 ~cols:4 ~lo:(-1.0) ~hi:1.0 in
  let b = Mat.random g ~rows:4 ~cols:6 ~lo:(-1.0) ~hi:1.0 in
  let c = Mat.random g ~rows:8 ~cols:6 ~lo:(-1.0) ~hi:1.0 in
  let arr_c = Interp.arr_of_mat c in
  Interp.run f
    ~args:
      [
        ("alpha", Interp.Vfloat 1.5);
        ("beta", Interp.Vfloat 0.5);
        ("C", Interp.Varray arr_c);
        ("A", Interp.Varray (Interp.arr_of_mat a));
        ("B", Interp.Varray (Interp.arr_of_mat b));
      ];
  let expected = Mat.copy c in
  Blas_ref.gemm ~alpha:1.5 ~beta:0.5 ~a ~b ~c:expected ();
  (* binary32 stores introduce bounded rounding *)
  Alcotest.(check bool) "interp close to f64 reference" true
    (Mat.max_abs_diff expected (Interp.mat_of_arr arr_c) < 1e-5)

let test_interp_local_array () =
  let src =
    {|
void two_phase(float A[4], float B[4]) {
  float tmp[4];
  for (int i = 0; i < 4; i++) tmp[i] = A[i] * 2.0;
  for (int i = 0; i < 4; i++) B[i] = tmp[i] + 1.0;
}
|}
  in
  let f = Parser.parse_func src in
  Typecheck.check_func f;
  let a = Interp.arr_of_mat (Mat.of_arrays [| [| 1.0; 2.0; 3.0; 4.0 |] |]) in
  let a = { Interp.dims = [ 4 ]; data = a.Interp.data } in
  let b = Interp.make_array ~dims:[ 4 ] in
  Interp.run f ~args:[ ("A", Interp.Varray a); ("B", Interp.Varray b) ];
  Alcotest.(check (array (float 1e-6))) "through local array" [| 3.0; 5.0; 7.0; 9.0 |]
    b.Interp.data

let test_interp_int_arithmetic () =
  let src =
    {|
void stride(float A[16]) {
  for (int i = 0; i < 4; i++)
    A[i * 4 + 1] = 1.0;
}
|}
  in
  let f = Parser.parse_func src in
  Typecheck.check_func f;
  let a = Interp.make_array ~dims:[ 16 ] in
  Interp.run f ~args:[ ("A", Interp.Varray a) ];
  let ones = Array.to_list a.Interp.data |> List.filteri (fun i _ -> i mod 4 = 1) in
  Alcotest.(check bool) "strided stores" true (List.for_all (fun v -> v = 1.0) ones);
  Alcotest.(check (float 0.0)) "other slots untouched" 0.0 a.Interp.data.(0)

let test_interp_bounds_check () =
  let f = Parser.parse_func "void f(float A[4]) { for (int i = 0; i < 8; i++) A[i] = 0.0; }" in
  Alcotest.(check bool) "out of bounds raises" true
    (try
       Interp.run f ~args:[ ("A", Interp.Varray (Interp.make_array ~dims:[ 4 ])) ];
       false
     with Interp.Runtime_error _ -> true)

let test_interp_missing_arg () =
  let f = Parser.parse_func "void f(float x) { }" in
  Alcotest.(check bool) "missing argument raises" true
    (try
       Interp.run f ~args:[];
       false
     with Interp.Runtime_error _ -> true)

let test_interp_f32_store_rounding () =
  let f = Parser.parse_func "void f(float A[1], float x) { A[0] = x; }" in
  let a = Interp.make_array ~dims:[ 1 ] in
  Interp.run f ~args:[ ("A", Interp.Varray a); ("x", Interp.Vfloat 0.1) ];
  Alcotest.(check bool) "store rounded to binary32" true (a.Interp.data.(0) <> 0.1);
  Alcotest.(check bool) "close to 0.1" true (Float.abs (a.Interp.data.(0) -. 0.1) < 1e-7)

let qcheck_interp_gemm_random_sizes =
  QCheck.Test.make ~name:"interpreted gemm matches reference on random data" ~count:20
    QCheck.small_int (fun seed ->
      let g = Prng.create ~seed:(seed + 500) in
      let m = 1 + Prng.int g ~bound:6
      and n = 1 + Prng.int g ~bound:6
      and k = 1 + Prng.int g ~bound:6 in
      let src =
        Printf.sprintf
          {|
void gemm(float alpha, float beta, float C[%d][%d], float A[%d][%d], float B[%d][%d]) {
  for (int i = 0; i < %d; i++)
    for (int j = 0; j < %d; j++) {
      C[i][j] *= beta;
      for (int k = 0; k < %d; k++)
        C[i][j] += alpha * A[i][k] * B[k][j];
    }
}
|}
          m n m k k n m n k
      in
      let f = Parser.parse_func src in
      Typecheck.check_func f;
      let a = Mat.random g ~rows:m ~cols:k ~lo:(-1.0) ~hi:1.0 in
      let b = Mat.random g ~rows:k ~cols:n ~lo:(-1.0) ~hi:1.0 in
      let c = Mat.random g ~rows:m ~cols:n ~lo:(-1.0) ~hi:1.0 in
      let arr_c = Interp.arr_of_mat c in
      Interp.run f
        ~args:
          [
            ("alpha", Interp.Vfloat 1.0);
            ("beta", Interp.Vfloat 1.0);
            ("C", Interp.Varray arr_c);
            ("A", Interp.Varray (Interp.arr_of_mat a));
            ("B", Interp.Varray (Interp.arr_of_mat b));
          ];
      let expected = Mat.copy c in
      Blas_ref.gemm ~alpha:1.0 ~beta:1.0 ~a ~b ~c:expected ();
      Mat.max_abs_diff expected (Interp.mat_of_arr arr_c) < 1e-5)

let suites =
  [
    ( "lang.lexer",
      [
        Alcotest.test_case "tokens" `Quick test_lexer_tokens;
        Alcotest.test_case "comments" `Quick test_lexer_comments;
        Alcotest.test_case "line numbers" `Quick test_lexer_line_numbers;
        Alcotest.test_case "errors" `Quick test_lexer_error;
      ] );
    ( "lang.parser",
      [
        Alcotest.test_case "gemm shape" `Quick test_parse_gemm_shape;
        Alcotest.test_case "precedence" `Quick test_parse_precedence;
        Alcotest.test_case "pp roundtrip" `Quick test_parse_pp_roundtrip;
        Alcotest.test_case "loop step" `Quick test_parse_step;
        Alcotest.test_case "errors" `Quick test_parse_errors;
      ] );
    ( "lang.typecheck",
      [
        Alcotest.test_case "accepts gemm" `Quick test_typecheck_accepts_gemm;
        Alcotest.test_case "rank" `Quick test_typecheck_rank;
        Alcotest.test_case "undeclared" `Quick test_typecheck_undeclared;
        Alcotest.test_case "float subscript" `Quick test_typecheck_float_subscript;
        Alcotest.test_case "int = float" `Quick test_typecheck_int_from_float;
        Alcotest.test_case "scoping" `Quick test_typecheck_scoping;
      ] );
    ( "lang.interp",
      [
        Alcotest.test_case "gemm matches blas" `Quick test_interp_gemm_matches_blas;
        Alcotest.test_case "local array" `Quick test_interp_local_array;
        Alcotest.test_case "int arithmetic" `Quick test_interp_int_arithmetic;
        Alcotest.test_case "bounds check" `Quick test_interp_bounds_check;
        Alcotest.test_case "missing argument" `Quick test_interp_missing_arg;
        Alcotest.test_case "f32 rounding" `Quick test_interp_f32_store_rounding;
        QCheck_alcotest.to_alcotest qcheck_interp_gemm_random_sizes;
      ] );
  ]

(* ---------- builder ---------- *)

let test_builder_gemm_equivalent () =
  (* the builder must produce the same AST (up to printing) as parsing *)
  let built =
    let open Builder in
    func "gemm"
      [ scalar Ast.Tfloat "alpha"; scalar Ast.Tfloat "beta";
        array "C" [ 8; 6 ]; array "A" [ 8; 4 ]; array "B" [ 4; 6 ] ]
      [
        for_ "i" (int 8)
          [
            for_ "j" (int 6)
              [
                mul_assign "C" [ var "i"; var "j" ] (var "beta");
                for_ "k" (int 4)
                  [
                    add_assign "C" [ var "i"; var "j" ]
                      (var "alpha" * idx "A" [ var "i"; var "k" ]
                      * idx "B" [ var "k"; var "j" ]);
                  ];
              ];
          ];
      ]
  in
  let parsed = Parser.parse_func gemm_src in
  Alcotest.(check string) "same printed form"
    (Format.asprintf "%a" Ast.pp_func parsed)
    (Format.asprintf "%a" Ast.pp_func built)

let test_builder_typechecks () =
  Alcotest.(check bool) "ill-typed construction rejected" true
    (try
       ignore
         (Builder.func "bad" [ Builder.array "A" [ 4 ] ]
            [ Builder.assign "A" [ Builder.var "i" ] (Builder.float 0.0) ]);
       false
     with Typecheck.Type_error _ -> true)

let test_builder_runs_through_flow () =
  (* a built kernel goes through interp like a parsed one *)
  let built =
    let open Builder in
    func "scale" [ array "A" [ 8 ]; scalar Ast.Tfloat "s" ]
      [ for_ "i" (int 8) [ mul_assign "A" [ var "i" ] (var "s") ] ]
  in
  let a = Interp.make_array ~dims:[ 8 ] in
  Array.iteri (fun i _ -> a.Interp.data.(i) <- float_of_int i) a.Interp.data;
  Interp.run built ~args:[ ("A", Interp.Varray a); ("s", Interp.Vfloat 2.0) ];
  Alcotest.(check (float 0.0)) "doubled" 14.0 a.Interp.data.(7)

let builder_suite =
  ( "lang.builder",
    [
      Alcotest.test_case "matches parsed gemm" `Quick test_builder_gemm_equivalent;
      Alcotest.test_case "typechecks" `Quick test_builder_typechecks;
      Alcotest.test_case "runs" `Quick test_builder_runs_through_flow;
    ] )

let suites = suites @ [ builder_suite ]

(* ---------- lexer number formats ---------- *)

let test_lexer_number_formats () =
  let toks src = List.map fst (Lexer.tokenize src) in
  Alcotest.(check bool) "scientific" true (List.mem (Lexer.FLOAT 1000.0) (toks "1e3"));
  Alcotest.(check bool) "negative exponent" true
    (List.mem (Lexer.FLOAT 0.025) (toks "2.5e-2"));
  Alcotest.(check bool) "f suffix" true (List.mem (Lexer.FLOAT 0.5) (toks "0.5f"));
  Alcotest.(check bool) "plain int stays int" true (List.mem (Lexer.INT 42) (toks "42"))

let test_parse_unary_minus_and_div () =
  let f = Parser.parse_func "void f(float x, float y) { x = -y * 2.0 / 4.0; }" in
  match f.Ast.body with
  | [ Ast.Assign { rhs = Ast.Binop (Ast.Div, Ast.Binop (Ast.Mul, Ast.Neg _, _), _); _ } ] -> ()
  | _ -> Alcotest.fail "unary minus should bind tighter than * and /"

let number_suite =
  ( "lang.numbers",
    [
      Alcotest.test_case "number formats" `Quick test_lexer_number_formats;
      Alcotest.test_case "unary minus / division" `Quick test_parse_unary_minus_and_div;
    ] )

let suites = suites @ [ number_suite ]
