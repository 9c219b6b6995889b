open Tdo_tactics
module St = Tdo_poly.Schedule_tree
module Scop_detect = Tdo_poly.Scop_detect
module Ast = Tdo_lang.Ast
module Parser = Tdo_lang.Parser
module Interp = Tdo_lang.Interp
module Lower = Tdo_ir.Lower
module Exec = Tdo_ir.Exec
module Ir = Tdo_ir.Ir
module Platform = Tdo_runtime.Platform
module Api = Tdo_runtime.Api
module Prng = Tdo_util.Prng
module Mat = Tdo_linalg.Mat
module Blas_ref = Tdo_linalg.Blas_ref

(* The offloaded function and its report, [None] when nothing was
   offloaded (the input comes back unchanged). *)
let run_pipeline ?config f =
  let c = Pipeline.run_checked ?config f in
  match c.Pipeline.outcome with
  | Pipeline.Offloaded report -> (c.Pipeline.func, Some report)
  | Pipeline.Not_scop _ | Pipeline.Rejected _ -> (c.Pipeline.func, None)

let detect_src src = Scop_detect.detect_func (Lower.func (Parser.parse_func src))

let tree_of src =
  match detect_src src with Ok t -> t | Error e -> Alcotest.failf "detect: %s" e

let gemm_src ?(alpha = true) ?(beta = true) m n k =
  Printf.sprintf
    {|
void gemm(float alpha, float beta, float C[%d][%d], float A[%d][%d], float B[%d][%d]) {
  for (int i = 0; i < %d; i++)
    for (int j = 0; j < %d; j++) {
      %s
      for (int k = 0; k < %d; k++)
        C[i][j] += %sA[i][k] * B[k][j];
    }
}
|}
    m n m k k n m n
    (if beta then "C[i][j] *= beta;" else "C[i][j] = 0.0;")
    k
    (if alpha then "alpha * " else "")

(* ---------- pattern detectors ---------- *)

let test_pattern_gemm () =
  match Patterns.match_gemm (tree_of (gemm_src 8 6 4)) with
  | None -> Alcotest.fail "gemm not detected"
  | Some g ->
      Alcotest.(check string) "C" "C" g.Patterns.c_array;
      Alcotest.(check string) "A" "A" g.Patterns.a.Patterns.array;
      Alcotest.(check string) "B" "B" g.Patterns.b.Patterns.array;
      Alcotest.(check bool) "no transposes" false
        (g.Patterns.a.Patterns.trans || g.Patterns.b.Patterns.trans);
      Alcotest.(check (list int)) "dims" [ 8; 6; 4 ] [ g.Patterns.m; g.Patterns.n; g.Patterns.k ];
      Alcotest.(check bool) "alpha captured" true (g.Patterns.alpha = Ast.Var "alpha");
      Alcotest.(check bool) "beta captured" true (g.Patterns.beta = Ast.Var "beta")

let test_pattern_gemm_zero_beta () =
  match Patterns.match_gemm (tree_of (gemm_src ~alpha:false ~beta:false 4 4 4)) with
  | None -> Alcotest.fail "gemm not detected"
  | Some g ->
      Alcotest.(check bool) "beta is zero" true (g.Patterns.beta = Ast.Float_lit 0.0);
      Alcotest.(check bool) "alpha is one" true (g.Patterns.alpha = Ast.Float_lit 1.0)

let test_pattern_gemm_transposed () =
  let src =
    {|
void f(float C[6][5], float A[7][6], float B[5][7]) {
  for (int i = 0; i < 6; i++)
    for (int j = 0; j < 5; j++)
      for (int k = 0; k < 7; k++)
        C[i][j] += A[k][i] * B[j][k];
}
|}
  in
  match Patterns.match_gemm (tree_of src) with
  | None -> Alcotest.fail "transposed gemm not detected"
  | Some g ->
      Alcotest.(check bool) "A transposed" true g.Patterns.a.Patterns.trans;
      Alcotest.(check bool) "B transposed" true g.Patterns.b.Patterns.trans

let test_pattern_gemv () =
  let src =
    {|
void mv(float y[12], float A[12][9], float x[9]) {
  for (int i = 0; i < 12; i++) {
    y[i] = 0.0;
    for (int j = 0; j < 9; j++)
      y[i] += A[i][j] * x[j];
  }
}
|}
  in
  match Patterns.match_gemv (tree_of src) with
  | None -> Alcotest.fail "gemv not detected"
  | Some g ->
      Alcotest.(check string) "matrix" "A" g.Patterns.a.Patterns.array;
      Alcotest.(check string) "x" "x" g.Patterns.x_array;
      Alcotest.(check string) "y" "y" g.Patterns.y_array;
      Alcotest.(check (list int)) "dims" [ 12; 9 ] [ g.Patterns.m; g.Patterns.k ]

let test_pattern_gemv_transposed () =
  let src =
    {|
void mtv(float y[9], float A[12][9], float x[12]) {
  for (int i = 0; i < 9; i++)
    for (int j = 0; j < 12; j++)
      y[i] += A[j][i] * x[j];
}
|}
  in
  match Patterns.match_gemv (tree_of src) with
  | None -> Alcotest.fail "A^T x not detected"
  | Some g ->
      Alcotest.(check bool) "transposed" true g.Patterns.a.Patterns.trans;
      Alcotest.(check bool) "beta defaults to 1" true (g.Patterns.beta = Ast.Float_lit 1.0)

let test_pattern_conv () =
  let src =
    {|
void conv(float out[6][6], float in[8][8], float w[3][3]) {
  for (int i = 0; i < 6; i++)
    for (int j = 0; j < 6; j++) {
      out[i][j] = 0.0;
      for (int p = 0; p < 3; p++)
        for (int q = 0; q < 3; q++)
          out[i][j] += w[p][q] * in[i + p][j + q];
    }
}
|}
  in
  match Patterns.match_conv (tree_of src) with
  | None -> Alcotest.fail "conv not detected"
  | Some c ->
      Alcotest.(check string) "input" "in" c.Patterns.input;
      Alcotest.(check string) "weights" "w" c.Patterns.weights;
      Alcotest.(check (list int)) "geometry" [ 6; 6; 3; 3 ]
        [ c.Patterns.out_h; c.Patterns.out_w; c.Patterns.ker_h; c.Patterns.ker_w ];
      Alcotest.(check bool) "zero-init" false c.Patterns.accumulate

let test_pattern_rejects_stencil () =
  let src =
    {|
void blur(float out[14], float in[16]) {
  for (int i = 0; i < 14; i++)
    out[i] = in[i] + in[i + 1] + in[i + 2];
}
|}
  in
  Alcotest.(check bool) "stencil is not a CIM kernel" true
    (Patterns.classify (tree_of src) = None)

(* ---------- end-to-end pipeline ---------- *)

let small_xbar_config rows cols =
  { Offload.default_config with Offload.xbar_rows = rows; xbar_cols = cols }

let platform_with_xbar rows cols =
  let engine =
    {
      Tdo_cimacc.Micro_engine.default_config with
      Tdo_cimacc.Micro_engine.xbar =
        { Tdo_pcm.Crossbar.default_config with Tdo_pcm.Crossbar.rows; cols };
    }
  in
  Platform.create ~config:{ Platform.default_config with Platform.engine } ()

let run_both ?(config = Offload.default_config) ~xbar_rows ~xbar_cols src args_of =
  let ast = Parser.parse_func src in
  let host_f = Lower.func ast in
  let cim_f, report =
    run_pipeline ~config:{ config with Offload.xbar_rows; xbar_cols } host_f
  in
  let run f =
    let platform = platform_with_xbar xbar_rows xbar_cols in
    let args, readback = args_of () in
    let metrics = Exec.run f ~platform ~args in
    (readback (), metrics, platform)
  in
  let host_result, host_metrics, _ = run host_f in
  let cim_result, cim_metrics, cim_platform = run cim_f in
  (host_result, cim_result, host_metrics, cim_metrics, report, cim_platform, cim_f)

let gemm_args m n k seed =
  let g = Prng.create ~seed in
  let a = Mat.random g ~rows:m ~cols:k ~lo:(-1.0) ~hi:1.0 in
  let b = Mat.random g ~rows:k ~cols:n ~lo:(-1.0) ~hi:1.0 in
  let c = Mat.random g ~rows:m ~cols:n ~lo:(-1.0) ~hi:1.0 in
  fun () ->
    let arr = Interp.arr_of_mat c in
    ( [
        ("alpha", Interp.Vfloat 1.0);
        ("beta", Interp.Vfloat 0.5);
        ("C", Interp.Varray arr);
        ("A", Interp.Varray (Interp.arr_of_mat a));
        ("B", Interp.Varray (Interp.arr_of_mat b));
      ],
      fun () -> Interp.mat_of_arr arr )

let test_pipeline_gemm_offloaded () =
  let host, cim, _, cim_metrics, report, _, cim_f =
    run_both ~xbar_rows:64 ~xbar_cols:64 (gemm_src 16 12 16) (gemm_args 16 12 16 91)
  in
  (match report with
  | None -> Alcotest.fail "scop not detected"
  | Some r ->
      Alcotest.(check int) "one kernel" 1 r.Offload.kernels_detected;
      Alcotest.(check int) "offloaded" 1 r.Offload.kernels_offloaded);
  Alcotest.(check bool) "cim calls in the IR" true (Ir.contains_cim_calls cim_f);
  Alcotest.(check bool) "device used" true cim_metrics.Exec.used_cim;
  Alcotest.(check bool) "result close to host" true (Mat.max_abs_diff host cim < 0.5)

let test_pipeline_host_unchanged_when_no_pattern () =
  let src =
    {|
void axpy(float y[32], float x[32], float a) {
  for (int i = 0; i < 32; i++)
    y[i] += a * x[i];
}
|}
  in
  let f = Lower.func (Parser.parse_func src) in
  let f', report = run_pipeline f in
  Alcotest.(check bool) "scop detected" true (report <> None);
  Alcotest.(check int) "nothing offloaded" 0 (Option.get report).Offload.kernels_offloaded;
  Alcotest.(check bool) "no cim calls" false (Ir.contains_cim_calls f')

(* Listing 2: two GEMMs sharing A *)
let listing2_src =
  {|
void listing2(float C[16][12], float D[16][12], float A[16][16], float B[16][12], float E[16][12]) {
  for (int i = 0; i < 16; i++)
    for (int j = 0; j < 12; j++)
      for (int k = 0; k < 16; k++)
        C[i][j] += A[i][k] * B[k][j];
  for (int i = 0; i < 16; i++)
    for (int j = 0; j < 12; j++)
      for (int k = 0; k < 16; k++)
        D[i][j] += A[i][k] * E[k][j];
}
|}

let listing2_args seed =
  let g = Prng.create ~seed in
  let a = Mat.random g ~rows:16 ~cols:16 ~lo:(-1.0) ~hi:1.0 in
  let b = Mat.random g ~rows:16 ~cols:12 ~lo:(-1.0) ~hi:1.0 in
  let e = Mat.random g ~rows:16 ~cols:12 ~lo:(-1.0) ~hi:1.0 in
  fun () ->
    let c = Interp.make_array ~dims:[ 16; 12 ] in
    let d = Interp.make_array ~dims:[ 16; 12 ] in
    ( [
        ("C", Interp.Varray c);
        ("D", Interp.Varray d);
        ("A", Interp.Varray (Interp.arr_of_mat a));
        ("B", Interp.Varray (Interp.arr_of_mat b));
        ("E", Interp.Varray (Interp.arr_of_mat e));
      ],
      fun () ->
        Mat.of_arrays
          (Array.append
             (Mat.to_arrays (Interp.mat_of_arr c))
             (Mat.to_arrays (Interp.mat_of_arr d))) )

let crossbar_writes platform =
  (Tdo_pcm.Crossbar.counters
     (Tdo_cimacc.Micro_engine.crossbar (Tdo_cimacc.Accel.engine platform.Platform.accel)))
    .Tdo_pcm.Crossbar.logical_writes

let test_pipeline_fusion_listing2 () =
  let host, cim, _, _, report, cim_platform, _ =
    run_both ~xbar_rows:64 ~xbar_cols:64 listing2_src (listing2_args 92)
  in
  (match report with
  | None -> Alcotest.fail "scop not detected"
  | Some r ->
      Alcotest.(check int) "two kernels detected" 2 r.Offload.kernels_detected;
      Alcotest.(check int) "one fused group" 1 r.Offload.fused_groups);
  Alcotest.(check bool) "results match host" true (Mat.max_abs_diff host cim < 0.5);
  (* smart mapping: A (16x16) written once; B and E streamed *)
  Alcotest.(check int) "A written exactly once" (16 * 16) (crossbar_writes cim_platform)

let test_pipeline_fusion_naive_ablation () =
  let _, _, _, _, _, naive_platform, _ =
    run_both
      ~config:{ Offload.default_config with Offload.naive_pin = true }
      ~xbar_rows:64 ~xbar_cols:64 listing2_src (listing2_args 92)
  in
  (* naive mapping: B and E each written once *)
  Alcotest.(check int) "naive writes B and E" (2 * 16 * 12) (crossbar_writes naive_platform)

let test_pipeline_fusion_respects_dependences () =
  let src =
    {|
void chained(float C[8][8], float D[8][8], float A[8][8], float B[8][8]) {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++)
      for (int k = 0; k < 8; k++)
        C[i][j] += A[i][k] * B[k][j];
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++)
      for (int k = 0; k < 8; k++)
        D[i][j] += C[i][k] * B[k][j];
}
|}
  in
  let f = Lower.func (Parser.parse_func src) in
  let _, report = run_pipeline f in
  match report with
  | None -> Alcotest.fail "scop not detected"
  | Some r ->
      Alcotest.(check int) "both offloaded" 2 r.Offload.kernels_offloaded;
      Alcotest.(check int) "no fusion across the dependence" 0 r.Offload.fused_groups

(* Listing 3: tiling for an oversized GEMM *)
let test_pipeline_tiling_listing3 () =
  let m = 32 and n = 8 and k = 32 in
  let host, cim, _, cim_metrics, report, _, _ =
    run_both ~xbar_rows:16 ~xbar_cols:16
      (gemm_src ~alpha:false ~beta:false m n k)
      (gemm_args m n k 93)
  in
  (match report with
  | None -> Alcotest.fail "scop not detected"
  | Some r -> Alcotest.(check int) "tiled" 1 r.Offload.tiled_kernels);
  Alcotest.(check bool) "tiled result matches host" true (Mat.max_abs_diff host cim < 1.0);
  (* 2 ii-tiles x 2 k-tiles = 4 launches *)
  Alcotest.(check int) "one launch per tile" 4 cim_metrics.Exec.cim_launches

let test_pipeline_selective_skips_gemv () =
  let src =
    {|
void mv(float y[24], float A[24][24], float x[24]) {
  for (int i = 0; i < 24; i++) {
    y[i] = 0.0;
    for (int j = 0; j < 24; j++)
      y[i] += A[i][j] * x[j];
  }
}
|}
  in
  let f = Lower.func (Parser.parse_func src) in
  let config = { Offload.default_config with Offload.min_intensity = Some 100.0 } in
  let f', report = run_pipeline ~config f in
  (match report with
  | None -> Alcotest.fail "scop not detected"
  | Some r -> Alcotest.(check int) "skipped" 1 r.Offload.skipped_low_intensity);
  Alcotest.(check bool) "stays on the host" false (Ir.contains_cim_calls f')

let test_pipeline_fused_group_intensity () =
  (* two GEMMs sharing A: fused intensity = 2*16^3 / (16*16) = 32
     MACs/write (A programmed once for the batch); each member alone
     only reaches 16. A threshold between the two must keep the fused
     batch on the device and, with fusion disabled, skip both. *)
  let src =
    {|
void pair(float C[16][16], float D[16][16], float A[16][16], float B[16][16], float E[16][16]) {
  for (int i = 0; i < 16; i++)
    for (int j = 0; j < 16; j++)
      for (int k = 0; k < 16; k++)
        C[i][j] += A[i][k] * B[k][j];
  for (int i = 0; i < 16; i++)
    for (int j = 0; j < 16; j++)
      for (int k = 0; k < 16; k++)
        D[i][j] += A[i][k] * E[k][j];
}
|}
  in
  let f = Lower.func (Parser.parse_func src) in
  let threshold = Some 20.0 in
  let fused_cfg = { Offload.default_config with Offload.min_intensity = threshold } in
  let f_fused, report_fused = run_pipeline ~config:fused_cfg f in
  (match report_fused with
  | None -> Alcotest.fail "scop not detected"
  | Some r ->
      Alcotest.(check int) "batch clears the threshold" 0 r.Offload.skipped_low_intensity;
      Alcotest.(check int) "both offloaded" 2 r.Offload.kernels_offloaded;
      Alcotest.(check int) "as one batch" 1 r.Offload.fused_groups);
  Alcotest.(check bool) "device used when fused" true (Ir.contains_cim_calls f_fused);
  let solo_cfg = { fused_cfg with Offload.enable_fusion = false } in
  let f_solo, report_solo = run_pipeline ~config:solo_cfg f in
  (match report_solo with
  | None -> Alcotest.fail "scop not detected"
  | Some r ->
      Alcotest.(check int) "members alone are skipped" 2 r.Offload.skipped_low_intensity;
      Alcotest.(check int) "nothing offloaded" 0 r.Offload.kernels_offloaded);
  Alcotest.(check bool) "stays on the host unfused" false (Ir.contains_cim_calls f_solo)

let test_pipeline_2mm_dataflow () =
  (* tmp = A*B; D = tmp*C: dependent kernels, both offloaded, tmp must
     stay consistent between them *)
  let src =
    {|
void two_mm(float tmp[12][12], float D[12][12], float A[12][12], float B[12][12], float C[12][12]) {
  for (int i = 0; i < 12; i++)
    for (int j = 0; j < 12; j++) {
      tmp[i][j] = 0.0;
      for (int k = 0; k < 12; k++)
        tmp[i][j] += A[i][k] * B[k][j];
    }
  for (int i = 0; i < 12; i++)
    for (int j = 0; j < 12; j++) {
      D[i][j] = 0.0;
      for (int k = 0; k < 12; k++)
        D[i][j] += tmp[i][k] * C[k][j];
    }
}
|}
  in
  let g = Prng.create ~seed:94 in
  let a = Mat.random g ~rows:12 ~cols:12 ~lo:(-1.0) ~hi:1.0 in
  let b = Mat.random g ~rows:12 ~cols:12 ~lo:(-1.0) ~hi:1.0 in
  let c = Mat.random g ~rows:12 ~cols:12 ~lo:(-1.0) ~hi:1.0 in
  let args () =
    let tmp = Interp.make_array ~dims:[ 12; 12 ] in
    let d = Interp.make_array ~dims:[ 12; 12 ] in
    ( [
        ("tmp", Interp.Varray tmp);
        ("D", Interp.Varray d);
        ("A", Interp.Varray (Interp.arr_of_mat a));
        ("B", Interp.Varray (Interp.arr_of_mat b));
        ("C", Interp.Varray (Interp.arr_of_mat c));
      ],
      fun () -> Interp.mat_of_arr d )
  in
  let host, cim, _, cim_metrics, report, _, _ =
    run_both ~xbar_rows:64 ~xbar_cols:64 src args
  in
  (match report with
  | None -> Alcotest.fail "scop not detected"
  | Some r -> Alcotest.(check int) "both kernels offloaded" 2 r.Offload.kernels_offloaded);
  Alcotest.(check int) "two launches" 2 cim_metrics.Exec.cim_launches;
  Alcotest.(check bool) "2mm result close" true (Mat.max_abs_diff host cim < 1.0)

let test_pipeline_conv_offloaded () =
  let src =
    {|
void conv(float out[14][14], float in[16][16], float w[3][3]) {
  for (int i = 0; i < 14; i++)
    for (int j = 0; j < 14; j++) {
      out[i][j] = 0.0;
      for (int p = 0; p < 3; p++)
        for (int q = 0; q < 3; q++)
          out[i][j] += w[p][q] * in[i + p][j + q];
    }
}
|}
  in
  let g = Prng.create ~seed:95 in
  let input = Mat.random g ~rows:16 ~cols:16 ~lo:(-1.0) ~hi:1.0 in
  let w = Mat.random g ~rows:3 ~cols:3 ~lo:(-1.0) ~hi:1.0 in
  let args () =
    let out = Interp.make_array ~dims:[ 14; 14 ] in
    ( [
        ("out", Interp.Varray out);
        ("in", Interp.Varray (Interp.arr_of_mat input));
        ("w", Interp.Varray (Interp.arr_of_mat w));
      ],
      fun () -> Interp.mat_of_arr out )
  in
  let host, cim, _, cim_metrics, report, _, _ =
    run_both ~xbar_rows:64 ~xbar_cols:64 src args
  in
  (match report with
  | None -> Alcotest.fail "scop not detected"
  | Some r -> Alcotest.(check int) "conv offloaded" 1 r.Offload.kernels_offloaded);
  Alcotest.(check bool) "device used" true cim_metrics.Exec.used_cim;
  Alcotest.(check bool) "conv result matches host" true (Mat.max_abs_diff host cim < 0.3);
  (* sanity against the direct reference too *)
  let expected = Blas_ref.conv2d ~input ~kernel:w in
  Alcotest.(check bool) "conv result matches reference" true
    (Mat.max_abs_diff expected cim < 0.3)

let qcheck_pipeline_preserves_semantics =
  QCheck.Test.make ~name:"pipeline preserves gemm semantics across shapes" ~count:10
    QCheck.small_int (fun seed ->
      let g = Prng.create ~seed:(seed + 4000) in
      let m = 4 + Prng.int g ~bound:12
      and n = 4 + Prng.int g ~bound:12
      and k = 4 + Prng.int g ~bound:12 in
      let host, cim, _, _, _, _, _ =
        run_both ~xbar_rows:32 ~xbar_cols:32 (gemm_src m n k) (gemm_args m n k (seed + 5000))
      in
      Mat.max_abs_diff host cim < 1.0)

let suites =
  [
    ( "tactics.patterns",
      [
        Alcotest.test_case "gemm" `Quick test_pattern_gemm;
        Alcotest.test_case "gemm zero beta" `Quick test_pattern_gemm_zero_beta;
        Alcotest.test_case "gemm transposed" `Quick test_pattern_gemm_transposed;
        Alcotest.test_case "gemv" `Quick test_pattern_gemv;
        Alcotest.test_case "gemv transposed" `Quick test_pattern_gemv_transposed;
        Alcotest.test_case "conv" `Quick test_pattern_conv;
        Alcotest.test_case "rejects stencil" `Quick test_pattern_rejects_stencil;
      ] );
    ( "tactics.pipeline",
      [
        Alcotest.test_case "gemm offloaded" `Quick test_pipeline_gemm_offloaded;
        Alcotest.test_case "no pattern, no change" `Quick test_pipeline_host_unchanged_when_no_pattern;
        Alcotest.test_case "fusion (Listing 2)" `Quick test_pipeline_fusion_listing2;
        Alcotest.test_case "naive mapping ablation" `Quick test_pipeline_fusion_naive_ablation;
        Alcotest.test_case "fusion respects dependences" `Quick
          test_pipeline_fusion_respects_dependences;
        Alcotest.test_case "tiling (Listing 3)" `Quick test_pipeline_tiling_listing3;
        Alcotest.test_case "selective offload" `Quick test_pipeline_selective_skips_gemv;
        Alcotest.test_case "fused-group intensity" `Quick test_pipeline_fused_group_intensity;
        Alcotest.test_case "2mm dataflow" `Quick test_pipeline_2mm_dataflow;
        Alcotest.test_case "conv via im2col" `Quick test_pipeline_conv_offloaded;
        QCheck_alcotest.to_alcotest qcheck_pipeline_preserves_semantics;
      ] );
  ]

(* ---------- canonicalisation & interchange ---------- *)

let test_canonical_x_eq_x_plus_e () =
  (* PolyBench variants write the update as C = C + ... *)
  let src =
    {|
void gemm(float C[16][12], float A[16][16], float B[16][12]) {
  for (int i = 0; i < 16; i++)
    for (int j = 0; j < 12; j++)
      for (int k = 0; k < 16; k++)
        C[i][j] = C[i][j] + A[i][k] * B[k][j];
}
|}
  in
  let f = Lower.func (Parser.parse_func src) in
  let f', report = run_pipeline f in
  (match report with
  | None -> Alcotest.fail "scop not detected"
  | Some r -> Alcotest.(check int) "offloaded" 1 r.Offload.kernels_offloaded);
  Alcotest.(check bool) "cim calls emitted" true (Ir.contains_cim_calls f')

let test_canonical_beta_form () =
  let src =
    {|
void gemm(float beta, float C[8][8], float A[8][8], float B[8][8]) {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++) {
      C[i][j] = beta * C[i][j];
      for (int k = 0; k < 8; k++)
        C[i][j] = C[i][j] + A[i][k] * B[k][j];
    }
}
|}
  in
  match Patterns.match_gemm (tree_of src) with
  | None -> Alcotest.fail "canonicalised gemm not detected"
  | Some g -> Alcotest.(check bool) "beta captured" true (g.Patterns.beta = Ast.Var "beta")

let test_interchange_normalisation_kji () =
  (* the reduction loop outermost: only legal interchange exposes the
     GEMM pattern *)
  let src =
    {|
void gemm(float C[12][10], float A[12][8], float B[8][10]) {
  for (int k = 0; k < 8; k++)
    for (int j = 0; j < 10; j++)
      for (int i = 0; i < 12; i++)
        C[i][j] += A[i][k] * B[k][j];
}
|}
  in
  Alcotest.(check bool) "not matched as written" true
    (Patterns.match_gemm (tree_of src) = None);
  let f = Lower.func (Parser.parse_func src) in
  let f', report = run_pipeline f in
  (match report with
  | None -> Alcotest.fail "scop not detected"
  | Some r -> Alcotest.(check int) "offloaded after interchange" 1 r.Offload.kernels_offloaded);
  Alcotest.(check bool) "cim calls emitted" true (Ir.contains_cim_calls f')

let test_interchange_kji_semantics () =
  let src =
    {|
void gemm(float C[12][10], float A[12][8], float B[8][10]) {
  for (int k = 0; k < 8; k++)
    for (int j = 0; j < 10; j++)
      for (int i = 0; i < 12; i++)
        C[i][j] += A[i][k] * B[k][j];
}
|}
  in
  let g = Prng.create ~seed:97 in
  let a = Mat.random g ~rows:12 ~cols:8 ~lo:(-1.0) ~hi:1.0 in
  let b = Mat.random g ~rows:8 ~cols:10 ~lo:(-1.0) ~hi:1.0 in
  let args () =
    let c = Interp.make_array ~dims:[ 12; 10 ] in
    ( [
        ("C", Interp.Varray c);
        ("A", Interp.Varray (Interp.arr_of_mat a));
        ("B", Interp.Varray (Interp.arr_of_mat b));
      ],
      fun () -> Interp.mat_of_arr c )
  in
  let host, cim, _, cim_metrics, _, _, _ = run_both ~xbar_rows:32 ~xbar_cols:32 src args in
  Alcotest.(check bool) "offloaded" true cim_metrics.Exec.used_cim;
  Alcotest.(check bool) "results agree" true (Mat.max_abs_diff host cim < 0.3)

let test_interchange_rejects_order_sensitive () =
  (* a Set-statement whose write does not cover all iterators: the last
     j wins, so permuting loops would change the result; the detector
     must not match it via interchange *)
  let src =
    {|
void last_wins(float y[8], float A[8][8]) {
  for (int j = 0; j < 8; j++)
    for (int i = 0; i < 8; i++)
      y[i] = A[i][j];
}
|}
  in
  let tree = tree_of src in
  Alcotest.(check int) "no permutation candidates" 1
    (List.length (Transform.interchange_candidates tree));
  let f = Lower.func (Parser.parse_func src) in
  let f', _ = run_pipeline f in
  Alcotest.(check bool) "stays on host" false (Ir.contains_cim_calls f')

let test_transform_interchange_api () =
  let tree = tree_of
    {|
void f(float C[4][4], float A[4][4], float B[4][4]) {
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++)
      for (int k = 0; k < 4; k++)
        C[i][j] += A[i][k] * B[k][j];
}
|}
  in
  (* 3 bands, accumulation: 3! = 6 candidates *)
  Alcotest.(check int) "all permutations enumerated" 6
    (List.length (Transform.interchange_candidates tree))

let canonical_suite =
  ( "tactics.canonical",
    [
      Alcotest.test_case "X = X + e form" `Quick test_canonical_x_eq_x_plus_e;
      Alcotest.test_case "X = beta*X form" `Quick test_canonical_beta_form;
      Alcotest.test_case "kji gemm detected" `Quick test_interchange_normalisation_kji;
      Alcotest.test_case "kji gemm semantics" `Quick test_interchange_kji_semantics;
      Alcotest.test_case "order-sensitive rejected" `Quick test_interchange_rejects_order_sensitive;
      Alcotest.test_case "interchange api" `Quick test_transform_interchange_api;
    ] )

let suites = suites @ [ canonical_suite ]

(* ---------- scalar factor forms ---------- *)

let test_pattern_alpha_product () =
  let src =
    {|
void f(float alpha, float C[8][8], float A[8][8], float B[8][8]) {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++)
      for (int k = 0; k < 8; k++)
        C[i][j] += 2.0 * alpha * A[i][k] * B[k][j];
}
|}
  in
  match Patterns.match_gemm (tree_of src) with
  | None -> Alcotest.fail "gemm with composite scalar factor not detected"
  | Some g -> (
      (* alpha must be the product of both scalar factors *)
      match g.Patterns.alpha with
      | Ast.Binop (Ast.Mul, Ast.Float_lit 2.0, Ast.Var "alpha") -> ()
      | other -> Alcotest.failf "unexpected alpha: %s" (Format.asprintf "%a" Ast.pp_expr other))

let test_pattern_alpha_product_semantics () =
  let src =
    {|
void f(float alpha, float C[8][8], float A[8][8], float B[8][8]) {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++)
      for (int k = 0; k < 8; k++)
        C[i][j] += 2.0 * alpha * A[i][k] * B[k][j];
}
|}
  in
  let g = Prng.create ~seed:98 in
  let a = Mat.random g ~rows:8 ~cols:8 ~lo:(-1.0) ~hi:1.0 in
  let b = Mat.random g ~rows:8 ~cols:8 ~lo:(-1.0) ~hi:1.0 in
  let args () =
    let c = Interp.make_array ~dims:[ 8; 8 ] in
    ( [
        ("alpha", Interp.Vfloat 0.75);
        ("C", Interp.Varray c);
        ("A", Interp.Varray (Interp.arr_of_mat a));
        ("B", Interp.Varray (Interp.arr_of_mat b));
      ],
      fun () -> Interp.mat_of_arr c )
  in
  let host, cim, _, cim_metrics, _, _, _ = run_both ~xbar_rows:32 ~xbar_cols:32 src args in
  Alcotest.(check bool) "offloaded" true cim_metrics.Exec.used_cim;
  Alcotest.(check bool) "scalar product applied on the device" true
    (Mat.max_abs_diff host cim < 0.3)

let scalar_suite =
  ( "tactics.scalars",
    [
      Alcotest.test_case "composite alpha detected" `Quick test_pattern_alpha_product;
      Alcotest.test_case "composite alpha semantics" `Quick test_pattern_alpha_product_semantics;
    ] )

let suites = suites @ [ scalar_suite ]

(* ---------- the output is never an operand ---------- *)

(* Near-miss programs whose output array is also read as an operand.
   The device reads every operand before it writes the output, while
   the source reads the output as it updates it, so each must stay on
   the host: nothing offloaded, and the tactics build computes what the
   host build computes, bit for bit. *)
let aliased_output_programs =
  [
    ( "gemm, B is the output",
      {|
void f(float C[12][12], float A[12][12]) {
  for (int i = 0; i < 12; i++)
    for (int j = 0; j < 12; j++)
      for (int k = 0; k < 12; k++)
        C[i][j] += A[i][k] * C[k][j];
}
|},
      [ ("C", [ 12; 12 ]); ("A", [ 12; 12 ]) ] );
    ( "gemm, A is the output",
      {|
void f(float C[12][12], float B[12][12]) {
  for (int i = 0; i < 12; i++)
    for (int j = 0; j < 12; j++)
      for (int k = 0; k < 12; k++)
        C[i][j] += C[i][k] * B[k][j];
}
|},
      [ ("C", [ 12; 12 ]); ("B", [ 12; 12 ]) ] );
    ( "gemv, x is the output",
      {|
void f(float y[12], float A[12][12]) {
  for (int i = 0; i < 12; i++)
    for (int j = 0; j < 12; j++)
      y[i] += A[i][j] * y[j];
}
|},
      [ ("y", [ 12 ]); ("A", [ 12; 12 ]) ] );
    ( "conv, the weights are the output",
      {|
void f(float out[10][10], float img[12][12]) {
  for (int i = 0; i < 10; i++)
    for (int j = 0; j < 10; j++)
      for (int p = 0; p < 3; p++)
        for (int q = 0; q < 3; q++)
          out[i][j] += out[p][q] * img[i + p][j + q];
}
|},
      [ ("out", [ 10; 10 ]); ("img", [ 12; 12 ]) ] );
  ]

let test_aliased_output_stays_on_host (source, arrays) () =
  let module Flow = Tdo_cim.Flow in
  (match Flow.compile ~options:Flow.o3_loop_tactics source with
  | _, None -> Alcotest.fail "scop not detected"
  | _, Some r -> Alcotest.(check int) "nothing offloaded" 0 r.Offload.kernels_offloaded);
  (* random data in [-1, 1], the same for both builds *)
  let run options =
    let g = Prng.create ~seed:12 in
    let arrs =
      List.map
        (fun (name, dims) ->
          let a = Interp.make_array ~dims in
          Array.iteri
            (fun i _ -> a.Interp.data.(i) <- Prng.float_range g ~lo:(-1.0) ~hi:1.0)
            a.Interp.data;
          (name, a))
        arrays
    in
    let args = List.map (fun (name, a) -> (name, Interp.Varray a)) arrs in
    ignore (Flow.run_source ~options source ~args);
    List.map (fun (_, a) -> Array.map Int64.bits_of_float a.Interp.data) arrs
  in
  Alcotest.(check (list (array int64)))
    "tactics build equals the host build bit for bit" (run Flow.o3) (run Flow.o3_loop_tactics)

(* ---------- an output larger than its kernel ---------- *)

(* Near-miss programs whose zero-initialised output is larger than the
   kernel's loops. The device's output is copied back whole, so what
   lies outside the kernel's box must reach the device first: each
   program offloads one launch, every element outside the box (the
   operands included) is bit-identical to the host build, and every
   element inside is within the 8-bit quantisation bound. *)
let oversized_output_programs =
  [
    ( "gemm, C larger than its loops",
      {|
void f(float C[14][14], float A[14][13], float B[13][14]) {
  for (int i = 0; i < 12; i++)
    for (int j = 0; j < 12; j++) {
      C[i][j] = 0.0;
      for (int k = 0; k < 12; k++)
        C[i][j] += A[i][k] * B[k][j];
    }
}
|},
      [ ("C", [ 14; 14 ]); ("A", [ 14; 13 ]); ("B", [ 13; 14 ]) ],
      ("C", fun idx -> idx / 14 < 12 && idx mod 14 < 12) );
    ( "gemv, y longer than its loop",
      {|
void f(float y[13], float A[12][12], float x[12]) {
  for (int i = 0; i < 12; i++) {
    y[i] = 0.0;
    for (int j = 0; j < 12; j++)
      y[i] += A[i][j] * x[j];
  }
}
|},
      [ ("y", [ 13 ]); ("A", [ 12; 12 ]); ("x", [ 12 ]) ],
      ("y", fun idx -> idx < 12) );
  ]

let test_oversized_output_keeps_border (source, arrays, (output, in_box)) () =
  let module Flow = Tdo_cim.Flow in
  (* random data in [-1, 1], the same for both builds *)
  let run options =
    let g = Prng.create ~seed:12 in
    let arrs =
      List.map
        (fun (name, dims) ->
          let a = Interp.make_array ~dims in
          Array.iteri
            (fun i _ -> a.Interp.data.(i) <- Prng.float_range g ~lo:(-1.0) ~hi:1.0)
            a.Interp.data;
          (name, a))
        arrays
    in
    let args = List.map (fun (name, a) -> (name, Interp.Varray a)) arrs in
    let measurement, _ = Flow.run_source ~options source ~args in
    (measurement, List.map (fun (name, a) -> (name, a.Interp.data)) arrs)
  in
  let _, host = run Flow.o3 in
  let measurement, device = run Flow.o3_loop_tactics in
  Alcotest.(check int) "one launch offloaded" 1 measurement.Flow.launches;
  (* k = 12 products of operands in [-1, 1], each quantised to 8 bits
     with an error of at most half a step *)
  let bound =
    let e = Tdo_linalg.Quant.scale_for ~bits:8 ~max_abs:1.0 /. 2.0 in
    (12.0 *. ((e *. (1.0 +. e)) +. e)) +. 1e-6
  in
  List.iter2
    (fun (name, expected) (_, actual) ->
      Array.iteri
        (fun idx x ->
          let y = actual.(idx) in
          if String.equal name output && in_box idx then begin
            if Float.abs (x -. y) > bound then
              Alcotest.failf "%s[%d] inside the box: %g against %g, beyond %g" name idx y x bound
          end
          else if Int64.bits_of_float x <> Int64.bits_of_float y then
            Alcotest.failf "%s[%d] outside the box: %h against %h" name idx y x)
        expected)
    host device

let transparency_suite =
  ( "tactics.transparency",
    List.map
      (fun (name, source, arrays) ->
        Alcotest.test_case name `Quick (test_aliased_output_stays_on_host (source, arrays)))
      aliased_output_programs
    @ List.map
        (fun (name, source, arrays, box) ->
          Alcotest.test_case name `Quick (test_oversized_output_keeps_border (source, arrays, box)))
        oversized_output_programs )

let suites = suites @ [ transparency_suite ]
