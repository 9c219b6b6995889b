open Tdo_linalg
module Prng = Tdo_util.Prng

let mat_testable = Alcotest.testable Mat.pp (Mat.equal_eps ~eps:1e-9)

let test_mat_create_get_set () =
  let m = Mat.create ~rows:3 ~cols:4 in
  Alcotest.(check int) "rows" 3 (Mat.rows m);
  Alcotest.(check int) "cols" 4 (Mat.cols m);
  Alcotest.(check (float 0.0)) "zero init" 0.0 (Mat.get m 2 3);
  Mat.set m 1 2 5.5;
  Alcotest.(check (float 0.0)) "set/get" 5.5 (Mat.get m 1 2)

let test_mat_bounds () =
  let m = Mat.create ~rows:2 ~cols:2 in
  Alcotest.check_raises "row overflow" (Invalid_argument "Mat: index (2,0) out of 2x2")
    (fun () -> ignore (Mat.get m 2 0));
  Alcotest.check_raises "negative col" (Invalid_argument "Mat: index (0,-1) out of 2x2")
    (fun () -> ignore (Mat.get m 0 (-1)))

let test_mat_of_arrays_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_arrays: ragged input") (fun () ->
      ignore (Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0 |] |]))

let test_mat_transpose () =
  let m = Mat.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let t = Mat.transpose m in
  Alcotest.check mat_testable "transpose"
    (Mat.of_arrays [| [| 1.0; 4.0 |]; [| 2.0; 5.0 |]; [| 3.0; 6.0 |] |])
    t

let test_mat_copy_isolated () =
  let m = Mat.create ~rows:2 ~cols:2 in
  let c = Mat.copy m in
  Mat.set m 0 0 9.0;
  Alcotest.(check (float 0.0)) "copy unaffected" 0.0 (Mat.get c 0 0)

let test_gemm_identity () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let id = Mat.init ~rows:2 ~cols:2 ~f:(fun i j -> if i = j then 1.0 else 0.0) in
  let c = Mat.create ~rows:2 ~cols:2 in
  Blas_ref.gemm ~alpha:1.0 ~beta:0.0 ~a ~b:id ~c ();
  Alcotest.check mat_testable "A*I = A" a c

let test_gemm_known () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Mat.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Mat.of_arrays [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  Blas_ref.gemm ~alpha:2.0 ~beta:3.0 ~a ~b ~c ();
  Alcotest.check mat_testable "2AB + 3C"
    (Mat.of_arrays [| [| 41.0; 47.0 |]; [| 89.0; 103.0 |] |])
    c

let test_gemm_transpose_flags () =
  let g = Prng.create ~seed:10 in
  let a = Mat.random g ~rows:3 ~cols:5 ~lo:(-1.0) ~hi:1.0 in
  let b = Mat.random g ~rows:4 ~cols:5 ~lo:(-1.0) ~hi:1.0 in
  let c1 = Mat.create ~rows:3 ~cols:4 in
  Blas_ref.gemm ~trans_b:Blas_ref.Transpose ~alpha:1.0 ~beta:0.0 ~a ~b ~c:c1 ();
  let c2 = Mat.create ~rows:3 ~cols:4 in
  Blas_ref.gemm ~alpha:1.0 ~beta:0.0 ~a ~b:(Mat.transpose b) ~c:c2 ();
  Alcotest.check mat_testable "transpose flag = explicit transpose" c2 c1

let test_gemm_shape_mismatch () =
  let a = Mat.create ~rows:2 ~cols:3 in
  let b = Mat.create ~rows:4 ~cols:2 in
  let c = Mat.create ~rows:2 ~cols:2 in
  Alcotest.check_raises "inner mismatch"
    (Invalid_argument "Blas_ref.gemm: inner dimensions differ") (fun () ->
      Blas_ref.gemm ~alpha:1.0 ~beta:0.0 ~a ~b ~c ())

let test_gemv_known () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let x = [| 1.0; 1.0 |] in
  let y = [| 10.0; 10.0 |] in
  Blas_ref.gemv ~alpha:1.0 ~beta:0.5 ~a ~x ~y ();
  Alcotest.(check (array (float 1e-9))) "gemv" [| 8.0; 12.0 |] y

let test_gemv_transpose () =
  let a = Mat.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let x = [| 1.0; 1.0 |] in
  let y = Array.make 3 0.0 in
  Blas_ref.gemv ~trans_a:Blas_ref.Transpose ~alpha:1.0 ~beta:0.0 ~a ~x ~y ();
  Alcotest.(check (array (float 1e-9))) "A^T x" [| 5.0; 7.0; 9.0 |] y

let test_gemm_as_gemvs () =
  (* GEMM must equal a sequence of column GEMVs: this is exactly the
     micro-engine's decomposition. *)
  let g = Prng.create ~seed:11 in
  let m = 6 and k = 5 and n = 4 in
  let a = Mat.random g ~rows:m ~cols:k ~lo:(-2.0) ~hi:2.0 in
  let b = Mat.random g ~rows:k ~cols:n ~lo:(-2.0) ~hi:2.0 in
  let c = Mat.create ~rows:m ~cols:n in
  Blas_ref.gemm ~alpha:1.0 ~beta:0.0 ~a ~b ~c ();
  let c' = Mat.create ~rows:m ~cols:n in
  for j = 0 to n - 1 do
    let x = Mat.col b j in
    let y = Array.make m 0.0 in
    Blas_ref.gemv ~alpha:1.0 ~beta:0.0 ~a ~x ~y ();
    Array.iteri (fun i v -> Mat.set c' i j v) y
  done;
  Alcotest.check mat_testable "gemm = gemv per column" c c'

let test_conv2d_known () =
  let input = Mat.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |]; [| 7.0; 8.0; 9.0 |] |] in
  let kernel = Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  let out = Blas_ref.conv2d ~input ~kernel in
  Alcotest.check mat_testable "valid conv"
    (Mat.of_arrays [| [| 6.0; 8.0 |]; [| 12.0; 14.0 |] |])
    out

let test_quant_roundtrip_exact_codes () =
  let s = Quant.scheme_for ~bits:8 ~max_abs:127.0 in
  for code = -128 to 127 do
    let v = Quant.dequantize s code in
    Alcotest.(check int) "code roundtrip" code (Quant.quantize s v)
  done

let test_quant_error_bound () =
  let g = Prng.create ~seed:12 in
  let s = Quant.scheme_for ~bits:8 ~max_abs:10.0 in
  let bound = Quant.quantization_error_bound s in
  for _ = 1 to 1000 do
    let v = Prng.float_range g ~lo:(-10.0) ~hi:10.0 in
    let err = Float.abs (Quant.dequantize s (Quant.quantize s v) -. v) in
    Alcotest.(check bool) "within half-ulp" true (err <= bound +. 1e-12)
  done

let test_quant_saturation () =
  let s = Quant.scheme_for ~bits:8 ~max_abs:1.0 in
  Alcotest.(check int) "saturates high" 127 (Quant.quantize s 50.0);
  Alcotest.(check int) "saturates low" (-128) (Quant.quantize s (-50.0))

(* The quantiser rounds without calling C's [round]: it must pick the
   code [Float.round] picks, exact halves, negative zero, values too
   large for the fast path, infinities and NaN included. *)
let test_quant_rounds_as_float_round () =
  let reference ~scale v =
    let code = int_of_float (Float.round (v /. scale)) in
    if code > 127 then 127 else if code < -128 then -128 else code
  in
  let g = Prng.create ~seed:13 in
  let specials =
    [ 0.0; -0.0; 0.5; -0.5; 1.5; -1.5; 126.5; -127.5; 0.49999999999999994; -0.49999999999999994;
      4503599627370495.5; 4503599627370496.0; -4503599627370497.0; 1e300; -1e300; Float.infinity;
      Float.neg_infinity; Float.nan ]
  in
  let halves = List.init 512 (fun i -> Float.of_int (i - 256) +. 0.5) in
  let randoms = List.init 2000 (fun _ -> Prng.float_range g ~lo:(-200.0) ~hi:200.0) in
  List.iter
    (fun v ->
      List.iter
        (fun scale ->
          Alcotest.(check int)
            (Printf.sprintf "%h / %h" v scale)
            (reference ~scale v)
            (Quant.quantize_scaled ~bits:8 ~scale v))
        [ 1.0; 0.25; 1.0 /. 127.0 ])
    (specials @ halves @ randoms)

let test_nibble_split () =
  for code = -128 to 127 do
    let msb, lsb = Quant.split_nibbles code in
    Alcotest.(check bool) "lsb in range" true (lsb >= 0 && lsb <= 15);
    Alcotest.(check bool) "msb in range" true (msb >= -8 && msb <= 7);
    Alcotest.(check int) "recombine" code (Quant.combine_nibbles ~msb ~lsb)
  done

let qcheck_gemm_linearity =
  QCheck.Test.make ~name:"gemm is linear in alpha" ~count:50
    QCheck.(pair (float_range (-4.0) 4.0) small_int)
    (fun (alpha, seed) ->
      let g = Prng.create ~seed in
      let a = Mat.random g ~rows:3 ~cols:3 ~lo:(-1.0) ~hi:1.0 in
      let b = Mat.random g ~rows:3 ~cols:3 ~lo:(-1.0) ~hi:1.0 in
      let c1 = Mat.create ~rows:3 ~cols:3 in
      Blas_ref.gemm ~alpha ~beta:0.0 ~a ~b ~c:c1 ();
      let c2 = Mat.create ~rows:3 ~cols:3 in
      Blas_ref.gemm ~alpha:1.0 ~beta:0.0 ~a ~b ~c:c2 ();
      let scaled = Mat.map ~f:(fun v -> alpha *. v) c2 in
      Mat.max_abs_diff c1 scaled < 1e-9)

let qcheck_transpose_involution =
  QCheck.Test.make ~name:"transpose is an involution" ~count:100 QCheck.small_int (fun seed ->
      let g = Prng.create ~seed in
      let rows = 1 + Prng.int g ~bound:8 and cols = 1 + Prng.int g ~bound:8 in
      let m = Mat.random g ~rows ~cols ~lo:(-5.0) ~hi:5.0 in
      Mat.max_abs_diff m (Mat.transpose (Mat.transpose m)) = 0.0)

let qcheck_conv_impulse =
  QCheck.Test.make ~name:"conv with unit impulse reproduces kernel" ~count:50 QCheck.small_int
    (fun seed ->
      let g = Prng.create ~seed in
      let kr = 1 + Prng.int g ~bound:3 and kc = 1 + Prng.int g ~bound:3 in
      let kernel = Mat.random g ~rows:kr ~cols:kc ~lo:(-1.0) ~hi:1.0 in
      (* Input = single 1 at the top-left of a kernel-sized window. *)
      let input =
        Mat.init ~rows:(kr + 2) ~cols:(kc + 2) ~f:(fun i j -> if i = 0 && j = 0 then 1.0 else 0.0)
      in
      let out = Blas_ref.conv2d ~input ~kernel in
      Float.abs (Mat.get out 0 0 -. Mat.get kernel 0 0) < 1e-12)

(* The executor's register accumulator rounds through a float32 cell
   where memory rounds through [Int32.bits_of_float]: the two must
   agree bit for bit on every double, so the doubles here are random
   bit patterns, weighted towards NaNs with any payload and sign,
   infinities, zeros, subnormals of either format, the edges of
   binary32's range and values beyond it. *)
let qcheck_binary32_cell_rounds_as_int32_bits =
  let cell = Quant.binary32 () in
  let gen =
    QCheck.Gen.(
      let bits ~exponent =
        map3
          (fun sign e mantissa ->
            Int64.(
              logor
                (shift_left (of_int sign) 63)
                (logor (shift_left (of_int e) 52) (logand (of_int mantissa) 0xF_FFFF_FFFF_FFFFL))))
          (int_bound 1) exponent
          (frequency [ (4, int); (1, return 0); (1, int_bound 0xFFFFFF); (1, map (fun m -> m lsl 29) int) ])
      in
      frequency
        [
          (3, bits ~exponent:(int_bound 2047));
          (1, bits ~exponent:(return 2047));
          (1, bits ~exponent:(return 0));
          (2, bits ~exponent:(int_range (1023 - 152) (1023 - 124)));
          (2, bits ~exponent:(int_range (1023 + 124) (1023 + 130)));
          (1, bits ~exponent:(int_range (1023 - 30) (1023 + 30)));
        ])
  in
  QCheck.Test.make ~name:"binary32 cell rounds as Int32.bits_of_float" ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%016Lx") gen)
    (fun bits ->
      let v = Int64.float_of_bits bits in
      Int64.bits_of_float (Quant.round_binary32 cell v)
      = Int64.bits_of_float (Int32.float_of_bits (Int32.bits_of_float v)))

let suites =
  [
    ( "linalg.mat",
      [
        Alcotest.test_case "create/get/set" `Quick test_mat_create_get_set;
        Alcotest.test_case "bounds checks" `Quick test_mat_bounds;
        Alcotest.test_case "ragged input" `Quick test_mat_of_arrays_ragged;
        Alcotest.test_case "transpose" `Quick test_mat_transpose;
        Alcotest.test_case "copy isolation" `Quick test_mat_copy_isolated;
        QCheck_alcotest.to_alcotest qcheck_transpose_involution;
      ] );
    ( "linalg.blas",
      [
        Alcotest.test_case "gemm identity" `Quick test_gemm_identity;
        Alcotest.test_case "gemm known values" `Quick test_gemm_known;
        Alcotest.test_case "gemm transpose flags" `Quick test_gemm_transpose_flags;
        Alcotest.test_case "gemm shape mismatch" `Quick test_gemm_shape_mismatch;
        Alcotest.test_case "gemv known values" `Quick test_gemv_known;
        Alcotest.test_case "gemv transpose" `Quick test_gemv_transpose;
        Alcotest.test_case "gemm = column gemvs" `Quick test_gemm_as_gemvs;
        Alcotest.test_case "conv2d known values" `Quick test_conv2d_known;
        QCheck_alcotest.to_alcotest qcheck_gemm_linearity;
        QCheck_alcotest.to_alcotest qcheck_conv_impulse;
      ] );
    ( "linalg.quant",
      [
        Alcotest.test_case "code roundtrip" `Quick test_quant_roundtrip_exact_codes;
        Alcotest.test_case "error bound" `Quick test_quant_error_bound;
        Alcotest.test_case "saturation" `Quick test_quant_saturation;
        Alcotest.test_case "rounds as Float.round" `Quick test_quant_rounds_as_float_round;
        Alcotest.test_case "nibble split/recombine" `Quick test_nibble_split;
        QCheck_alcotest.to_alcotest qcheck_binary32_cell_rounds_as_int32_bits;
      ] );
  ]
