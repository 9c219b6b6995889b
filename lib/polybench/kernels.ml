module Interp = Tdo_lang.Interp
module Mat = Tdo_linalg.Mat
module Prng = Tdo_util.Prng

type kind = Gemm_like | Gemv_like

type benchmark = {
  name : string;
  description : string;
  kind : kind;
  source : n:int -> string;
  macs : n:int -> int;
  make_args : n:int -> seed:int -> (string * Interp.value) list * (unit -> Mat.t list);
}

(* deterministic PolyBench-style data in a quantisation-friendly
   range, rounded to binary32 like any real float array *)
let random_arr g ~dims =
  let arr = Interp.make_array ~dims in
  let data = arr.Interp.data in
  for i = 0 to Array.length data - 1 do
    let v = Prng.float_range g ~lo:(-1.0) ~hi:1.0 in
    Array.unsafe_set data i (Int32.float_of_bits (Int32.bits_of_float v))
  done;
  arr

let zero_arr ~dims = Interp.make_array ~dims

let mat_of_vec (arr : Interp.arr) =
  match arr.Interp.dims with
  | [ n ] -> Mat.of_data ~rows:n ~cols:1 (Array.copy arr.Interp.data)
  | _ -> Interp.mat_of_arr arr

(* ---------- gemm ---------- *)

let gemm_source ~n =
  Printf.sprintf
    {|
void kernel_gemm(float alpha, float beta, float C[%d][%d], float A[%d][%d], float B[%d][%d]) {
  for (int i = 0; i < %d; i++)
    for (int j = 0; j < %d; j++) {
      C[i][j] *= beta;
      for (int k = 0; k < %d; k++)
        C[i][j] += alpha * A[i][k] * B[k][j];
    }
}
|}
    n n n n n n n n n

let gemm_args ~n ~seed =
  let g = Prng.create ~seed in
  let a = random_arr g ~dims:[ n; n ] in
  let b = random_arr g ~dims:[ n; n ] in
  let c = random_arr g ~dims:[ n; n ] in
  ( [
      ("alpha", Interp.Vfloat 1.5);
      ("beta", Interp.Vfloat 1.2);
      ("C", Interp.Varray c);
      ("A", Interp.Varray a);
      ("B", Interp.Varray b);
    ],
    fun () -> [ Interp.mat_of_arr c ] )

(* ---------- 2mm ---------- *)

let two_mm_source ~n =
  Printf.sprintf
    {|
void kernel_2mm(float alpha, float beta, float tmp[%d][%d], float A[%d][%d], float B[%d][%d],
                float C[%d][%d], float D[%d][%d]) {
  for (int i = 0; i < %d; i++)
    for (int j = 0; j < %d; j++) {
      tmp[i][j] = 0.0;
      for (int k = 0; k < %d; k++)
        tmp[i][j] += alpha * A[i][k] * B[k][j];
    }
  for (int i = 0; i < %d; i++)
    for (int j = 0; j < %d; j++) {
      D[i][j] *= beta;
      for (int k = 0; k < %d; k++)
        D[i][j] += tmp[i][k] * C[k][j];
    }
}
|}
    n n n n n n n n n n n n n n n n

let two_mm_args ~n ~seed =
  let g = Prng.create ~seed in
  let a = random_arr g ~dims:[ n; n ] in
  let b = random_arr g ~dims:[ n; n ] in
  let c = random_arr g ~dims:[ n; n ] in
  let d = random_arr g ~dims:[ n; n ] in
  let tmp = zero_arr ~dims:[ n; n ] in
  ( [
      ("alpha", Interp.Vfloat 1.5);
      ("beta", Interp.Vfloat 1.2);
      ("tmp", Interp.Varray tmp);
      ("A", Interp.Varray a);
      ("B", Interp.Varray b);
      ("C", Interp.Varray c);
      ("D", Interp.Varray d);
    ],
    fun () -> [ Interp.mat_of_arr d ] )

(* ---------- 3mm ---------- *)

let three_mm_source ~n =
  Printf.sprintf
    {|
void kernel_3mm(float E[%d][%d], float A[%d][%d], float B[%d][%d], float F[%d][%d],
                float C[%d][%d], float D[%d][%d], float G[%d][%d]) {
  for (int i = 0; i < %d; i++)
    for (int j = 0; j < %d; j++) {
      E[i][j] = 0.0;
      for (int k = 0; k < %d; k++)
        E[i][j] += A[i][k] * B[k][j];
    }
  for (int i = 0; i < %d; i++)
    for (int j = 0; j < %d; j++) {
      F[i][j] = 0.0;
      for (int k = 0; k < %d; k++)
        F[i][j] += C[i][k] * D[k][j];
    }
  for (int i = 0; i < %d; i++)
    for (int j = 0; j < %d; j++) {
      G[i][j] = 0.0;
      for (int k = 0; k < %d; k++)
        G[i][j] += E[i][k] * F[k][j];
    }
}
|}
    n n n n n n n n n n n n n n n n n n n n n n n

let three_mm_args ~n ~seed =
  let g = Prng.create ~seed in
  let a = random_arr g ~dims:[ n; n ] in
  let b = random_arr g ~dims:[ n; n ] in
  let c = random_arr g ~dims:[ n; n ] in
  let d = random_arr g ~dims:[ n; n ] in
  let e = zero_arr ~dims:[ n; n ] in
  let f = zero_arr ~dims:[ n; n ] in
  let gg = zero_arr ~dims:[ n; n ] in
  ( [
      ("E", Interp.Varray e);
      ("A", Interp.Varray a);
      ("B", Interp.Varray b);
      ("F", Interp.Varray f);
      ("C", Interp.Varray c);
      ("D", Interp.Varray d);
      ("G", Interp.Varray gg);
    ],
    fun () -> [ Interp.mat_of_arr gg ] )

(* ---------- conv ---------- *)

let conv_source ~n =
  let input = n + 2 in
  Printf.sprintf
    {|
void kernel_conv(float out[%d][%d], float img[%d][%d], float w[3][3]) {
  for (int i = 0; i < %d; i++)
    for (int j = 0; j < %d; j++) {
      out[i][j] = 0.0;
      for (int p = 0; p < 3; p++)
        for (int q = 0; q < 3; q++)
          out[i][j] += w[p][q] * img[i + p][j + q];
    }
}
|}
    n n input input n n

let conv_args ~n ~seed =
  let g = Prng.create ~seed in
  let img = random_arr g ~dims:[ n + 2; n + 2 ] in
  let w = random_arr g ~dims:[ 3; 3 ] in
  let out = zero_arr ~dims:[ n; n ] in
  ( [ ("out", Interp.Varray out); ("img", Interp.Varray img); ("w", Interp.Varray w) ],
    fun () -> [ Interp.mat_of_arr out ] )

(* ---------- gesummv ---------- *)

let gesummv_source ~n =
  Printf.sprintf
    {|
void kernel_gesummv(float alpha, float beta, float A[%d][%d], float B[%d][%d],
                    float tmp[%d], float x[%d], float y[%d]) {
  for (int i = 0; i < %d; i++) {
    tmp[i] = 0.0;
    for (int j = 0; j < %d; j++)
      tmp[i] += A[i][j] * x[j];
  }
  for (int i = 0; i < %d; i++) {
    y[i] = 0.0;
    for (int j = 0; j < %d; j++)
      y[i] += B[i][j] * x[j];
  }
  for (int i = 0; i < %d; i++)
    y[i] = alpha * tmp[i] + beta * y[i];
}
|}
    n n n n n n n n n n n n

let gesummv_args ~n ~seed =
  let g = Prng.create ~seed in
  let a = random_arr g ~dims:[ n; n ] in
  let b = random_arr g ~dims:[ n; n ] in
  let x = random_arr g ~dims:[ n ] in
  let tmp = zero_arr ~dims:[ n ] in
  let y = zero_arr ~dims:[ n ] in
  ( [
      ("alpha", Interp.Vfloat 1.5);
      ("beta", Interp.Vfloat 1.2);
      ("A", Interp.Varray a);
      ("B", Interp.Varray b);
      ("tmp", Interp.Varray tmp);
      ("x", Interp.Varray x);
      ("y", Interp.Varray y);
    ],
    fun () -> [ mat_of_vec y ] )

(* ---------- bicg ---------- *)

let bicg_source ~n =
  Printf.sprintf
    {|
void kernel_bicg(float A[%d][%d], float s[%d], float q[%d], float p[%d], float r[%d]) {
  for (int i = 0; i < %d; i++) {
    s[i] = 0.0;
    for (int j = 0; j < %d; j++)
      s[i] += A[j][i] * r[j];
  }
  for (int i = 0; i < %d; i++) {
    q[i] = 0.0;
    for (int j = 0; j < %d; j++)
      q[i] += A[i][j] * p[j];
  }
}
|}
    n n n n n n n n n n

let bicg_args ~n ~seed =
  let g = Prng.create ~seed in
  let a = random_arr g ~dims:[ n; n ] in
  let p = random_arr g ~dims:[ n ] in
  let r = random_arr g ~dims:[ n ] in
  let s = zero_arr ~dims:[ n ] in
  let q = zero_arr ~dims:[ n ] in
  ( [
      ("A", Interp.Varray a);
      ("s", Interp.Varray s);
      ("q", Interp.Varray q);
      ("p", Interp.Varray p);
      ("r", Interp.Varray r);
    ],
    fun () -> [ mat_of_vec s; mat_of_vec q ] )

(* ---------- mvt ---------- *)

let mvt_source ~n =
  Printf.sprintf
    {|
void kernel_mvt(float x1[%d], float x2[%d], float y1[%d], float y2[%d], float A[%d][%d]) {
  for (int i = 0; i < %d; i++)
    for (int j = 0; j < %d; j++)
      x1[i] += A[i][j] * y1[j];
  for (int i = 0; i < %d; i++)
    for (int j = 0; j < %d; j++)
      x2[i] += A[j][i] * y2[j];
}
|}
    n n n n n n n n n n

let mvt_args ~n ~seed =
  let g = Prng.create ~seed in
  let a = random_arr g ~dims:[ n; n ] in
  let y1 = random_arr g ~dims:[ n ] in
  let y2 = random_arr g ~dims:[ n ] in
  let x1 = random_arr g ~dims:[ n ] in
  let x2 = random_arr g ~dims:[ n ] in
  ( [
      ("x1", Interp.Varray x1);
      ("x2", Interp.Varray x2);
      ("y1", Interp.Varray y1);
      ("y2", Interp.Varray y2);
      ("A", Interp.Varray a);
    ],
    fun () -> [ mat_of_vec x1; mat_of_vec x2 ] )

let all =
  [
    {
      name = "2mm";
      description = "D = alpha*A*B*C + beta*D (two matrix products)";
      kind = Gemm_like;
      source = two_mm_source;
      macs = (fun ~n -> 2 * n * n * n);
      make_args = two_mm_args;
    };
    {
      name = "3mm";
      description = "G = (A*B) * (C*D) (three matrix products)";
      kind = Gemm_like;
      source = three_mm_source;
      macs = (fun ~n -> 3 * n * n * n);
      make_args = three_mm_args;
    };
    {
      name = "gemm";
      description = "C = alpha*A*B + beta*C";
      kind = Gemm_like;
      source = gemm_source;
      macs = (fun ~n -> n * n * n);
      make_args = gemm_args;
    };
    {
      name = "conv";
      description = "3x3 valid 2-D convolution";
      kind = Gemm_like;
      source = conv_source;
      macs = (fun ~n -> 9 * n * n);
      make_args = conv_args;
    };
    {
      name = "gesummv";
      description = "y = alpha*A*x + beta*B*x";
      kind = Gemv_like;
      source = gesummv_source;
      macs = (fun ~n -> 2 * n * n);
      make_args = gesummv_args;
    };
    {
      name = "bicg";
      description = "s = A^T*r; q = A*p";
      kind = Gemv_like;
      source = bicg_source;
      macs = (fun ~n -> 2 * n * n);
      make_args = bicg_args;
    };
    {
      name = "mvt";
      description = "x1 += A*y1; x2 += A^T*y2";
      kind = Gemv_like;
      source = mvt_source;
      macs = (fun ~n -> 2 * n * n);
      make_args = mvt_args;
    };
  ]

let names = List.map (fun b -> b.name) all

let find name =
  match List.find_opt (fun b -> String.equal b.name name) all with
  | Some b -> Ok b
  | None ->
      Error
        (Printf.sprintf "unknown kernel %S (available: %s)" name (String.concat ", " names))
