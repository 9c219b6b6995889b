type transpose = No_transpose | Transpose

let op_dims trans m =
  match trans with
  | No_transpose -> (Mat.rows m, Mat.cols m)
  | Transpose -> (Mat.cols m, Mat.rows m)

let op_get trans m i j =
  match trans with No_transpose -> Mat.get m i j | Transpose -> Mat.get m j i

let gemm ?(trans_a = No_transpose) ?(trans_b = No_transpose) ~alpha ~beta ~a ~b ~c () =
  let m, k = op_dims trans_a a in
  let k', n = op_dims trans_b b in
  if k <> k' then invalid_arg "Blas_ref.gemm: inner dimensions differ";
  if Mat.rows c <> m || Mat.cols c <> n then invalid_arg "Blas_ref.gemm: C shape mismatch";
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for l = 0 to k - 1 do
        acc := !acc +. (op_get trans_a a i l *. op_get trans_b b l j)
      done;
      Mat.set c i j ((alpha *. !acc) +. (beta *. Mat.get c i j))
    done
  done

let gemv ?(trans_a = No_transpose) ~alpha ~beta ~a ~x ~y () =
  let m, k = op_dims trans_a a in
  if Array.length x <> k then invalid_arg "Blas_ref.gemv: x length mismatch";
  if Array.length y <> m then invalid_arg "Blas_ref.gemv: y length mismatch";
  for i = 0 to m - 1 do
    let acc = ref 0.0 in
    for l = 0 to k - 1 do
      acc := !acc +. (op_get trans_a a i l *. x.(l))
    done;
    y.(i) <- (alpha *. !acc) +. (beta *. y.(i))
  done

let conv2d ~input ~kernel =
  let ir = Mat.rows input and ic = Mat.cols input in
  let kr = Mat.rows kernel and kc = Mat.cols kernel in
  if kr > ir || kc > ic then invalid_arg "Blas_ref.conv2d: kernel larger than input";
  Mat.init ~rows:(ir - kr + 1) ~cols:(ic - kc + 1) ~f:(fun i j ->
      let acc = ref 0.0 in
      for di = 0 to kr - 1 do
        for dj = 0 to kc - 1 do
          acc := !acc +. (Mat.get input (i + di) (j + dj) *. Mat.get kernel di dj)
        done
      done;
      !acc)
