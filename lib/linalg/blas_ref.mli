(** Reference (host, exact-float) BLAS-like kernels.

    These are the golden models: the CIM crossbar results are validated
    against them modulo quantisation error, and the PolyBench host runs
    compute the same functions. Semantics follow standard BLAS:
    [C <- alpha*op(A)*op(B) + beta*C]. *)

type transpose = No_transpose | Transpose

val gemm :
  ?trans_a:transpose ->
  ?trans_b:transpose ->
  alpha:float ->
  beta:float ->
  a:Mat.t ->
  b:Mat.t ->
  c:Mat.t ->
  unit ->
  unit
(** In-place GEMM on [c]. Raises [Invalid_argument] on shape mismatch. *)

val gemv :
  ?trans_a:transpose ->
  alpha:float ->
  beta:float ->
  a:Mat.t ->
  x:float array ->
  y:float array ->
  unit ->
  unit
(** In-place GEMV on [y]: [y <- alpha*op(A)*x + beta*y]. *)

val conv2d : input:Mat.t -> kernel:Mat.t -> Mat.t
(** Valid 2-D convolution (no padding, stride 1); output size
    [(rows input - rows kernel + 1) x (cols input - cols kernel + 1)].
    The paper's [conv] benchmark. *)
