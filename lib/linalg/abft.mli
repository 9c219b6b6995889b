(** Algorithm-based fault tolerance for offloaded GEMV/GEMM
    (Huang & Abraham, IEEE ToC 1984).

    The crossbar computes [out_j = sum_i x_i * W(i,j)] over integer
    codes. Summing both sides over the output columns gives the
    invariant

    {[ sum_j out_j  =  sum_i x_i * (sum_j W(i,j)) ]}

    so a host that retains the per-row checksums [sum_j W(i,j)] —
    computed once when the matrix is programmed — can verify every GEMV
    pass with one extra dot product, without re-running the kernel.
    Because the functional crossbar model is exact integer arithmetic
    (when analog noise is off), any single stuck cell, column bit-flip
    or drift offset that changes the result breaks the equality: the
    check has no false positives and detects every single-fault
    corruption of the output sum. *)

val row_sums : int array array -> int array
(** Per-row checksums of a programmed code matrix: element [i] is
    [sum_j codes.(i).(j)]. Raises [Invalid_argument] on an empty or
    ragged matrix. *)

val row_sums_flat : rows:int -> cols:int -> int array -> int array
(** {!row_sums} of a flat row-major [rows x cols] matrix: code [(i, j)]
    is [codes.(i * cols + j)]; [codes] may be longer. *)

val predict : row_sums:int array -> input:int array -> int
(** The checksum-side of the invariant: [sum_i input.(i) * row_sums.(i)].
    Lengths must agree. *)

val observe : int array -> int
(** The output-side of the invariant: the sum of the raw column
    results. *)

type verdict = Pass | Fail of { expected : int; observed : int }

val verify :
  row_sums:int array ->
  input:int array ->
  input_pos:int ->
  output:int array ->
  output_pos:int ->
  output_len:int ->
  verdict
(** Compare both sides for one GEMV pass: its input codes are
    [input.(input_pos ..)], one per row sum, and its column results
    [output.(output_pos .. output_pos + output_len - 1)]. The arrays
    may hold other passes around this one, as the engine's block
    buffers do. Raises [Invalid_argument] when the pass is not inside
    its arrays. *)
