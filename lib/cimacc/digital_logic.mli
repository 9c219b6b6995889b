(** Digital post-processing block of the CIM tile (Section II-B).

    Combines the per-plane crossbar outputs (the weighted MSB/LSB sum is
    already folded into {!Tdo_pcm.Crossbar.gemv_block}; this block is
    charged for it), rescales the integer dot products back to floats,
    and applies the BLAS alpha/beta epilogue. Counters feed the Table-I
    energy terms: one weighted sum per GEMV plus "extra ALU
    operations". *)

type t

val create : unit -> t

type counters = { weighted_sums : int; alu_ops : int }

val counters : t -> counters

val postprocess_into :
  t ->
  alpha:float ->
  beta:float ->
  scales:float array ->
  raw:int array ->
  c_old:float array option ->
  out:float array ->
  passes:int ->
  len:int ->
  slice_stride:int ->
  elem_stride:int ->
  unit
(** The epilogues of [passes] GEMVs of [len] columns each. Pass [v]'s
    integer results are [raw.(v * len)] to [raw.(v * len + len - 1)]
    and its scale [scales.(v)]; element [j] of its C slice is at
    [p = v * slice_stride + j * elem_stride] in [out] and [c_old]. It
    writes [alpha *. scales.(v) *. raw.(v * len + j) +. beta *. c_old.(p)]
    to [out.(p)] (with [c_old = None] meaning a zero epilogue,
    requiring [beta = 0]). The engine passes one block of streamed
    vectors per call, its slices the rows or the columns of its
    buffers. Counts one weighted sum per pass (for the GEMV that
    produced its results) and the per-element ALU work. Raises
    [Invalid_argument] when [beta <> 0] but no [c_old] is supplied, or
    when an array is too short. *)
