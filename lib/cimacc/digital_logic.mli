(** Digital post-processing block of the CIM tile (Section II-B).

    Combines the per-plane crossbar outputs (the weighted MSB/LSB sum is
    already folded into {!Tdo_pcm.Crossbar.gemv_codes}; this block is
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
  scale:float ->
  raw:int array ->
  c_old:float array option ->
  out:float array ->
  unit
(** [postprocess_into ~alpha ~beta ~scale ~raw ~c_old ~out] writes
    [alpha *. scale *. raw.(i) +. beta *. c_old.(i)] to [out.(i)] per
    element (with [c_old = None] meaning a zero epilogue, requiring
    [beta = 0]). [out] is caller-owned, so the engine's streamed launch
    loop reuses one buffer per launch. Counts one weighted sum (for the
    GEMV that produced [raw]) and the per-element ALU work. Raises
    [Invalid_argument] when [beta <> 0] but no [c_old] is supplied, or
    on length mismatch. *)
