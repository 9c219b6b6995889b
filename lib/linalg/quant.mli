(** Symmetric fixed-point quantisation.

    The PCM crossbar stores 8-bit signed weights (two 4-bit cells per
    operand, Section IV of the paper); inputs are driven as 8-bit DAC
    levels. This module converts between [float] values and integer
    codes with a per-tensor scale, and bounds the quantisation error so
    tests can assert crossbar results against the float reference. *)

type scheme = { bits : int; scale : float }
(** [bits]-bit signed codes in [\[-2^(bits-1), 2^(bits-1)-1\]];
    [value ~= code *. scale]. *)

val scheme_for : bits:int -> max_abs:float -> scheme
(** Choose the scale so that [max_abs] maps to the largest positive
    code. [max_abs = 0] yields scale 1 (all codes 0). Requires
    [2 <= bits <= 16]. *)

val quantize : scheme -> float -> int
(** Round-to-nearest, saturating at the code range. *)

val scale_for : bits:int -> max_abs:float -> float
(** [(scheme_for ~bits ~max_abs).scale], without building the record. *)

val quantize_scaled : bits:int -> scale:float -> float -> int
(** [quantize { bits; scale }], without the record. [scale_for] and
    [quantize_scaled] are inlined at their call sites, so per-element
    loops allocate nothing. *)

val dequantize : scheme -> int -> float

val quantization_error_bound : scheme -> float
(** Worst-case absolute error for one in-range value: [scale /. 2]. *)

type binary32
(** A one-element float32 cell. It is mutable: give each domain that
    rounds its own. *)

val binary32 : unit -> binary32

val round_binary32 : binary32 -> float -> float
(** [round_binary32 cell v] is [v] rounded to binary32 and back,
    bit for bit [Int32.float_of_bits (Int32.bits_of_float v)], NaNs
    included, without a C call: inlined, the value stays unboxed. *)

val split_nibbles : int -> int * int
(** [split_nibbles code] for an 8-bit signed code returns
    [(msb, lsb)] with [code = msb*16 + lsb], [lsb] in [\[0,15\]]. Used
    to program a pair of 4-bit PCM columns. *)

val high_nibble : int -> int
val low_nibble : int -> int
(** The two halves of {!split_nibbles}, without the tuple and without
    the range check. *)

val combine_nibbles : msb:int -> lsb:int -> int
(** Inverse of [split_nibbles]. *)
