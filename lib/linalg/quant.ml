type scheme = { bits : int; scale : float }

(* [scale_for] and [quantize_scaled] are the scheme-free forms the
   engine's per-element and per-vector loops call: inlined, the scale
   and the element stay unboxed, where building a [scheme] record (or
   passing a float to an out-of-line call) would allocate. *)
let[@inline always] scale_for ~bits ~max_abs =
  if bits < 2 || bits > 16 then invalid_arg "Quant.scheme_for: bits out of range";
  if max_abs < 0.0 then invalid_arg "Quant.scheme_for: negative max_abs";
  let top = float_of_int ((1 lsl (bits - 1)) - 1) in
  if max_abs = 0.0 then 1.0 else max_abs /. top

let scheme_for ~bits ~max_abs = { bits; scale = scale_for ~bits ~max_abs }

(* [int_of_float (Float.round x)] without the call to C's [round]. For
   |x| < 2^52, [x] minus its truncation [i] is exact and lies in
   (-1, 1); doubling it is exact too, and truncating the double gives
   1 from one half up, -1 from minus one half down and 0 in between:
   the step away from zero that rounds halves away from zero, as
   [round] does, with no branch on the data. Larger values, infinities
   and NaN take [Float.round]. *)
let[@inline always] round_to_int x =
  if Float.abs x < 4503599627370496.0 then
    let i = int_of_float x in
    i + int_of_float ((x -. float_of_int i) *. 2.0)
  else int_of_float (Float.round x)

let[@inline always] quantize_scaled ~bits ~scale v =
  let code = round_to_int (v /. scale) in
  let hi = (1 lsl (bits - 1)) - 1 and lo = -(1 lsl (bits - 1)) in
  if code > hi then hi else if code < lo then lo else code

let quantize s v = quantize_scaled ~bits:s.bits ~scale:s.scale v

let dequantize s code = float_of_int code *. s.scale

let quantization_error_bound s = s.scale /. 2.0

(* A store and a load through a float32 cell compile inline to the
   same conversions ([cvtsd2ss], [cvtss2sd] on x86-64) that
   [Int32.bits_of_float] and [Int32.float_of_bits] make behind a C
   call. *)
type binary32 = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

let binary32 () : binary32 = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout 1

let[@inline always] round_binary32 (cell : binary32) v =
  Bigarray.Array1.unsafe_set cell 0 v;
  Bigarray.Array1.unsafe_get cell 0

(* Euclidean split keeps the low nibble non-negative so it maps onto
   an unsigned 4-bit conductance level: on two's-complement ints that
   is the low four bits, and the high nibble is the arithmetic shift. *)
let[@inline always] low_nibble code = code land 15
let[@inline always] high_nibble code = code asr 4

let split_nibbles code =
  if code < -128 || code > 127 then invalid_arg "Quant.split_nibbles: not an 8-bit code";
  (high_nibble code, low_nibble code)

let combine_nibbles ~msb ~lsb =
  if lsb < 0 || lsb > 15 then invalid_arg "Quant.combine_nibbles: bad low nibble";
  (msb * 16) + lsb
