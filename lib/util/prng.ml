(* The 64-bit state lives in an 8-byte buffer: storing an [int64] into
   a mutable record field boxes it, once per draw, while the bytes
   primitives read and write it unboxed. *)
type t = Bytes.t

let create ~seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 (Int64.of_int seed);
  t

(* splitmix64: fast, good statistical quality, trivially seedable.
   Inlined into callers so the Int64 mixing chain, the state update and
   the float/int results all stay unboxed there. *)
let[@inline always] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline always] int t ~bound =
  assert (bound > 0);
  (* Reduce in Int64: a logical shift by 1 still exceeds the native-int
     range, so converting before the reduction would wrap negative. *)
  let r = Int64.shift_right_logical (next_int64 t) 1 in
  Int64.to_int (Int64.rem r (Int64.of_int bound))

let[@inline always] float t ~bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  (* 53 significant bits, as in the stdlib. *)
  r /. 9007199254740992.0 *. bound

let[@inline always] float_range t ~lo ~hi =
  assert (lo <= hi);
  lo +. float t ~bound:(hi -. lo)

let gaussian t ~mu ~sigma =
  let u1 = Float.max 1e-12 (float t ~bound:1.0) in
  let u2 = float t ~bound:1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let bool t = Int64.logand (next_int64 t) 1L = 1L
