type config = { bits : int; columns_per_adc : int }

let default_config = { bits = 8; columns_per_adc = 32 }

type t = { config : config; mutable conversions : int; mutable samples : int }

let create ?(config = default_config) () =
  if config.bits < 1 then invalid_arg "Adc.create: bits must be positive";
  if config.columns_per_adc < 1 then invalid_arg "Adc.create: sharing factor must be positive";
  { config; conversions = 0; samples = 0 }

let config t = t.config

let convert t ~full_scale value =
  if full_scale <= 0.0 then invalid_arg "Adc.convert: full_scale must be positive";
  t.samples <- t.samples + 1;
  t.conversions <- t.conversions + 1;
  let top = float_of_int ((1 lsl (t.config.bits - 1)) - 1) in
  let code = Float.round (value /. full_scale *. top) in
  let hi = top and lo = -.top -. 1.0 in
  int_of_float (Float.max lo (Float.min hi code))

let count t n =
  if n < 0 then invalid_arg "Adc.count: negative event count";
  t.samples <- t.samples + n;
  t.conversions <- t.conversions + n

let conversions t = t.conversions
let samples t = t.samples

let adc_count_for_columns t n =
  if n <= 0 then 0 else ((n - 1) / t.config.columns_per_adc) + 1
