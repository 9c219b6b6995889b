type ps = int

let ps_per_ns = 1_000
let ps_per_us = 1_000_000

let period_ps ~freq_hz =
  if freq_hz <= 0.0 then invalid_arg "Time_base.period_ps: frequency must be positive";
  int_of_float (Float.round (1e12 /. freq_hz))

let seconds_of_ps ps = float_of_int ps /. 1e12
