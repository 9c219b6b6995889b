type t = { mutable conversions : int; mutable samples : int }

let create () = { conversions = 0; samples = 0 }

let count t n =
  if n < 0 then invalid_arg "Adc.count: negative event count";
  t.samples <- t.samples + n;
  t.conversions <- t.conversions + n

let conversions t = t.conversions
let samples t = t.samples
