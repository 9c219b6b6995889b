type config = { bytes_per_ps : float; arbitration_ps : Time_base.ps }

let default_config = { bytes_per_ps = 4.8e9 /. 1e12; arbitration_ps = 10 * Time_base.ps_per_ns }

(* [last_bytes] and [last_ps] are the size and latency of the last
   transfer whose latency was computed: every L2 fill and write-back
   moves one 64-byte line, so that size is priced once, not with a
   float division and a rounding per line. The latency is a function of
   the size alone, so the memo is exact. *)
type t = {
  config : config;
  mutable last_bytes : int;  (** -1 until the first transfer *)
  mutable last_ps : Time_base.ps;
}

let create ?(config = default_config) () =
  if config.bytes_per_ps <= 0.0 then invalid_arg "Bus.create: bandwidth must be positive";
  { config; last_bytes = -1; last_ps = 0 }

let transfer t ~bytes =
  if bytes < 0 then invalid_arg "Bus.transfer: negative size";
  if bytes <> t.last_bytes then begin
    t.last_bytes <- bytes;
    t.last_ps <-
      t.config.arbitration_ps
      + int_of_float (Float.round (float_of_int bytes /. t.config.bytes_per_ps))
  end;
  t.last_ps
