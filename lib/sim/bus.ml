type config = { name : string; bytes_per_ps : float; arbitration_ps : Time_base.ps }

let default_config =
  { name = "sysbus"; bytes_per_ps = 4.8e9 /. 1e12; arbitration_ps = 10 * Time_base.ps_per_ns }

type t = {
  config : config;
  traffic : (string, int) Hashtbl.t;
  mutable total_bytes : int;
  mutable transfers : int;
}

let create ?(config = default_config) () =
  if config.bytes_per_ps <= 0.0 then invalid_arg "Bus.create: bandwidth must be positive";
  { config; traffic = Hashtbl.create 8; total_bytes = 0; transfers = 0 }

let config t = t.config

let transfer t ~master ~bytes =
  if bytes < 0 then invalid_arg "Bus.transfer: negative size";
  (* no [option] per transfer: this runs on every L2 fill and write-back *)
  let previous = match Hashtbl.find t.traffic master with v -> v | exception Not_found -> 0 in
  Hashtbl.replace t.traffic master (previous + bytes);
  t.total_bytes <- t.total_bytes + bytes;
  t.transfers <- t.transfers + 1;
  t.config.arbitration_ps
  + int_of_float (Float.round (float_of_int bytes /. t.config.bytes_per_ps))

let traffic t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.traffic []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let total_bytes t = t.total_bytes
let transfers t = t.transfers
