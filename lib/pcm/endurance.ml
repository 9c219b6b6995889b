let seconds_per_year = 365.25 *. 24.0 *. 3600.0

let lifetime_seconds ~cell_endurance ~crossbar_bytes ~write_bytes_per_second =
  if cell_endurance <= 0.0 then invalid_arg "Endurance: endurance must be positive";
  if crossbar_bytes <= 0 then invalid_arg "Endurance: capacity must be positive";
  if write_bytes_per_second <= 0.0 then invalid_arg "Endurance: traffic must be positive";
  cell_endurance *. float_of_int crossbar_bytes /. write_bytes_per_second

let lifetime_years ~cell_endurance ~crossbar_bytes ~write_bytes_per_second =
  lifetime_seconds ~cell_endurance ~crossbar_bytes ~write_bytes_per_second /. seconds_per_year

let write_traffic_bytes_per_second ~bytes_written ~elapsed_seconds =
  if elapsed_seconds <= 0.0 then invalid_arg "Endurance: elapsed time must be positive";
  float_of_int bytes_written /. elapsed_seconds

module Tracker = struct
  type t = {
    cell_endurance : float;
    crossbar_bytes : int;
    mutable bytes_written : int;
  }

  let create ~cell_endurance ~crossbar_bytes =
    if cell_endurance <= 0.0 then invalid_arg "Endurance.Tracker: endurance must be positive";
    if crossbar_bytes <= 0 then invalid_arg "Endurance.Tracker: capacity must be positive";
    { cell_endurance; crossbar_bytes; bytes_written = 0 }

  let record t ~bytes =
    if bytes < 0 then invalid_arg "Endurance.Tracker.record: negative byte count";
    t.bytes_written <- t.bytes_written + bytes

  let bytes_written t = t.bytes_written

  let budget_consumed t =
    float_of_int t.bytes_written /. (t.cell_endurance *. float_of_int t.crossbar_bytes)
end
