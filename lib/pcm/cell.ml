type config = {
  levels : int;
  endurance : int;
  g_min_siemens : float;
  g_max_siemens : float;
}

let default_config =
  { levels = 16; endurance = 25_000_000; g_min_siemens = 1e-7; g_max_siemens = 2e-5 }

type t = {
  config : config;
  mutable level : int;
  mutable writes : int;
  mutable stuck : bool;  (** manufacture-time defect: never switches *)
}

let create ?(config = default_config) () =
  if config.levels < 2 then invalid_arg "Cell.create: need at least two levels";
  if config.endurance <= 0 then invalid_arg "Cell.create: endurance must be positive";
  { config; level = 0; writes = 0; stuck = false }

let config t = t.config
let is_worn_out t = t.writes >= t.config.endurance
let is_stuck t = t.stuck || is_worn_out t

let check_level t level =
  if level < 0 || level >= t.config.levels then
    invalid_arg (Printf.sprintf "Cell.program: level %d out of [0,%d)" level t.config.levels)

let program t ~level =
  check_level t level;
  let stuck = is_stuck t in
  t.writes <- t.writes + 1;
  if not stuck then t.level <- level

let exhaust t = t.writes <- max t.writes t.config.endurance

let level t = t.level

let conductance t =
  let frac = float_of_int t.level /. float_of_int (t.config.levels - 1) in
  t.config.g_min_siemens +. (frac *. (t.config.g_max_siemens -. t.config.g_min_siemens))

let writes t = t.writes

type pulse = Set | Reset | Read

let melt_temperature_k = 900.0
let crystallisation_temperature_k = 450.0
let room_temperature_k = 300.0

(* Shapes follow Fig. 1(b): a sharp spike above T_melt for reset, a
   longer plateau between T_crys and T_melt for set, and a low bump for
   read. Times are in nanoseconds. *)
let pulse_profile = function
  | Reset ->
      [
        (0.0, room_temperature_k);
        (5.0, melt_temperature_k +. 100.0);
        (15.0, melt_temperature_k +. 100.0);
        (20.0, room_temperature_k);
      ]
  | Set ->
      [
        (0.0, room_temperature_k);
        (10.0, crystallisation_temperature_k +. 150.0);
        (80.0, crystallisation_temperature_k +. 150.0);
        (100.0, room_temperature_k);
      ]
  | Read ->
      [
        (0.0, room_temperature_k);
        (2.0, crystallisation_temperature_k -. 100.0);
        (8.0, crystallisation_temperature_k -. 100.0);
        (10.0, room_temperature_k);
      ]
