type config = { levels : int; endurance : int }

let default_config = { levels = 16; endurance = 25_000_000 }

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
