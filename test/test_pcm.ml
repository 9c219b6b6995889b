open Tdo_pcm
module Prng = Tdo_util.Prng
module Mat = Tdo_linalg.Mat
module Blas_ref = Tdo_linalg.Blas_ref

(* ---------- Cell ----------

   The crossbar holds the state of every cell and applies the Fig. 1
   device rules of [Cell.config]. These tests drive the two cells of a
   1x1 array: programming code [c] in [0, 15] sets the LSB cell to level
   [c] and the MSB cell to level 8, and reading back gives
   [(msb - 8) * 16 + lsb]. *)

let one_cell ?(endurance = Cell.default_config.Cell.endurance) () =
  Crossbar.create
    ~config:
      {
        Crossbar.default_config with
        Crossbar.rows = 1;
        cols = 1;
        cell = { Cell.default_config with Cell.endurance };
        size_bytes = 1;
      }
    ()

let read_cell xb = (Crossbar.read_codes xb).(0).(0)

let test_cell_program_read () =
  let xb = one_cell () in
  Crossbar.program_codes xb [| [| 9 |] |];
  Alcotest.(check int) "stores level" 9 (read_cell xb);
  Alcotest.(check int) "one write per cell" 2 (Crossbar.wear_total xb);
  Alcotest.(check int) "no cell written twice" 1 (Crossbar.wear_max xb)

let test_cell_level_range () =
  let xb = one_cell () in
  Alcotest.check_raises "rejects level 16" (Invalid_argument "Crossbar: level 16 out of [0,16)")
    (fun () -> Crossbar.inject_wear_out xb ~plane:Crossbar.Msb ~row:0 ~col:0 ~level:16);
  Alcotest.check_raises "rejects negative" (Invalid_argument "Crossbar: level -1 out of [0,16)")
    (fun () -> Crossbar.inject_wear_out xb ~plane:Crossbar.Lsb ~row:0 ~col:0 ~level:(-1))

let test_cell_wear_out_sticks () =
  let xb = one_cell ~endurance:3 () in
  List.iter (fun c -> Crossbar.program_codes xb [| [| c |] |]) [ 5; 6; 7 ];
  Alcotest.(check (float 0.0)) "worn after budget" 1.0 (Crossbar.worn_out_fraction xb);
  Crossbar.program_codes xb [| [| 1 |] |];
  Alcotest.(check int) "stuck at last good level" 7 (read_cell xb);
  Alcotest.(check int) "write attempts still counted" 8 (Crossbar.wear_total xb)

let test_pulse_shapes () =
  let peak p = List.fold_left (fun acc (_, temp) -> Float.max acc temp) 0.0 (Cell.pulse_profile p) in
  let duration p = List.fold_left (fun acc (t, _) -> Float.max acc t) 0.0 (Cell.pulse_profile p) in
  Alcotest.(check bool) "reset exceeds melt" true (peak Cell.Reset > Cell.melt_temperature_k);
  Alcotest.(check bool) "set below melt" true (peak Cell.Set < Cell.melt_temperature_k);
  Alcotest.(check bool) "set above crystallisation" true
    (peak Cell.Set > Cell.crystallisation_temperature_k);
  Alcotest.(check bool) "read below crystallisation" true
    (peak Cell.Read < Cell.crystallisation_temperature_k);
  Alcotest.(check bool) "reset shorter than set" true (duration Cell.Reset < duration Cell.Set)

(* ---------- ADC ---------- *)

let test_adc_counts () =
  let a = Adc.create () in
  Adc.count a 2;
  Adc.count a 0;
  Alcotest.(check int) "conversions" 2 (Adc.conversions a);
  Alcotest.(check int) "samples" 2 (Adc.samples a);
  Alcotest.(check bool) "a negative count raises" true
    (try
       Adc.count a (-1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "and counts nothing" 2 (Adc.conversions a)

(* ---------- Crossbar ---------- *)

let small_config =
  { Crossbar.default_config with Crossbar.rows = 16; cols = 16; size_bytes = 256 }

let random_codes g ~rows ~cols =
  Array.init rows (fun _ -> Array.init cols (fun _ -> Prng.int g ~bound:256 - 128))

let test_crossbar_program_read_roundtrip () =
  let g = Prng.create ~seed:21 in
  let xb = Crossbar.create ~config:small_config () in
  let codes = random_codes g ~rows:10 ~cols:12 in
  Crossbar.program_codes xb codes;
  Alcotest.(check bool) "read back equals written" true (Crossbar.read_codes xb = codes)

let test_crossbar_gemv_exact () =
  let g = Prng.create ~seed:22 in
  let xb = Crossbar.create ~config:small_config () in
  let m = 9 and n = 11 in
  let codes = random_codes g ~rows:m ~cols:n in
  Crossbar.program_codes xb codes;
  let input = Array.init m (fun _ -> Prng.int g ~bound:256 - 128) in
  let out = Crossbar.gemv_codes xb input in
  let expected =
    Array.init n (fun j ->
        let acc = ref 0 in
        for i = 0 to m - 1 do
          acc := !acc + (input.(i) * codes.(i).(j))
        done;
        !acc)
  in
  Alcotest.(check (array int)) "exact integer GEMV" expected out

let test_crossbar_matches_float_reference () =
  let g = Prng.create ~seed:23 in
  let xb = Crossbar.create ~config:small_config () in
  let m = 8 and n = 8 in
  let codes = random_codes g ~rows:m ~cols:n in
  Crossbar.program_codes xb codes;
  let input = Array.init m (fun _ -> Prng.int g ~bound:21 - 10) in
  let out = Crossbar.gemv_codes xb input in
  (* Same computation through the float reference: x^T * A == (A^T x). *)
  let a = Mat.init ~rows:m ~cols:n ~f:(fun i j -> float_of_int codes.(i).(j)) in
  let x = Array.map float_of_int input in
  let y = Array.make n 0.0 in
  Blas_ref.gemv ~trans_a:Blas_ref.Transpose ~alpha:1.0 ~beta:0.0 ~a ~x ~y ();
  Array.iteri
    (fun j v -> Alcotest.(check (float 1e-9)) "agrees with Blas_ref" v (float_of_int out.(j)))
    y

let test_crossbar_counters () =
  let g = Prng.create ~seed:24 in
  let xb = Crossbar.create ~config:small_config () in
  Crossbar.program_codes xb (random_codes g ~rows:4 ~cols:5);
  let input = Array.make 4 1 in
  ignore (Crossbar.gemv_codes xb input);
  ignore (Crossbar.gemv_codes xb input);
  let c = Crossbar.counters xb in
  Alcotest.(check int) "cell writes = 2 per operand" 40 c.Crossbar.cell_writes;
  Alcotest.(check int) "logical writes" 20 c.Crossbar.logical_writes;
  Alcotest.(check int) "write bytes" 20 c.Crossbar.write_bytes;
  Alcotest.(check int) "gemv ops" 2 c.Crossbar.gemv_ops;
  Alcotest.(check int) "macs" 40 c.Crossbar.macs;
  Alcotest.(check int) "adc conversions = 2 planes x cols x gemvs" 20
    (Adc.conversions (Crossbar.adc xb))

let test_crossbar_region_and_errors () =
  let g = Prng.create ~seed:25 in
  let xb = Crossbar.create ~config:small_config () in
  Alcotest.check_raises "gemv before program" (Failure "Crossbar: no matrix programmed")
    (fun () -> ignore (Crossbar.gemv_codes xb [| 1 |]));
  Crossbar.program_codes xb ~row_off:2 ~col_off:3 (random_codes g ~rows:4 ~cols:5);
  Alcotest.(check (option (list int))) "active region"
    (Some [ 2; 3; 4; 5 ])
    (Option.map (fun (a, b, c, d) -> [ a; b; c; d ]) (Crossbar.active_region xb));
  Alcotest.check_raises "input length mismatch"
    (Invalid_argument "Crossbar.gemv_codes: input length 3, active rows 4") (fun () ->
      ignore (Crossbar.gemv_codes xb [| 1; 2; 3 |]));
  Alcotest.check_raises "region overflow"
    (Invalid_argument "Crossbar.program_codes: region exceeds the array") (fun () ->
      Crossbar.program_codes xb ~row_off:14 (random_codes g ~rows:4 ~cols:4))

let test_crossbar_wear_accumulates () =
  let g = Prng.create ~seed:26 in
  let xb = Crossbar.create ~config:small_config () in
  Crossbar.program_codes xb (random_codes g ~rows:16 ~cols:16);
  Alcotest.(check int) "wear total after one full write" (2 * 16 * 16) (Crossbar.wear_total xb);
  Crossbar.program_codes xb (random_codes g ~rows:16 ~cols:16);
  Alcotest.(check int) "wear grows" (4 * 16 * 16) (Crossbar.wear_total xb);
  Alcotest.(check int) "max per-cell wear" 2 (Crossbar.wear_max xb)

let test_crossbar_wear_out_visible_in_results () =
  let config =
    {
      small_config with
      Crossbar.rows = 1;
      cols = 1;
      cell = { Cell.default_config with Cell.endurance = 1 };
    }
  in
  let xb = Crossbar.create ~config () in
  let codes = [| [| 100 |] |] in
  Crossbar.program_codes xb codes;
  (* Endurance 1: the second programming no longer switches the cells. *)
  Crossbar.program_codes xb [| [| -50 |] |];
  Alcotest.(check bool) "stuck at first value" true (Crossbar.read_codes xb = codes);
  Alcotest.(check (float 1e-9)) "all cells worn" 1.0 (Crossbar.worn_out_fraction xb)

let test_crossbar_noise_bounded () =
  let config = { small_config with Crossbar.noise_sigma = Some 1.0 } in
  let xb = Crossbar.create ~config ~seed:3 () in
  let codes = Array.make_matrix 8 8 10 in
  Crossbar.program_codes xb codes;
  let input = Array.make 8 5 in
  let out = Crossbar.gemv_codes xb input in
  let exact = 8 * 5 * 10 in
  Array.iter
    (fun v ->
      (* result = 16*(hi + e1) + (lo + e2); 6-sigma bound on the combined noise *)
      Alcotest.(check bool) "noise within 6 sigma of both planes" true
        (abs (v - exact) <= 16 * 6 + 6))
    out

let qcheck_gemv_additive =
  QCheck.Test.make ~name:"crossbar gemv is additive in the input" ~count:50 QCheck.small_int
    (fun seed ->
      let g = Prng.create ~seed in
      let m = 1 + Prng.int g ~bound:12 and n = 1 + Prng.int g ~bound:12 in
      let xb = Crossbar.create ~config:small_config () in
      Crossbar.program_codes xb (random_codes g ~rows:m ~cols:n);
      let x = Array.init m (fun _ -> Prng.int g ~bound:101 - 50) in
      let y = Array.init m (fun _ -> Prng.int g ~bound:101 - 50) in
      let xy = Array.init m (fun i -> x.(i) + y.(i)) in
      let ox = Crossbar.gemv_codes xb x
      and oy = Crossbar.gemv_codes xb y
      and oxy = Crossbar.gemv_codes xb xy in
      Array.for_all2 (fun a b -> a = b) oxy (Array.init n (fun j -> ox.(j) + oy.(j))))

type wear_cmd =
  | Program of int * int * int * int  (** row_off, col_off, rows, cols *)
  | Wear_out of Crossbar.plane * int * int
  | Stuck of Crossbar.plane * int * int

(* Per-cell state with [Cell] semantics: the crossbar keeps running wear
   totals and grows its planes as writes reach them, and a write count,
   level and defect flag kept here for every cell say what it must
   report. Index 0 is the MSB plane, 1 the LSB plane. *)
type cell_model = {
  endurance : int;
  writes : int array array array;
  levels : int array array array;
  stuck : bool array array array;
}

let cell_model ~rows ~cols ~endurance =
  {
    endurance;
    writes = Array.init 2 (fun _ -> Array.make_matrix rows cols 0);
    levels = Array.init 2 (fun _ -> Array.make_matrix rows cols 0);
    stuck = Array.init 2 (fun _ -> Array.make_matrix rows cols false);
  }

let plane_index = function Crossbar.Msb -> 0 | Crossbar.Lsb -> 1
let model_is_stuck md p i j = md.stuck.(p).(i).(j) || md.writes.(p).(i).(j) >= md.endurance

(* A write pulse: stuckness is judged before the pulse's wear *)
let model_program md p i j level =
  let was_stuck = model_is_stuck md p i j in
  md.writes.(p).(i).(j) <- md.writes.(p).(i).(j) + 1;
  if not was_stuck then md.levels.(p).(i).(j) <- level

let model_code md i j =
  Tdo_linalg.Quant.combine_nibbles ~msb:(md.levels.(0).(i).(j) - 8) ~lsb:md.levels.(1).(i).(j)

let wear_code k = (k * 37 mod 256) - 128

(* Applies one write to the crossbar and to the model alike. *)
let apply_wear_cmd xb md = function
  | Program (row_off, col_off, m, n) ->
      Crossbar.program_flat xb ~row_off ~col_off ~rows:m ~cols:n (Array.init (m * n) wear_code);
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          let c = wear_code ((i * n) + j) in
          model_program md 0 (row_off + i) (col_off + j) (Tdo_linalg.Quant.high_nibble c + 8);
          model_program md 1 (row_off + i) (col_off + j) (Tdo_linalg.Quant.low_nibble c)
        done
      done
  | Wear_out (plane, row, col) ->
      Crossbar.inject_wear_out xb ~plane ~row ~col ~level:5;
      let p = plane_index plane in
      model_program md p row col 5;
      md.writes.(p).(row).(col) <- max md.writes.(p).(row).(col) md.endurance
  | Stuck (plane, row, col) ->
      Crossbar.inject_stuck_at xb ~plane ~row ~col ~level:7;
      let p = plane_index plane in
      md.levels.(p).(row).(col) <- 7;
      md.stuck.(p).(row).(col) <- true

(* The geometries are a 4x5 array with endurance 3, so cells wear out
   within a short run, and a 64x48 array whose planes grow in the
   middle of a sequence, once with endurance 3 and once with 0 (every
   cell worn, and so stuck, from the start, written or not). *)
let wear_geometry = QCheck.Gen.oneofl [ (4, 5, 3); (64, 48, 3); (64, 48, 0) ]

let wear_config (rows, cols, endurance) =
  { small_config with
    Crossbar.rows; cols; cell = { Cell.default_config with Cell.endurance };
    size_bytes = rows * cols }

let wear_cmd_gen (rows, cols, _) =
  let plane = QCheck.Gen.map (fun m -> if m then Crossbar.Msb else Crossbar.Lsb) QCheck.Gen.bool in
  (* biased towards the last row and column, the far end of the planes *)
  let coord size = QCheck.Gen.(frequency [ (3, int_bound (size - 1)); (1, return (size - 1)) ]) in
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map2 (fun m n -> (m, n)) (1 -- min rows 6) (1 -- min cols 6) >>= fun (m, n) ->
          map2 (fun r c -> Program (r, c, m, n)) (coord (rows - m + 1)) (coord (cols - n + 1)) );
        (1, map3 (fun p r c -> Wear_out (p, r, c)) plane (coord rows) (coord cols));
        (1, map3 (fun p r c -> Stuck (p, r, c)) plane (coord rows) (coord cols));
      ])

let print_wear_cmd =
  let plane_char p = if p = Crossbar.Msb then 'm' else 'l' in
  function
  | Program (r, c, m, n) -> Printf.sprintf "P%d,%d:%dx%d" r c m n
  | Wear_out (p, r, c) -> Printf.sprintf "W%c%d,%d" (plane_char p) r c
  | Stuck (p, r, c) -> Printf.sprintf "S%c%d,%d" (plane_char p) r c

let print_geometry (rows, cols, endurance) = Printf.sprintf "%dx%d e=%d" rows cols endurance

let qcheck_wear_totals_match_cells =
  let print (g, cmds) =
    Printf.sprintf "%s: %s" (print_geometry g) (String.concat " " (List.map print_wear_cmd cmds))
  in
  QCheck.Test.make ~name:"wear totals match a per-cell model" ~count:300
    (QCheck.make ~print
       QCheck.Gen.(
         wear_geometry >>= fun g ->
         map (fun cmds -> (g, cmds)) (list_size (0 -- 30) (wear_cmd_gen g))))
    (fun (((rows, cols, endurance) as g), cmds) ->
      let xb = Crossbar.create ~config:(wear_config g) () in
      let md = cell_model ~rows ~cols ~endurance in
      List.iter (apply_wear_cmd xb md) cmds;
      let cells =
        List.concat_map Array.to_list (List.concat_map Array.to_list (Array.to_list md.writes))
      in
      let worn = List.length (List.filter (fun w -> w >= endurance) cells) in
      let stuck_cells = ref 0 in
      for p = 0 to 1 do
        for i = 0 to rows - 1 do
          for j = 0 to cols - 1 do
            if model_is_stuck md p i j then incr stuck_cells
          done
        done
      done;
      let total = float_of_int (2 * rows * cols) in
      let region_ok =
        match Crossbar.active_region xb with
        | None -> true
        | Some (row_off, col_off, m, n) ->
            let code_at i j = model_code md (row_off + i) (col_off + j) in
            let x = Array.init m (fun i -> (i * 7 mod 11) - 5) in
            let expected_out =
              Array.init n (fun j ->
                  let acc = ref 0 in
                  for i = 0 to m - 1 do
                    acc := !acc + (x.(i) * code_at i j)
                  done;
                  !acc)
            in
            Crossbar.read_codes xb = Array.init m (fun i -> Array.init n (code_at i))
            && Crossbar.gemv_codes xb x = expected_out
      in
      Crossbar.wear_total xb = List.fold_left ( + ) 0 cells
      && Crossbar.wear_max xb = List.fold_left max 0 cells
      && Crossbar.worn_out_fraction xb = float_of_int worn /. total
      && Crossbar.stuck_fraction xb = float_of_int !stuck_cells /. total
      && region_ok)

type gemv_cmd = Write of wear_cmd | Drift of int | Flip of int * int * int | Gemv

(* The GEMV reads both planes' levels from one packed byte per
   operand; the model keeps per-cell levels for each plane on its own.
   After every command, a GEMV over the active region must equal a
   reference built from those levels: two plane sums per column, each
   perturbed from the reference's own [Prng] stream with the crossbar's
   seed when noise is on (the MSB plane's first), then the drift added
   and the armed flips applied as [apply_flips] does, newest first.
   [Gemv] writes nothing, so two GEMVs run back to back. A quarter of
   the cases draw inputs from [-2^55, 2^55), where the sums wrap, so
   the crossbar's sums must match the model's in wrapping arithmetic;
   the rest draw 8-bit codes. The ADC counts two events per active
   column per GEMV. *)
let qcheck_gemv_matches_planes =
  let cmd_gen ((_, cols, _) as g) =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun c -> Write c) (wear_cmd_gen g));
          (1, map (fun d -> Drift d) (-1000 -- 1000));
          (1, map3 (fun c b o -> Flip (c, b, o)) (0 -- (cols - 1)) (0 -- 40) (1 -- 3));
          (2, return Gemv);
        ])
  in
  let print_cmd = function
    | Write c -> print_wear_cmd c
    | Drift d -> Printf.sprintf "D%d" d
    | Flip (c, b, o) -> Printf.sprintf "F%d.%d*%d" c b o
    | Gemv -> "G"
  in
  let print ((g, cmds), (noisy, wide, seed)) =
    Printf.sprintf "%s noisy=%b wide=%b seed=%d: %s" (print_geometry g) noisy wide seed
      (String.concat " " (List.map print_cmd cmds))
  in
  let gen =
    QCheck.Gen.(
      pair
        (wear_geometry >>= fun g -> map (fun cmds -> (g, cmds)) (list_size (0 -- 30) (cmd_gen g)))
        (triple bool (map (fun k -> k = 0) (int_bound 3)) small_nat))
  in
  QCheck.Test.make ~name:"GEMV equals the per-plane model after every write" ~count:300
    (QCheck.make ~print gen)
    (fun ((((rows, cols, endurance) as g), cmds), (noisy, wide, seed)) ->
      let sigma = 3.0 in
      let config =
        { (wear_config g) with Crossbar.noise_sigma = (if noisy then Some sigma else None) }
      in
      let xb = Crossbar.create ~config ~seed () in
      let md = cell_model ~rows ~cols ~endurance in
      let noise = Prng.create ~seed and inputs = Prng.create ~seed:(seed + 1) in
      let drift = ref 0 and flips = ref [] and events = ref 0 in
      let perturb v =
        if noisy then v + int_of_float (Float.round (Prng.gaussian noise ~mu:0.0 ~sigma)) else v
      in
      let flip ~col v =
        List.fold_left
          (fun v (fcol, bit, left) ->
            if fcol = col && !left > 0 then begin
              decr left;
              v lxor (1 lsl bit)
            end
            else v)
          v !flips
      in
      let gemv_ok () =
        match Crossbar.active_region xb with
        | None -> true
        | Some (row_off, col_off, m, n) ->
            let x =
              Array.init m (fun _ ->
                  if wide then Prng.int inputs ~bound:(1 lsl 56) - (1 lsl 55)
                  else Prng.int inputs ~bound:256 - 128)
            in
            let expected =
              Array.init n (fun j ->
                  let hi = ref 0 and lo = ref 0 in
                  for i = 0 to m - 1 do
                    hi := !hi + (x.(i) * (md.levels.(0).(row_off + i).(col_off + j) - 8));
                    lo := !lo + (x.(i) * md.levels.(1).(row_off + i).(col_off + j))
                  done;
                  let hi = perturb !hi in
                  let lo = perturb !lo in
                  flip ~col:(col_off + j) ((16 * hi) + lo + !drift))
            in
            events := !events + (2 * n);
            let adc = Crossbar.adc xb in
            Crossbar.gemv_codes xb x = expected
            && Adc.samples adc = !events
            && Adc.conversions adc = !events
      in
      gemv_ok ()
      && List.for_all
           (fun cmd ->
             (match cmd with
             | Write c -> apply_wear_cmd xb md c
             | Drift d ->
                 Crossbar.set_drift xb ~offset:d;
                 drift := d
             | Flip (col, bit, ops) ->
                 Crossbar.arm_column_flip xb ~col ~bit ~ops;
                 flips := (col, bit, ref ops) :: !flips
             | Gemv -> ());
             gemv_ok ())
           cmds)

(* [program_flat] checks every code before it writes a cell: a code of
   128 in the last position raises and leaves the levels, the wear
   totals, the counters and the active region as they were. With an
   endurance of 2, a partial write would change levels in the active
   region and move all three wear figures. *)
let test_program_flat_validates_first () =
  let cell = { Cell.default_config with Cell.endurance = 2 } in
  let xb = Crossbar.create ~config:{ small_config with Crossbar.cell } () in
  Crossbar.program_codes xb ~row_off:1 ~col_off:2
    (random_codes (Prng.create ~seed:27) ~rows:3 ~cols:4);
  let input = [| 3; -7; 11 |] in
  let out = Crossbar.gemv_codes xb input in
  let state () =
    ( Crossbar.read_codes xb,
      Crossbar.active_region xb,
      (Crossbar.wear_total xb, Crossbar.wear_max xb, Crossbar.worn_out_fraction xb),
      Crossbar.counters xb )
  in
  let before = state () in
  let codes = Array.init 20 (fun k -> if k = 19 then 128 else (k * 13) - 100) in
  Alcotest.check_raises "a code of 128" (Invalid_argument "Quant.split_nibbles: not an 8-bit code")
    (fun () -> Crossbar.program_flat xb ~rows:4 ~cols:5 codes);
  let codes, region, wear, counters = state () in
  let codes0, region0, wear0, counters0 = before in
  Alcotest.(check bool) "levels untouched" true (codes = codes0);
  Alcotest.(check bool) "active region untouched" true (region = region0);
  Alcotest.(check bool) "wear total, peak and worn fraction untouched" true (wear = wear0);
  Alcotest.(check bool) "counters untouched" true (counters = counters0);
  Alcotest.(check (array int)) "the same GEMV" out (Crossbar.gemv_codes xb input)

(* Cell state grows as writes reach it: a fresh 4-tile device (4 tiles
   x 2 planes x 65,536 cells) allocates its caches, not its crossbars. *)
let test_fresh_device_allocates_what_it_touches () =
  let d = Tdo_runtime.Platform.default_config in
  let platform_config =
    { d with
      Tdo_runtime.Platform.engine =
        { d.Tdo_runtime.Platform.engine with Tdo_cimacc.Micro_engine.tiles = 4 } }
  in
  let _, _, before = Gc.counters () in
  let dev = Tdo_serve.Device.create ~platform_config ~id:0 () in
  let _, _, after = Gc.counters () in
  ignore (Sys.opaque_identity dev);
  let words = after -. before in
  if words >= 100_000.0 then
    Alcotest.failf "fresh 4-tile device allocated %.0f major words (limit 100,000)" words

let qcheck_program_read_roundtrip =
  QCheck.Test.make ~name:"crossbar program/read roundtrip" ~count:50 QCheck.small_int
    (fun seed ->
      let g = Prng.create ~seed in
      let m = 1 + Prng.int g ~bound:16 and n = 1 + Prng.int g ~bound:16 in
      let xb = Crossbar.create ~config:small_config () in
      let codes = random_codes g ~rows:m ~cols:n in
      Crossbar.program_codes xb codes;
      Crossbar.read_codes xb = codes)

let qcheck_worn_cell_sticks =
  QCheck.Test.make ~name:"worn-out cell is stuck at its last level for any program sequence"
    ~count:200
    QCheck.(pair (int_bound 20) (list_of_size Gen.(1 -- 40) (int_bound 15)))
    (fun (endurance, levels) ->
      let endurance = 1 + endurance in
      let xb = one_cell ~endurance () in
      let last_good = ref 0 in
      List.iteri
        (fun i level ->
          Crossbar.program_codes xb [| [| level |] |];
          if i < endurance then last_good := level)
        levels;
      let writes_ok = Crossbar.wear_total xb = 2 * List.length levels in
      if List.length levels >= endurance then
        (* the budget is spent: the cell froze at the last in-budget level *)
        writes_ok
        && Crossbar.worn_out_fraction xb = 1.0
        && Crossbar.stuck_fraction xb = 1.0
        && read_cell xb = !last_good
      else Crossbar.worn_out_fraction xb = 0.0 && writes_ok && read_cell xb = !last_good)

let test_crossbar_fault_hooks () =
  let g = Prng.create ~seed:31 in
  let xb = Crossbar.create ~config:small_config () in
  let codes = random_codes g ~rows:8 ~cols:8 in
  Crossbar.program_codes xb codes;
  let input = Array.init 8 (fun i -> i + 1) in
  let clean = Crossbar.gemv_codes xb input in
  Crossbar.set_drift xb ~offset:3;
  let drifted = Crossbar.gemv_codes xb input in
  Array.iteri
    (fun j v -> Alcotest.(check int) "drift offsets every column" (clean.(j) + 3) v)
    drifted;
  Crossbar.set_drift xb ~offset:0;
  Crossbar.arm_column_flip xb ~col:2 ~bit:0 ~ops:1;
  Alcotest.(check int) "flip armed" 1 (Crossbar.flips_remaining xb);
  let flipped = Crossbar.gemv_codes xb input in
  Alcotest.(check int) "armed flip toggles one output bit" (clean.(2) lxor 1) flipped.(2);
  Alcotest.(check int) "other columns untouched" clean.(5) flipped.(5);
  Alcotest.(check int) "flip budget spent" 0 (Crossbar.flips_remaining xb);
  let after = Crossbar.gemv_codes xb input in
  Alcotest.(check (array int)) "transient expires after its ops budget" clean after

let test_crossbar_inject_stuck () =
  let xb = Crossbar.create ~config:small_config () in
  Crossbar.inject_stuck_at xb ~plane:Crossbar.Msb ~row:0 ~col:0 ~level:0;
  let codes = Array.make_matrix 4 4 127 in
  Crossbar.program_codes xb codes;
  let out = Crossbar.read_codes xb in
  Alcotest.(check bool) "stuck cell corrupts its code" true (out.(0).(0) <> 127);
  Alcotest.(check int) "neighbours unaffected" 127 out.(0).(1);
  Alcotest.(check bool) "defective fraction visible" true (Crossbar.stuck_fraction xb > 0.0);
  Alcotest.check_raises "bounds checked"
    (Invalid_argument "Crossbar: cell (99,0) outside the 16x16 array") (fun () ->
      Crossbar.inject_stuck_at xb ~plane:Crossbar.Lsb ~row:99 ~col:0 ~level:0)

(* ---------- Endurance ---------- *)

let seconds_per_year = 365.25 *. 24.0 *. 3600.0

let test_lifetime_equation () =
  (* endurance * S / B with easy numbers: 10 writes * 100 bytes / 1 B/s. *)
  Alcotest.(check (float 1e-9)) "seconds" 1000.0
    (seconds_per_year
    *. Endurance.lifetime_years ~cell_endurance:10.0 ~crossbar_bytes:100
         ~write_bytes_per_second:1.0);
  let years =
    Endurance.lifetime_years ~cell_endurance:1.0 ~crossbar_bytes:1
      ~write_bytes_per_second:(1.0 /. seconds_per_year)
  in
  Alcotest.(check (float 1e-9)) "one year" 1.0 years

let test_lifetime_linear_in_endurance () =
  let life e =
    Endurance.lifetime_years ~cell_endurance:e ~crossbar_bytes:(512 * 1024)
      ~write_bytes_per_second:1e6
  in
  Alcotest.(check (float 1e-9)) "doubling endurance doubles lifetime" (2.0 *. life 1e7) (life 2e7)

let test_lifetime_invalid () =
  Alcotest.check_raises "zero traffic" (Invalid_argument "Endurance: traffic must be positive")
    (fun () ->
      ignore
        (Endurance.lifetime_years ~cell_endurance:1.0 ~crossbar_bytes:1
           ~write_bytes_per_second:0.0))

let test_write_traffic () =
  Alcotest.(check (float 1e-9)) "bytes/s" 2000.0
    (Endurance.write_traffic_bytes_per_second ~bytes_written:1000 ~elapsed_seconds:0.5)

let suites =
  [
    ( "pcm.cell",
      [
        Alcotest.test_case "program/read" `Quick test_cell_program_read;
        Alcotest.test_case "level range" `Quick test_cell_level_range;
        Alcotest.test_case "wear-out sticks" `Quick test_cell_wear_out_sticks;
        QCheck_alcotest.to_alcotest qcheck_worn_cell_sticks;
        Alcotest.test_case "pulse shapes (Fig 1)" `Quick test_pulse_shapes;
      ] );
    ( "pcm.adc",
      [
        Alcotest.test_case "event counts" `Quick test_adc_counts;
      ] );
    ( "pcm.crossbar",
      [
        Alcotest.test_case "program/read roundtrip" `Quick test_crossbar_program_read_roundtrip;
        Alcotest.test_case "gemv exact" `Quick test_crossbar_gemv_exact;
        Alcotest.test_case "matches float reference" `Quick test_crossbar_matches_float_reference;
        Alcotest.test_case "counters" `Quick test_crossbar_counters;
        Alcotest.test_case "active region & errors" `Quick test_crossbar_region_and_errors;
        Alcotest.test_case "wear accumulates" `Quick test_crossbar_wear_accumulates;
        Alcotest.test_case "wear-out visible" `Quick test_crossbar_wear_out_visible_in_results;
        Alcotest.test_case "noise bounded" `Quick test_crossbar_noise_bounded;
        Alcotest.test_case "fault hooks: drift & column flip" `Quick test_crossbar_fault_hooks;
        Alcotest.test_case "fault hooks: stuck-at" `Quick test_crossbar_inject_stuck;
        QCheck_alcotest.to_alcotest qcheck_gemv_additive;
        QCheck_alcotest.to_alcotest qcheck_program_read_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_wear_totals_match_cells;
        QCheck_alcotest.to_alcotest qcheck_gemv_matches_planes;
        Alcotest.test_case "program_flat validates before writing" `Quick
          test_program_flat_validates_first;
        Alcotest.test_case "fresh device allocates what it touches" `Quick
          test_fresh_device_allocates_what_it_touches;
      ] );
    ( "pcm.endurance",
      [
        Alcotest.test_case "Eq. 1" `Quick test_lifetime_equation;
        Alcotest.test_case "linear in endurance" `Quick test_lifetime_linear_in_endurance;
        Alcotest.test_case "invalid inputs" `Quick test_lifetime_invalid;
        Alcotest.test_case "write traffic" `Quick test_write_traffic;
      ] );
  ]

(* ---------- Start-Gap wear leveling ---------- *)

let test_wl_mapping_bijective () =
  let wl = Wear_leveling.create ~lines:8 ~gap_interval:3 in
  let check_bijective () =
    let seen = Hashtbl.create 16 in
    for logical = 0 to 7 do
      let phys = Wear_leveling.physical_of_logical wl logical in
      Alcotest.(check bool) "in physical range" true (phys >= 0 && phys <= 8);
      Alcotest.(check bool) "no collision" false (Hashtbl.mem seen phys);
      Hashtbl.add seen phys ()
    done
  in
  check_bijective ();
  (* drive enough writes to move the gap through several full rotations *)
  for i = 0 to 999 do
    Wear_leveling.write wl (i mod 8);
    check_bijective ()
  done

let test_wl_rotation_progress () =
  let wl = Wear_leveling.create ~lines:4 ~gap_interval:1 in
  let initial = Wear_leveling.physical_of_logical wl 0 in
  (* 5 gap movements = one full rotation; mapping must have shifted *)
  for _ = 1 to 5 do
    Wear_leveling.write wl 0
  done;
  Alcotest.(check bool) "mapping rotated" true
    (Wear_leveling.physical_of_logical wl 0 <> initial);
  Alcotest.(check int) "gap movements counted" 5 (Wear_leveling.gap_movements wl)

let test_wl_levels_skewed_traffic () =
  (* hammer one logical line; without leveling max wear = all writes,
     with Start-Gap it must approach the ideal bound *)
  let lines = 16 in
  let writes = 20_000 in
  let wl = Wear_leveling.create ~lines ~gap_interval:4 in
  for _ = 1 to writes do
    Wear_leveling.write wl 3
  done;
  let max_wear = Wear_leveling.max_wear wl in
  let ideal = Wear_leveling.ideal_max_wear wl in
  Alcotest.(check bool) "far below the unlevelled worst case" true
    (max_wear < writes / 2);
  Alcotest.(check bool) "within 8x of the ideal bound" true (max_wear <= 8 * ideal);
  Alcotest.(check int) "writes counted" writes (Wear_leveling.stats wl).Wear_leveling.writes

let test_wl_wear_conservation () =
  let wl = Wear_leveling.create ~lines:8 ~gap_interval:2 in
  let g = Prng.create ~seed:77 in
  for _ = 1 to 5000 do
    Wear_leveling.write wl (Prng.int g ~bound:8)
  done;
  let total_wear = Array.fold_left ( + ) 0 (Wear_leveling.wear wl) in
  let writes = (Wear_leveling.stats wl).Wear_leveling.writes in
  (* every logical write plus every gap-copy lands on some physical line *)
  Alcotest.(check bool) "wear accounts for writes and copies" true
    (total_wear >= writes && total_wear <= writes + Wear_leveling.gap_movements wl)

let test_wl_invalid () =
  let wl = Wear_leveling.create ~lines:4 ~gap_interval:1 in
  Alcotest.(check bool) "range checked" true
    (try
       ignore (Wear_leveling.physical_of_logical wl 4);
       false
     with Invalid_argument _ -> true)

let test_wl_quarantine_routes_away () =
  let lines = 8 in
  let wl = Wear_leveling.create ~lines ~gap_interval:2 in
  let phys = Wear_leveling.physical_of_logical wl 3 in
  Wear_leveling.quarantine wl phys;
  Alcotest.(check bool) "marked" true (Wear_leveling.is_quarantined wl phys);
  Alcotest.(check int) "counted once" 1 (Wear_leveling.stats wl).Wear_leveling.quarantined;
  Wear_leveling.quarantine wl phys;
  Alcotest.(check int) "idempotent" 1 (Wear_leveling.stats wl).Wear_leveling.quarantined;
  let wear_before = (Wear_leveling.wear wl).(phys) in
  for i = 0 to 999 do
    Wear_leveling.write wl (i mod lines);
    for logical = 0 to lines - 1 do
      if Wear_leveling.physical_of_logical wl logical = phys then
        Alcotest.failf "write %d: logical %d routed to quarantined line %d" i logical phys
    done
  done;
  Alcotest.(check int) "quarantined line takes no further wear" wear_before
    (Wear_leveling.wear wl).(phys);
  Alcotest.(check int) "stats expose the dead line" 1 (Wear_leveling.stats wl).Wear_leveling.quarantined

let test_wl_quarantine_keeps_one_line () =
  let wl = Wear_leveling.create ~lines:2 ~gap_interval:1 in
  Wear_leveling.quarantine wl 0;
  Wear_leveling.quarantine wl 1;
  (* two of three physical lines are dead; killing the last would leave
     the two logical lines nowhere to live *)
  Alcotest.(check bool) "refuses to kill the last healthy line" true
    (try
       Wear_leveling.quarantine wl 2;
       false
     with Invalid_argument _ -> true);
  let a = Wear_leveling.physical_of_logical wl 0 in
  Alcotest.(check int) "survivor takes everything" a (Wear_leveling.physical_of_logical wl 1)

let qcheck_wl_bijection =
  QCheck.Test.make ~name:"start-gap mapping stays a bijection under random traffic" ~count:50
    QCheck.small_int (fun seed ->
      let g = Prng.create ~seed in
      let lines = 2 + Prng.int g ~bound:30 in
      let wl = Wear_leveling.create ~lines ~gap_interval:(1 + Prng.int g ~bound:5) in
      let ok = ref true in
      for _ = 1 to 500 do
        Wear_leveling.write wl (Prng.int g ~bound:lines);
        let seen = Hashtbl.create 32 in
        for logical = 0 to lines - 1 do
          let phys = Wear_leveling.physical_of_logical wl logical in
          if phys < 0 || phys > lines || Hashtbl.mem seen phys then ok := false;
          Hashtbl.add seen phys ()
        done
      done;
      !ok)

let wear_leveling_suite =
  ( "pcm.wear_leveling",
    [
      Alcotest.test_case "bijective mapping" `Quick test_wl_mapping_bijective;
      Alcotest.test_case "rotation progress" `Quick test_wl_rotation_progress;
      Alcotest.test_case "levels skewed traffic" `Quick test_wl_levels_skewed_traffic;
      Alcotest.test_case "wear conservation" `Quick test_wl_wear_conservation;
      Alcotest.test_case "range checks" `Quick test_wl_invalid;
      Alcotest.test_case "quarantine routes writes away" `Quick test_wl_quarantine_routes_away;
      Alcotest.test_case "quarantine keeps one line" `Quick test_wl_quarantine_keeps_one_line;
      QCheck_alcotest.to_alcotest qcheck_wl_bijection;
    ] )

let suites = suites @ [ wear_leveling_suite ]
