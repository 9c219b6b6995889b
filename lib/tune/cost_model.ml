module Offload = Tdo_tactics.Offload
module Json = Tdo_util.Json
module Table1 = Tdo_energy.Table1

type t = { coeffs : float array }

let feature_names =
  [|
    "const";
    "launches";
    "rows_programmed";
    "gemv_passes";
    "gemv_row_passes";
    "device_macs";
    "dma_bytes";
    "host_ops";
  |]

let features (p : Offload.plan) =
  [|
    1.0;
    float_of_int p.Offload.launches;
    float_of_int p.Offload.rows_programmed;
    float_of_int p.Offload.gemv_passes;
    float_of_int p.Offload.gemv_row_passes;
    float_of_int p.Offload.device_macs;
    float_of_int p.Offload.dma_bytes;
    float_of_int p.Offload.host_ops;
  |]

(* Table-I latencies priced in 1.2 GHz host cycles: 2.5 us per
   programmed row, 1 us for a full 256-row GEMV (so ~4.7 cycles per
   active wordline), plus guesses for launch overhead, bus traffic and
   host expression evaluation. *)
let uncalibrated =
  { coeffs = [| 0.0; 1000.0; 3000.0; 100.0; 4.7; 0.0; 2.0; 5.0 |] }

(* Per-class coefficient sets over the same feature census. The
   serving scheduler ranks a mixed fleet's free devices with these, so
   the relative shape matters more than absolute accuracy:

   - digital tiles write rows at SRAM speed (20 ns = 24 cycles instead
     of 3000) but integrate a GEMV ~4x slower through the adder tree
     (18.8 cycles per active wordline instead of 4.7);
   - the host BLAS fallback executes every would-be device MAC itself
     (~3 cycles per MAC, the scheduler's 2.5 ns interpreter rate) and
     pays neither launches, programming nor DMA. *)
let uncalibrated_digital =
  { coeffs = [| 0.0; 1000.0; 24.0; 100.0; 18.8; 0.0; 2.0; 5.0 |] }

let uncalibrated_host = { coeffs = [| 0.0; 0.0; 0.0; 0.0; 0.0; 3.0; 0.0; 5.0 |] }

let uncalibrated_for = function
  | Tdo_backend.Backend.Pcm_crossbar -> uncalibrated
  | Tdo_backend.Backend.Digital_tile -> uncalibrated_digital
  | Tdo_backend.Backend.Host_blas -> uncalibrated_host

let predict_cycles model plan =
  let x = features plan in
  let acc = ref 0.0 in
  Array.iteri (fun i c -> acc := !acc +. (c *. x.(i))) model.coeffs;
  !acc

(* The same execution with the crossbar weights already resident: every
   counter survives except the programming traffic, which graph-scope
   residency (serving layer) skips entirely on a warm device. *)
let resident_plan (p : Offload.plan) =
  { p with Offload.rows_programmed = 0; Offload.cells_programmed = 0 }

let predict_resident_cycles model plan = predict_cycles model (resident_plan plan)

let predict_amortized_cycles model ~reuse plan =
  if reuse <= 1 then predict_cycles model plan
  else
    let cold = predict_cycles model plan in
    let warm = predict_resident_cycles model plan in
    (cold +. (float_of_int (reuse - 1) *. warm)) /. float_of_int reuse

let predict_write_bytes (p : Offload.plan) = p.Offload.cells_programmed

let predict_energy_j ?(table = Table1.ibm_pcm_a7) (p : Offload.plan) =
  (float_of_int p.Offload.device_macs *. table.Table1.crossbar_compute_j_per_mac)
  +. (float_of_int p.Offload.cells_programmed *. table.Table1.crossbar_write_j_per_byte)
  +. float_of_int p.Offload.gemv_passes
     *. (table.Table1.mixed_signal_j_per_full_gemv
        +. table.Table1.weighted_sum_j_per_gemv
        +. table.Table1.dma_engine_j_per_full_gemv)
  +. (float_of_int p.Offload.dma_bytes *. table.Table1.buffer_j_per_byte)
  +. (float_of_int p.Offload.host_ops *. table.Table1.host_j_per_instruction)

type sample = { plan : Offload.plan; cycles : float }

let mean_relative_error model samples =
  let total, count =
    List.fold_left
      (fun (total, count) s ->
        if s.cycles > 0.0 then
          (total +. (Float.abs (predict_cycles model s.plan -. s.cycles) /. s.cycles),
           count + 1)
        else (total, count))
      (0.0, 0) samples
  in
  if count = 0 then 0.0 else total /. float_of_int count

(* Non-negative least squares by projected cyclic coordinate descent.
   Features are scaled to a unit maximum per column first so the
   stopping point does not depend on their wildly different ranges. *)
let calibrate samples =
  match samples with
  | [] -> (uncalibrated, 0.0)
  | _ ->
      let xs = List.map (fun s -> features s.plan) samples in
      let y = Array.of_list (List.map (fun s -> s.cycles) samples) in
      let rows = Array.of_list xs in
      let m = Array.length rows and d = Array.length feature_names in
      let scale =
        Array.init d (fun j ->
            let mx = Array.fold_left (fun acc r -> Float.max acc (Float.abs r.(j))) 0.0 rows in
            if mx > 0.0 then mx else 1.0)
      in
      let x = Array.map (fun r -> Array.mapi (fun j v -> v /. scale.(j)) r) rows in
      let w = Array.make d 0.0 in
      let residual = Array.copy y in
      (* residual = y - X w, maintained incrementally *)
      let col_sq =
        Array.init d (fun j ->
            let acc = ref 0.0 in
            for i = 0 to m - 1 do
              acc := !acc +. (x.(i).(j) *. x.(i).(j))
            done;
            !acc)
      in
      for _iter = 1 to 300 do
        for j = 0 to d - 1 do
          if col_sq.(j) > 0.0 then begin
            let dot = ref 0.0 in
            for i = 0 to m - 1 do
              dot := !dot +. (x.(i).(j) *. residual.(i))
            done;
            let updated = Float.max 0.0 (w.(j) +. (!dot /. col_sq.(j))) in
            let step = updated -. w.(j) in
            if step <> 0.0 then begin
              w.(j) <- updated;
              for i = 0 to m - 1 do
                residual.(i) <- residual.(i) -. (step *. x.(i).(j))
              done
            end
          end
        done
      done;
      let model = { coeffs = Array.mapi (fun j v -> v /. scale.(j)) w } in
      if Array.for_all (fun c -> c = 0.0) model.coeffs then
        (uncalibrated, mean_relative_error uncalibrated samples)
      else (model, mean_relative_error model samples)
