module Platform = Tdo_runtime.Platform
module Crossbar = Tdo_pcm.Crossbar

type breakdown = {
  host_j : float;
  crossbar_compute_j : float;
  crossbar_write_j : float;
  mixed_signal_j : float;
  buffers_j : float;
  digital_j : float;
  dma_engine_j : float;
}

let accelerator_j b =
  b.crossbar_compute_j +. b.crossbar_write_j +. b.mixed_signal_j +. b.buffers_j +. b.digital_j
  +. b.dma_engine_j

let total_j b = b.host_j +. accelerator_j b

let collect ?(table = Table1.ibm_pcm_a7) (platform : Platform.t) ~host_instructions =
  let engine = Tdo_cimacc.Accel.engine platform.Platform.accel in
  let xc = Tdo_cimacc.Micro_engine.total_crossbar_counters engine in
  let conversions = Tdo_cimacc.Micro_engine.total_adc_conversions engine in
  let digital = Tdo_cimacc.Digital_logic.counters (Tdo_cimacc.Micro_engine.digital engine) in
  let f = float_of_int in
  (* a full-width GEMV performs 2 conversions per column (MSB and LSB
     planes); partial-width operations pay per conversion *)
  let mixed_signal_per_conversion =
    table.Table1.mixed_signal_j_per_full_gemv /. (2.0 *. f table.Table1.reference_cols)
  in
  (* input-buffer bytes equal the summed active-row counts, so they
     measure how much of the array's depth each GEMV drove *)
  let dma_engine_j =
    table.Table1.dma_engine_j_per_full_gemv
    *. (f xc.Crossbar.input_buffer_bytes /. f table.Table1.reference_rows)
  in
  {
    host_j = f host_instructions *. table.Table1.host_j_per_instruction;
    crossbar_compute_j = f xc.Crossbar.macs *. table.Table1.crossbar_compute_j_per_mac;
    crossbar_write_j = f xc.Crossbar.write_bytes *. table.Table1.crossbar_write_j_per_byte;
    mixed_signal_j = f conversions *. mixed_signal_per_conversion;
    buffers_j =
      f (xc.Crossbar.input_buffer_bytes + xc.Crossbar.output_buffer_bytes)
      *. table.Table1.buffer_j_per_byte;
    digital_j =
      (f digital.Tdo_cimacc.Digital_logic.weighted_sums *. table.Table1.weighted_sum_j_per_gemv)
      +. (f digital.Tdo_cimacc.Digital_logic.alu_ops *. table.Table1.alu_j_per_op);
    dma_engine_j;
  }

let edp ~energy_j ~time_s = energy_j *. time_s
