module Prng = Tdo_util.Prng
module Quant = Tdo_linalg.Quant

type config = {
  rows : int;
  cols : int;
  cell : Cell.config;
  adc : Adc.config;
  noise_sigma : float option;
  size_bytes : int;
}

let default_config =
  {
    rows = 256;
    cols = 256;
    cell = Cell.default_config;
    adc = Adc.default_config;
    noise_sigma = None;
    size_bytes = 512 * 1024;
  }

type counters = {
  cell_writes : int;
  logical_writes : int;
  write_bytes : int;
  gemv_ops : int;
  macs : int;
  input_buffer_bytes : int;
  output_buffer_bytes : int;
}

let zero_counters =
  {
    cell_writes = 0;
    logical_writes = 0;
    write_bytes = 0;
    gemv_ops = 0;
    macs = 0;
    input_buffer_bytes = 0;
    output_buffer_bytes = 0;
  }

type plane = Msb | Lsb

type flip = {
  fcol : int;  (** physical column the disturbance is latched on *)
  fbit : int;
  mutable remaining : int;  (** gemv passes still affected *)
}

(* Cell state lives in structure-of-arrays form — one byte of level,
   one byte of defect flag and one write counter per physical cell —
   instead of a [Cell.t] record per cell. A 2x(256x256) array held as
   records costs ~1M minor words per crossbar, paid on every fresh
   platform. The per-cell semantics mirror [Cell] exactly (see
   [program_cell]).

   The planes start empty and grow to cover the highest cell a write
   touches, so a fresh crossbar costs nothing until it is programmed
   and then only the prefix its programs reach. A cell past the grown
   prefix has never been written: it reads as level 0, with no writes
   and no defect. *)
type plane_state = {
  mutable levels : Bytes.t;  (** current conductance level per cell *)
  mutable writes : int array;  (** lifetime write pulses per cell *)
  mutable stuck : Bytes.t;  (** 1 = injected manufacture-time defect *)
}

(* The counters are mutable fields, bumped in place once per GEMV and
   per programming; the immutable [counters] view is built on demand. *)
type t = {
  config : config;
  cells : int;  (** rows * cols, the plane stride *)
  msb : plane_state;  (** plane holding the signed high nibble, offset by +8 *)
  lsb : plane_state;  (** plane holding the unsigned low nibble *)
  adc : Adc.t;
  prng : Prng.t;
  mutable active : (int * int * int * int) option;
  mutable cell_writes : int;
  mutable logical_writes : int;
  mutable write_bytes : int;
  mutable gemv_ops : int;
  mutable macs : int;
  mutable input_buffer_bytes : int;
  mutable output_buffer_bytes : int;
  mutable flips : flip list;  (** armed transient column disturbances *)
  mutable drift : int;  (** additive conductance-drift offset per column output *)
  mutable wear_sum : int;  (** write pulses summed over every cell *)
  mutable wear_peak : int;  (** most write pulses on any one cell *)
  mutable worn : int;  (** cells at or past the endurance budget *)
}

let empty_plane () = { levels = Bytes.empty; writes = [||]; stuck = Bytes.empty }

let create ?(config = default_config) ?(seed = 0) () =
  if config.rows <= 0 || config.cols <= 0 then
    invalid_arg "Crossbar.create: dimensions must be positive";
  if config.cell.Cell.levels <> 16 then
    invalid_arg "Crossbar.create: operand split assumes 4-bit (16-level) cells";
  let cells = config.rows * config.cols in
  {
    config;
    cells;
    msb = empty_plane ();
    lsb = empty_plane ();
    adc = Adc.create ~config:config.adc ();
    prng = Prng.create ~seed;
    active = None;
    cell_writes = 0;
    logical_writes = 0;
    write_bytes = 0;
    gemv_ops = 0;
    macs = 0;
    input_buffer_bytes = 0;
    output_buffer_bytes = 0;
    flips = [];
    drift = 0;
    wear_sum = 0;
    wear_peak = 0;
    (* every cell counts as worn from the start when the budget is empty *)
    worn = (if config.cell.Cell.endurance <= 0 then 2 * cells else 0);
  }

(* Grows both planes to cover cell [i], doubling and capped at the
   array's size; the new cells are erased. *)
let grow t i =
  let have = Bytes.length t.msb.levels in
  if i >= have then begin
    let size = min t.cells (max (i + 1) (2 * have)) in
    let extend p =
      let levels = Bytes.make size '\000' and stuck = Bytes.make size '\000' in
      let writes = Array.make size 0 in
      Bytes.blit p.levels 0 levels 0 have;
      Bytes.blit p.stuck 0 stuck 0 have;
      Array.blit p.writes 0 writes 0 have;
      p.levels <- levels;
      p.writes <- writes;
      p.stuck <- stuck
    in
    extend t.msb;
    extend t.lsb
  end

(* ---------- per-cell operations (the [Cell] semantics, on SoA) ---------- *)

let[@inline always] cell_level p i =
  if i < Bytes.length p.levels then Char.code (Bytes.unsafe_get p.levels i) else 0

let[@inline always] cell_wear p i =
  if i < Array.length p.writes then Array.unsafe_get p.writes i else 0

let[@inline always] cell_is_worn t p i = cell_wear p i >= t.config.cell.Cell.endurance

let[@inline always] cell_is_stuck t p i =
  (i < Bytes.length p.stuck && Bytes.unsafe_get p.stuck i <> '\000') || cell_is_worn t p i

let check_level t level =
  if level < 0 || level >= t.config.cell.Cell.levels then
    invalid_arg
      (Printf.sprintf "Cell.program: level %d out of [0,%d)" level t.config.cell.Cell.levels)

(* Every change to a cell's write count goes through here, keeping the
   crossbar-wide wear totals current, so the wear report reads three
   fields instead of folding over every cell. *)
let add_writes t p i n =
  let before = p.writes.(i) in
  let after = before + n in
  p.writes.(i) <- after;
  t.wear_sum <- t.wear_sum + n;
  if after > t.wear_peak then t.wear_peak <- after;
  let endurance = t.config.cell.Cell.endurance in
  if before < endurance && after >= endurance then t.worn <- t.worn + 1

(* Mirrors [Cell.program]: the write pulse is charged (and wear
   accrues) even when the cell no longer switches, and stuckness is
   judged before this pulse's wear is added. The caller has grown the
   planes over [i]. *)
let program_cell t p i ~level =
  check_level t level;
  let stuck = cell_is_stuck t p i in
  add_writes t p i 1;
  if not stuck then Bytes.set p.levels i (Char.unsafe_chr level)

let config t = t.config

let counters t =
  {
    cell_writes = t.cell_writes;
    logical_writes = t.logical_writes;
    write_bytes = t.write_bytes;
    gemv_ops = t.gemv_ops;
    macs = t.macs;
    input_buffer_bytes = t.input_buffer_bytes;
    output_buffer_bytes = t.output_buffer_bytes;
  }

let reset_counters t =
  t.cell_writes <- zero_counters.cell_writes;
  t.logical_writes <- zero_counters.logical_writes;
  t.write_bytes <- zero_counters.write_bytes;
  t.gemv_ops <- zero_counters.gemv_ops;
  t.macs <- zero_counters.macs;
  t.input_buffer_bytes <- zero_counters.input_buffer_bytes;
  t.output_buffer_bytes <- zero_counters.output_buffer_bytes

let adc t = t.adc
let active_region t = t.active

let check_region t ~row_off ~col_off ~m ~n name =
  if row_off < 0 || col_off < 0 || row_off + m > t.config.rows || col_off + n > t.config.cols
  then invalid_arg (name ^ ": region exceeds the array")

(* One logical operand: the signed high nibble [-8,7] is stored with a
   +8 offset so it maps onto the unsigned conductance levels (the
   digital logic removes the offset after sensing), the low nibble as
   is. *)
let[@inline always] program_code t idx code =
  if code < -128 || code > 127 then invalid_arg "Quant.split_nibbles: not an 8-bit code";
  program_cell t t.msb idx ~level:(Quant.high_nibble code + 8);
  program_cell t t.lsb idx ~level:(Quant.low_nibble code)

let program_flat t ?(row_off = 0) ?(col_off = 0) ~rows:m ~cols:n codes =
  if m <= 0 || n <= 0 then invalid_arg "Crossbar.program_flat: empty matrix";
  if Array.length codes < m * n then invalid_arg "Crossbar.program_flat: codes too short";
  check_region t ~row_off ~col_off ~m ~n "Crossbar.program_flat";
  let stride = t.config.cols in
  grow t (((row_off + m - 1) * stride) + col_off + n - 1);
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      program_code t (((row_off + i) * stride) + col_off + j) (Array.unsafe_get codes ((i * n) + j))
    done
  done;
  t.active <- Some (row_off, col_off, m, n);
  t.cell_writes <- t.cell_writes + (2 * m * n);
  t.logical_writes <- t.logical_writes + (m * n);
  t.write_bytes <- t.write_bytes + (m * n)

let program_codes t ?(row_off = 0) ?(col_off = 0) codes =
  let m = Array.length codes in
  if m = 0 then invalid_arg "Crossbar.program_codes: empty matrix";
  let n = Array.length codes.(0) in
  if n = 0 then invalid_arg "Crossbar.program_codes: empty row";
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Crossbar.program_codes: ragged matrix")
    codes;
  check_region t ~row_off ~col_off ~m ~n "Crossbar.program_codes";
  program_flat t ~row_off ~col_off ~rows:m ~cols:n (Array.concat (Array.to_list codes))

let require_active t =
  match t.active with
  | Some region -> region
  | None -> failwith "Crossbar: no matrix programmed"

let read_codes t =
  let row_off, col_off, m, n = require_active t in
  let stride = t.config.cols in
  Array.init m (fun i ->
      Array.init n (fun j ->
          let idx = ((row_off + i) * stride) + col_off + j in
          let hi = cell_level t.msb idx - 8 in
          let lo = cell_level t.lsb idx in
          Quant.combine_nibbles ~msb:hi ~lsb:lo))

let perturb t v =
  match t.config.noise_sigma with
  | None -> v
  | Some sigma -> v + int_of_float (Float.round (Prng.gaussian t.prng ~mu:0.0 ~sigma))

(* Injected analog disturbances on the combined column output: an armed
   transient flips one bit of one physical column for a bounded number
   of passes. *)
let rec apply_flips flips ~col v =
  match flips with
  | [] -> v
  | f :: rest ->
      let v =
        if f.fcol = col && f.remaining > 0 then begin
          f.remaining <- f.remaining - 1;
          v lxor (1 lsl f.fbit)
        end
        else v
      in
      apply_flips rest ~col v

let gemv_codes_into t input ~out =
  let row_off, col_off, m, n = require_active t in
  if Array.length input <> m then
    invalid_arg
      (Printf.sprintf "Crossbar.gemv_codes: input length %d, active rows %d"
         (Array.length input) m);
  if Array.length out <> n then
    invalid_arg
      (Printf.sprintf "Crossbar.gemv_codes_into: output length %d, active columns %d"
         (Array.length out) n);
  (* Analog currents: one Kirchhoff sum per plane per column. The model
     is functional — the integer column sums are what an ideal
     sense/convert chain recovers — with optional additive noise. The
     loop writes into the caller's buffer and keeps its accumulators in
     locals, so a streamed launch performs the whole GEMV without
     allocating. *)
  let full_scale = float_of_int (m * 127 * 15) +. 1.0 in
  let stride = t.config.cols in
  (* Unchecked reads: they stay inside the active region, and
     [program_flat] grows the planes over every cell of a region before
     it latches [active]. *)
  let hi_levels = t.msb.levels and lo_levels = t.lsb.levels in
  for j = 0 to n - 1 do
    let sum_hi = ref 0 and sum_lo = ref 0 in
    for i = 0 to m - 1 do
      let x = input.(i) in
      let idx = ((row_off + i) * stride) + col_off + j in
      sum_hi := !sum_hi + (x * (Char.code (Bytes.unsafe_get hi_levels idx) - 8));
      sum_lo := !sum_lo + (x * Char.code (Bytes.unsafe_get lo_levels idx))
    done;
    (* Two conversions per column: one per physical plane. The ADC
       model is charged for the events; the code path keeps the
       integer value (ideal transfer function). *)
    let hi = perturb t !sum_hi in
    let lo = perturb t !sum_lo in
    ignore (Adc.convert t.adc ~full_scale (float_of_int hi));
    ignore (Adc.convert t.adc ~full_scale (float_of_int lo));
    (* Conductance drift shifts every column; see [apply_flips] for the
       transient disturbances. *)
    let v = (16 * hi) + lo + t.drift in
    out.(j) <- apply_flips t.flips ~col:(col_off + j) v
  done;
  t.gemv_ops <- t.gemv_ops + 1;
  t.macs <- t.macs + (m * n);
  t.input_buffer_bytes <- t.input_buffer_bytes + m;
  t.output_buffer_bytes <- t.output_buffer_bytes + (4 * n)

let gemv_codes t input =
  let _, _, _, n = require_active t in
  let out = Array.make n 0 in
  gemv_codes_into t input ~out;
  out

(* ---------- fault-injection hooks ---------- *)

let cell_of t ~plane ~row ~col =
  if row < 0 || col < 0 || row >= t.config.rows || col >= t.config.cols then
    invalid_arg
      (Printf.sprintf "Crossbar: cell (%d,%d) outside the %dx%d array" row col t.config.rows
         t.config.cols);
  let idx = (row * t.config.cols) + col in
  match plane with Msb -> (t.msb, idx) | Lsb -> (t.lsb, idx)

let inject_stuck_at t ~plane ~row ~col ~level =
  let p, idx = cell_of t ~plane ~row ~col in
  check_level t level;
  grow t idx;
  Bytes.set p.levels idx (Char.chr level);
  Bytes.set p.stuck idx '\001'

let inject_wear_out t ~plane ~row ~col ~level =
  let p, idx = cell_of t ~plane ~row ~col in
  grow t idx;
  program_cell t p idx ~level;
  add_writes t p idx (max 0 (t.config.cell.Cell.endurance - p.writes.(idx)))

let arm_column_flip t ~col ~bit ~ops =
  if col < 0 || col >= t.config.cols then
    invalid_arg (Printf.sprintf "Crossbar.arm_column_flip: column %d out of %d" col t.config.cols);
  if bit < 0 || bit > 40 then invalid_arg "Crossbar.arm_column_flip: bit out of range";
  if ops <= 0 then invalid_arg "Crossbar.arm_column_flip: ops must be positive";
  t.flips <- { fcol = col; fbit = bit; remaining = ops } :: t.flips

let set_drift t ~offset = t.drift <- offset
let drift t = t.drift
let flips_remaining t = List.fold_left (fun acc f -> acc + f.remaining) 0 t.flips

let wear_total t = t.wear_sum
let wear_max t = t.wear_peak
let worn_out_fraction t = float_of_int t.worn /. float_of_int (2 * t.cells)

let stuck_fraction t =
  let stuck = ref 0 in
  for i = 0 to t.cells - 1 do
    if cell_is_stuck t t.msb i then incr stuck;
    if cell_is_stuck t t.lsb i then incr stuck
  done;
  float_of_int !stuck /. float_of_int (2 * t.cells)
