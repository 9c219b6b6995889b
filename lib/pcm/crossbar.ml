module Prng = Tdo_util.Prng

type config = {
  rows : int;
  cols : int;
  cell : Cell.config;
  noise_sigma : float option;
  size_bytes : int;
}

let default_config =
  {
    rows = 256;
    cols = 256;
    cell = Cell.default_config;
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

type plane = Msb | Lsb

type flip = {
  fcol : int;  (** physical column the disturbance is latched on *)
  fbit : int;
  mutable remaining : int;  (** gemv passes still affected *)
}

(* Cell state lives in structure-of-arrays form, not a record per
   cell: a 2x(256x256) array held as records costs ~1M minor words per
   crossbar, paid on every fresh platform. Each cell follows the
   Fig. 1 device rules of {!Cell} (see [pulse]).

   Every array is indexed column-major, cell (r, c) at [c * rows + r],
   so a column of the array is one contiguous run and a GEMV reads it
   in order. One byte per operand holds the levels of both its cells,
   the MSB plane's in the high nibble and the LSB plane's in the low
   one: [16 * msb + lsb], which is the operand's 8-bit code plus 128.
   Each plane keeps its own write counters and defect flags.

   The arrays start empty and grow to cover the highest cell a write
   touches, so a fresh crossbar costs nothing until it is programmed
   and then only the prefix its programs reach. A cell past the grown
   prefix has never been written: it reads as level 0, with no writes
   and no defect. *)
type plane_state = {
  mutable writes : int array;  (** lifetime write pulses per cell *)
  mutable stuck : Bytes.t;  (** 1 = injected manufacture-time defect *)
}

(* The counters are mutable fields, bumped in place once per GEMV and
   per programming; the immutable [counters] view is built on demand. *)
type t = {
  config : config;
  cells : int;  (** rows * cols *)
  mutable levels : Bytes.t;  (** both cells' levels per operand, [16 * msb + lsb] *)
  msb : plane_state;  (** plane holding the signed high nibble, offset by +8 *)
  lsb : plane_state;  (** plane holding the unsigned low nibble *)
  adc : Adc.t;
  prng : Prng.t;
  mutable active_rows : int;
      (** the last programmed region's rows, 0 before any; programming
          writes four ints, no option *)
  mutable active_cols : int;
  mutable active_row_off : int;
  mutable active_col_off : int;
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

let empty_plane () = { writes = [||]; stuck = Bytes.empty }

let create ?(config = default_config) ?(seed = 0) () =
  if config.rows <= 0 || config.cols <= 0 then
    invalid_arg "Crossbar.create: dimensions must be positive";
  if config.cell.Cell.levels <> 16 then
    invalid_arg "Crossbar.create: operand split assumes 4-bit (16-level) cells";
  let cells = config.rows * config.cols in
  {
    config;
    cells;
    levels = Bytes.empty;
    msb = empty_plane ();
    lsb = empty_plane ();
    adc = Adc.create ();
    prng = Prng.create ~seed;
    active_rows = 0;
    active_cols = 0;
    active_row_off = 0;
    active_col_off = 0;
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

(* Grows the cell arrays to cover cell [i], doubling and capped at the
   array's size; the new cells are erased. *)
let grow t i =
  let have = Bytes.length t.levels in
  if i >= have then begin
    let size = min t.cells (max (i + 1) (2 * have)) in
    let extend_bytes b =
      let b' = Bytes.make size '\000' in
      Bytes.blit b 0 b' 0 have;
      b'
    in
    let extend p =
      let writes = Array.make size 0 in
      Array.blit p.writes 0 writes 0 have;
      p.writes <- writes;
      p.stuck <- extend_bytes p.stuck
    in
    t.levels <- extend_bytes t.levels;
    extend t.msb;
    extend t.lsb
  end

(* ---------- per-cell operations (the Fig. 1 device rules, on SoA) ---------- *)

let[@inline always] cell_wear p i =
  if i < Array.length p.writes then Array.unsafe_get p.writes i else 0

let[@inline always] cell_is_worn t p i = cell_wear p i >= t.config.cell.Cell.endurance

let[@inline always] cell_is_stuck t p i =
  (i < Bytes.length p.stuck && Bytes.unsafe_get p.stuck i <> '\000') || cell_is_worn t p i

let check_level t level =
  if level < 0 || level >= t.config.cell.Cell.levels then
    invalid_arg
      (Printf.sprintf "Crossbar: level %d out of [0,%d)" level t.config.cell.Cell.levels)

let plane_state t = function Msb -> t.msb | Lsb -> t.lsb

(* Sets [plane]'s level of cell [i], leaving the other plane's nibble
   as it is. Unchecked: the caller has checked [level] and grown the
   arrays over [i]. *)
let set_level t plane i level =
  let u = Char.code (Bytes.unsafe_get t.levels i) in
  let u =
    match plane with
    | Msb -> (level lsl 4) lor (u land 15)
    | Lsb -> (u land 0xf0) lor level
  in
  Bytes.unsafe_set t.levels i (Char.unsafe_chr u)

(* The crossbar keeps its wear totals current wherever a write count
   changes (here and in [pulse]), so the wear report reads three
   fields instead of folding over every cell. *)
let add_writes t p i n =
  let before = p.writes.(i) in
  let after = before + n in
  p.writes.(i) <- after;
  t.wear_sum <- t.wear_sum + n;
  if after > t.wear_peak then t.wear_peak <- after;
  let endurance = t.config.cell.Cell.endurance in
  if before < endurance && after >= endurance then t.worn <- t.worn + 1

(* One write pulse on cell [i]: the pulse is charged (and wear
   accrues) even when the cell no longer switches, and stuckness (the
   defect flag, or a write count at the budget) is judged before this
   pulse's wear is added. Returns whether the cell takes the new level;
   the caller stores it. Unchecked: the caller has grown the arrays
   over [i]. The peak and worn counts are kept here; the caller adds
   the pulse to [wear_sum], which [program_flat] does once for its
   whole region. *)
let[@inline always] pulse t p i =
  let endurance = t.config.cell.Cell.endurance in
  let before = Array.unsafe_get p.writes i in
  let after = before + 1 in
  Array.unsafe_set p.writes i after;
  if after > t.wear_peak then t.wear_peak <- after;
  if after = endurance then t.worn <- t.worn + 1;
  before < endurance && Bytes.unsafe_get p.stuck i = '\000'

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

let cell_writes (t : t) = t.cell_writes
let logical_writes (t : t) = t.logical_writes
let write_bytes (t : t) = t.write_bytes
let macs (t : t) = t.macs
let adc t = t.adc
let active_region t =
  if t.active_rows = 0 then None
  else Some (t.active_row_off, t.active_col_off, t.active_rows, t.active_cols)

let check_region t ~row_off ~col_off ~m ~n name =
  if row_off < 0 || col_off < 0 || row_off + m > t.config.rows || col_off + n > t.config.cols
  then invalid_arg (name ^ ": region exceeds the array")

(* One pass over the region after every code has been checked, so a
   bad code raises before any cell is written. Each operand pulses its
   two cells: the signed high nibble [-8,7] goes to the MSB plane with
   a +8 offset, so it maps onto the unsigned conductance levels (the
   digital logic removes the offset after sensing), and the low nibble
   to the LSB plane as is. Both land in one byte as the code plus 128;
   a stuck cell keeps its nibble of the old byte. *)
let program_flat t ?(row_off = 0) ?(col_off = 0) ~rows:m ~cols:n codes =
  if m <= 0 || n <= 0 then invalid_arg "Crossbar.program_flat: empty matrix";
  if Array.length codes < m * n then invalid_arg "Crossbar.program_flat: codes too short";
  check_region t ~row_off ~col_off ~m ~n "Crossbar.program_flat";
  for k = 0 to (m * n) - 1 do
    let code = Array.unsafe_get codes k in
    if code < -128 || code > 127 then invalid_arg "Quant.split_nibbles: not an 8-bit code"
  done;
  let rows = t.config.rows in
  grow t (((col_off + n - 1) * rows) + row_off + m - 1);
  let levels = t.levels in
  for j = 0 to n - 1 do
    let col = ((col_off + j) * rows) + row_off in
    for i = 0 to m - 1 do
      let idx = col + i in
      let u = Array.unsafe_get codes ((i * n) + j) + 128
      and old = Char.code (Bytes.unsafe_get levels idx) in
      let hi = if pulse t t.msb idx then u else old in
      let lo = if pulse t t.lsb idx then u else old in
      Bytes.unsafe_set levels idx (Char.unsafe_chr ((hi land 0xf0) lor (lo land 15)))
    done
  done;
  t.wear_sum <- t.wear_sum + (2 * m * n);
  t.active_row_off <- row_off;
  t.active_col_off <- col_off;
  t.active_rows <- m;
  t.active_cols <- n;
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

let require_active t = if t.active_rows = 0 then failwith "Crossbar: no matrix programmed"

let read_codes t =
  require_active t;
  let row_off = t.active_row_off and col_off = t.active_col_off in
  let m = t.active_rows and n = t.active_cols in
  let rows = t.config.rows in
  Array.init m (fun i ->
      Array.init n (fun j ->
          Char.code (Bytes.get t.levels (((col_off + j) * rows) + row_off + i)) - 128))

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

(* One cell's product: input code [codes.(x)] times level byte
   [levels.[l]]. Unchecked. *)
let[@inline always] product codes levels ~x ~l =
  Array.unsafe_get codes x * Char.code (Bytes.unsafe_get levels l)

(* A column's sum plus drift, after the armed flips of column [col]. *)
let[@inline] disturbed t ~col v = match t.flips with [] -> v | flips -> apply_flips flips ~col v

let gemv_block t codes ~vectors ~out =
  require_active t;
  let row_off = t.active_row_off and col_off = t.active_col_off in
  let m = t.active_rows and n = t.active_cols in
  if vectors < 0 || Array.length codes < vectors * m || Array.length out < vectors * n then
    invalid_arg
      (Printf.sprintf
         "Crossbar.gemv_block: %d vectors need %d codes and %d outputs, have %d and %d" vectors
         (vectors * m) (vectors * n) (Array.length codes) (Array.length out));
  (* Analog currents: one Kirchhoff sum per plane per column, over the
     column's contiguous run of levels. The model is functional — the
     integer column sums are what an ideal sense/convert chain recovers
     — and a column's result is [16 * hi + lo], where [hi] sums
     [x * ((u lsr 4) - 8)] and [lo] sums [x * (u land 15)] over its
     level bytes [u]. Since [u = 16 * (u lsr 4) + (u land 15)], that is
     [sum x * u - 128 * sum x] on an ideal crossbar: one multiply per
     cell, and one sum of the inputs per vector. With noise each plane
     sum is perturbed before the two combine, the MSB plane's first, so
     there the sums stay apart. Both loops visit vector by vector and
     column by column, the order of the noise stream and of the armed
     flips. Conductance drift shifts every column; see [apply_flips]
     for the transient disturbances. The loops write into the caller's
     buffer and keep their accumulators in locals, so a block
     allocates nothing. *)
  let rows = t.config.rows in
  (* Unchecked reads: they stay inside the active region, and
     [program_flat] grows the arrays over every cell of a region before
     it latches [active]. *)
  let levels = t.levels in
  (match t.config.noise_sigma with
  | None ->
      (* four products a step into two sums, the last [m mod 4] one by
         one: integer sums, so the grouping changes nothing *)
      let m4 = m land lnot 3 in
      for v = 0 to vectors - 1 do
        let x0 = v * m and o0 = v * n in
        let sum_x = ref 0 in
        for i = 0 to m - 1 do
          sum_x := !sum_x + Array.unsafe_get codes (x0 + i)
        done;
        let offset = 128 * !sum_x in
        for j = 0 to n - 1 do
          let base = ((col_off + j) * rows) + row_off in
          let sum0 = ref 0 and sum1 = ref 0 and i = ref 0 in
          while !i < m4 do
            let x = x0 + !i and l = base + !i in
            sum0 :=
              !sum0 + product codes levels ~x ~l + product codes levels ~x:(x + 1) ~l:(l + 1);
            sum1 :=
              !sum1
              + product codes levels ~x:(x + 2) ~l:(l + 2)
              + product codes levels ~x:(x + 3) ~l:(l + 3);
            i := !i + 4
          done;
          for i = m4 to m - 1 do
            sum0 := !sum0 + product codes levels ~x:(x0 + i) ~l:(base + i)
          done;
          Array.unsafe_set out (o0 + j)
            (disturbed t ~col:(col_off + j) (!sum0 + !sum1 - offset + t.drift))
        done
      done
  | Some _ ->
      for v = 0 to vectors - 1 do
        let x0 = v * m and o0 = v * n in
        for j = 0 to n - 1 do
          let base = ((col_off + j) * rows) + row_off in
          let sum_hi = ref 0 and sum_lo = ref 0 in
          for i = 0 to m - 1 do
            let x = Array.unsafe_get codes (x0 + i)
            and u = Char.code (Bytes.unsafe_get levels (base + i)) in
            sum_hi := !sum_hi + (x * ((u lsr 4) - 8));
            sum_lo := !sum_lo + (x * (u land 15))
          done;
          let hi = perturb t !sum_hi in
          let lo = perturb t !sum_lo in
          Array.unsafe_set out (o0 + j) (disturbed t ~col:(col_off + j) ((16 * hi) + lo + t.drift))
        done
      done);
  (* Two conversions per column and pass, one per physical plane. The
     code path keeps the integer value (ideal transfer function), so
     only the events are counted. *)
  Adc.count t.adc (2 * n * vectors);
  t.gemv_ops <- t.gemv_ops + vectors;
  t.macs <- t.macs + (m * n * vectors);
  t.input_buffer_bytes <- t.input_buffer_bytes + (m * vectors);
  t.output_buffer_bytes <- t.output_buffer_bytes + (4 * n * vectors)

let gemv_codes t input =
  require_active t;
  let m = t.active_rows and n = t.active_cols in
  if Array.length input <> m then
    invalid_arg
      (Printf.sprintf "Crossbar.gemv_codes: input length %d, active rows %d"
         (Array.length input) m);
  let out = Array.make n 0 in
  gemv_block t input ~vectors:1 ~out;
  out

(* ---------- fault-injection hooks ---------- *)

let cell_of t ~row ~col =
  if row < 0 || col < 0 || row >= t.config.rows || col >= t.config.cols then
    invalid_arg
      (Printf.sprintf "Crossbar: cell (%d,%d) outside the %dx%d array" row col t.config.rows
         t.config.cols);
  (col * t.config.rows) + row

let inject_stuck_at t ~plane ~row ~col ~level =
  let idx = cell_of t ~row ~col in
  check_level t level;
  grow t idx;
  set_level t plane idx level;
  Bytes.set (plane_state t plane).stuck idx '\001'

let inject_wear_out t ~plane ~row ~col ~level =
  let idx = cell_of t ~row ~col in
  check_level t level;
  grow t idx;
  let p = plane_state t plane in
  if pulse t p idx then set_level t plane idx level;
  t.wear_sum <- t.wear_sum + 1;
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
