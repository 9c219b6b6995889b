(** A memristor crossbar computing analog matrix-vector products
    (paper Section II-B, Fig. 2(c)).

    The logical array stores [rows x cols] signed 8-bit operands. Each
    operand is realised by {e two} 4-bit PCM cells in adjacent physical
    planes — one for the 4 MSBs, one for the 4 LSBs — exactly the
    "2x(256x256 @4-bit)" organisation of Table I. A matrix is written as
    conductances; a GEMV drives the input vector as row voltages and
    senses per-column currents, which the shared ADCs digitise and the
    digital logic combines with a weighted MSB/LSB sum.

    The functional result is the exact integer dot product (the model is
    functional like CIM-SIM, with optional additive analog noise); the
    counters feed the Table-I energy model. *)

(** The array's geometry, cells and noise. The shared ADCs have no
    setting: they count their events and pass each column's exact sum
    on (see {!Adc}). *)
type config = {
  rows : int;
  cols : int;
  cell : Cell.config;
  noise_sigma : float option;
      (** standard deviation of additive per-column analog noise, in
          LSB units of the integer result; [None] = ideal *)
  size_bytes : int;
      (** capacity used in the lifetime equation (Eq. 1); the paper
          uses 512 KB *)
}

val default_config : config
(** 256x256 logical 8-bit operands, IBM 4-bit cells, 512 KB. *)

type t

val create : ?config:config -> ?seed:int -> unit -> t
(** A fresh, never-written array. The per-cell state (levels, wear
    counters, defect flags) is allocated as writes reach it: every
    write path grows it to cover the highest cell written, so a fresh
    crossbar costs a few words and a programmed one the cells up to the
    last one its programs touched.

    A cell that was never written reads as level 0, has no writes and
    carries no defect. It counts as worn out, and so as stuck, only
    when the endurance budget is 0 or less. *)

val config : t -> config

val program_codes : t -> ?row_off:int -> ?col_off:int -> int array array -> unit
(** Write a (rectangular, non-empty) matrix of signed 8-bit codes at the
    given offset. Every element programs two physical cells (one write
    pulse each, counted even on worn-out cells). Also latches the
    written region as the active compute region — the row/column enable
    masks of the digital interface. Raises [Invalid_argument] if the
    region exceeds the array or a code is outside [-128, 127]. Every
    code is checked before any cell is written, so a raise leaves the
    levels, wear, counters and active region as they were. *)

val program_flat :
  t -> ?row_off:int -> ?col_off:int -> rows:int -> cols:int -> int array -> unit
(** {!program_codes} from a flat row-major matrix: code [(i, j)] is
    [codes.(i * cols + j)]; [codes] may be longer than [rows * cols]
    (the engine reuses one buffer across shapes). Raises
    [Invalid_argument] like {!program_codes}, or when [codes] is too
    short. *)

val active_region : t -> (int * int * int * int) option
(** [(row_off, col_off, rows, cols)] of the last programmed region. *)

val gemv_codes : t -> int array -> int array
(** Analog GEMV over the active region: input length must equal the
    active row count; the result has one (exact, full-precision) integer
    per active column. Raises [Failure] if nothing was programmed. One
    call of {!gemv_block} with one vector. *)

val gemv_block : t -> int array -> vectors:int -> out:int array -> unit
(** [gemv_block t codes ~vectors ~out] runs [vectors] GEMVs over the
    active region ([m] rows, [n] columns), one pass per vector: pass
    [v] reads its input from [codes.(v * m)] to [codes.(v * m + m - 1)]
    and writes its column results to [out.(v * n)] to
    [out.(v * n + n - 1)]. Both arrays may be longer (the engine grows
    its buffers to the largest block seen). The results, the noise
    draws, the armed flips consumed, drift and every counter are those
    of [vectors] {!gemv_codes} calls in order.

    The array stores each operand's two cell levels in one byte [u],
    column-major, and stuck or worn cells contribute the levels they
    hold. On an ideal crossbar a column's value is
    [sum x * (u - 128)], formed as [sum x * u - 128 * sum x]: one
    multiply per cell, since [u = 16 * msb + lsb] and the MSB plane is
    offset by 8. With noise each plane sum is formed and perturbed
    before the two are combined, the MSB plane's first, in vector then
    column order, which is the order of the crossbar's noise stream.
    Each pass counts two ADC events per active column (see
    {!Adc.count}). Raises [Failure] if nothing was programmed and
    [Invalid_argument] when either array is too short. *)

val read_codes : t -> int array array
(** Read back the active region (digital read path; reconstructs codes
    from the stored levels of worn and healthy cells alike). *)

type counters = {
  cell_writes : int;  (** physical write pulses (2 per logical write) *)
  logical_writes : int;  (** 8-bit operands programmed *)
  write_bytes : int;  (** bytes of matrix data written to the array *)
  gemv_ops : int;
  macs : int;  (** multiply-accumulates performed in the analog domain *)
  input_buffer_bytes : int;
  output_buffer_bytes : int;
}

val counters : t -> counters

val cell_writes : t -> int
val logical_writes : t -> int
val write_bytes : t -> int

val macs : t -> int
(** These four are fields of {!counters}, read without building the
    record. *)

val adc : t -> Adc.t
(** The shared ADC bank (for conversion counts). *)

val wear_total : t -> int
(** Total physical write pulses over the array's lifetime. *)

val wear_max : t -> int
(** Largest per-cell write count. *)

val worn_out_fraction : t -> float
(** Fraction of physical cells past their endurance budget. *)

val stuck_fraction : t -> float
(** Fraction of physical cells that no longer switch (worn out or
    carrying an injected stuck-at defect). *)

(** {2 Fault-injection hooks}

    Deterministic handles for reliability campaigns ({!Tdo_reliab}):
    each hook plants one concrete device-level fault. The functional
    GEMV model then propagates the fault into column sums exactly, so
    campaigns are replayable bit-for-bit from a seed. *)

type plane = Msb | Lsb  (** which physical 4-bit plane of an operand *)

val inject_stuck_at : t -> plane:plane -> row:int -> col:int -> level:int -> unit
(** Plant a manufacture-time defect: the cell reads back [level]
    forever and ignores all future programming. Raises
    [Invalid_argument] outside the array or level range. *)

val inject_wear_out : t -> plane:plane -> row:int -> col:int -> level:int -> unit
(** Wear-induced variant: program the cell to [level], then exhaust its
    endurance budget so it is stuck there. *)

val arm_column_flip : t -> col:int -> bit:int -> ops:int -> unit
(** Arm a transient disturbance: the next [ops] GEMV passes that sense
    physical column [col] have bit [bit] of the combined column output
    flipped. Models read-disturb / sense-amp glitches. *)

val set_drift : t -> offset:int -> unit
(** Additive conductance-drift offset applied to every column output of
    every subsequent GEMV (in LSB units of the integer result). *)

val drift : t -> int

val flips_remaining : t -> int
(** Total armed-but-unconsumed column-flip events. *)
