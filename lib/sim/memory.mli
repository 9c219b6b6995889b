(** Physical main memory (the 2 GB LPDDR3 of Table I).

    Functionally a sparse byte-addressable array: 64 KB chunks, found
    through a two-level table and allocated when a write first touches
    them. Untouched memory reads as zeros and costs nothing. The timing
    side reports a fixed row-access latency plus a bandwidth term per
    burst, which the caches and the DMA engine incorporate into their
    own latencies. Memory counts no accesses: the caches and the DMA
    engine count their own traffic.

    Single-precision floats are stored as IEEE-754 binary32, matching
    the 4-byte operands the paper's kernels use. *)

type config = {
  size_bytes : int;
  access_latency_ps : Time_base.ps;  (** fixed cost per burst *)
  bytes_per_ps : float;  (** sustained bandwidth *)
}

val default_config : config
(** 2 GB, 50 ns access, 7.46 GB/s (LPDDR3-933 x 8 bytes). *)

type t

val create : ?config:config -> unit -> t

val config : t -> config

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit

val read_i32 : t -> int -> int32
val write_i32 : t -> int -> int32 -> unit

val read_f32 : t -> int -> float
(** Reads 4 bytes as an IEEE binary32 (little endian), widened to
    [float]. Annotated [[@inline always]]: at an inlined call site the
    in-chunk fast path allocates nothing. *)

val write_f32 : t -> int -> float -> unit
(** Rounds to binary32 before storing. Allocation-free on the in-chunk
    fast path, like {!read_f32}. *)

(** {2 Direct chunk access}

    A caller that streams f32 values through one part of memory can
    take the chunk that holds it once and read and write its bytes
    itself, as the executor's loop kernels do. *)

val chunk_size : int
(** 65,536: memory is kept in chunks of this many bytes, each starting
    at a multiple of its size. *)

val chunk_at : t -> int -> Bytes.t
(** [chunk_at t addr] is the chunk that holds [addr]: byte
    [addr mod chunk_size] of the result is byte [addr] of memory, for
    as long as [t] exists, so reading and writing the result reads and
    writes memory ({!read_f32} and {!write_f32} see the same bytes). A
    chunk nothing was written to yet is allocated here, zeroed, as the
    first write into it would allocate it. Raises [Invalid_argument]
    when [addr] is outside memory. *)

val read_bytes : t -> int -> int -> Bytes.t
val write_bytes : t -> int -> Bytes.t -> unit

(** {2 Bulk transfers}

    Each checks its whole range once, before it moves anything, and
    then works one 64 KB chunk segment at a time. The data end exactly
    as after the same transfer made one element at a time. *)

val write_f32s : t -> int -> float array -> pos:int -> len:int -> unit
(** [write_f32s t addr src ~pos ~len] stores [src.(pos) .. src.(pos + len - 1)]
    at [addr], [addr + 4], ..., each rounded to binary32 as {!write_f32}
    does. Raises [Invalid_argument] when the slice is not within [src]
    or the [4 * len] bytes are not within memory. *)

val read_f32s : t -> int -> float array -> pos:int -> len:int -> unit
(** [read_f32s t addr dst ~pos ~len] loads [len] binary32 values from
    [addr], [addr + 4], ... into [dst.(pos) ..], as {!read_f32} would. *)

val copy : t -> src:int -> dst:int -> len:int -> unit
(** Copies [len] bytes from [src] to [dst]. Raises [Invalid_argument] when either range is outside
    memory or the two overlap. *)

val burst_latency : t -> bytes:int -> Time_base.ps
(** Time for one burst of [bytes]: access latency + size / bandwidth,
    rounded to the nearest picosecond. The last size priced and its
    latency are reused while the size repeats, as every cache line
    burst does; the latency depends on the size alone, so the memo is
    exact. Raises [Invalid_argument] on a negative size. *)
