(** DMA engine of the CIM accelerator (Section II-C/D).

    Moves data between shared main memory and the accelerator's local
    buffers. All accesses are {e uncacheable} — they bypass the host
    cache hierarchy and go straight over the system bus to memory, which
    is how the paper's accelerator keeps the shared region coherent.

    One descriptor costs a fixed 100 ns setup plus the bus and DRAM
    burst latencies of its payload. However a descriptor's bytes are
    laid out in memory (a strided gather included), it is charged as
    one burst of its total size. *)

type t

val create : bus:Bus.t -> memory:Memory.t -> unit -> t

val read : t -> addr:int -> bytes:int -> Bytes.t * Time_base.ps
(** Fetch [bytes] from shared memory in one descriptor; returns the
    data and the transfer latency (setup + bus + DRAM burst). *)

val charge : t -> bytes:int -> Time_base.ps
(** The latency of one descriptor moving [bytes] in either direction
    (setup + bus + DRAM burst) without touching data: the engine
    performs the functional side itself, through {!memory}'s bulk or
    element accessors. Raises [Invalid_argument] on a negative size. *)

val memory : t -> Memory.t
(** The shared memory this engine moves data to and from — for callers
    that perform the functional side of a transfer themselves and use
    {!charge} for the timing side. *)
