(** Shared system bus connecting the host, the CIM accelerator's DMA
    and main memory (Fig. 2(a)).

    The model charges an arbitration cost plus a bandwidth term per
    transfer. It keeps no traffic counters: the DMA engine counts its
    own descriptors and bytes ({!Dma}), and the caches count their
    fills and write-backs ({!Cache.stats}). *)

type config = {
  bytes_per_ps : float;
  arbitration_ps : Time_base.ps;
}

val default_config : config
(** 64-bit bus at 600 MHz (4.8 GB/s), 10 ns arbitration. *)

type t

val create : ?config:config -> unit -> t

val transfer : t -> bytes:int -> Time_base.ps
(** Latency of moving [bytes] across the bus: the arbitration cost plus
    [bytes / bytes_per_ps], rounded to the nearest picosecond. The bus
    keeps the last size it priced and its latency, and reuses them
    while the size repeats, as every cache line transfer does; the
    latency depends on the size alone, so the memo is exact. Raises
    [Invalid_argument] on a negative size. *)
