(** Shared system bus connecting the host, the CIM accelerator's DMA
    and main memory (Fig. 2(a)).

    The model charges an arbitration cost plus a bandwidth term per
    transfer and keeps per-master traffic statistics. *)

type config = {
  name : string;
  bytes_per_ps : float;
  arbitration_ps : Time_base.ps;
}

val default_config : config
(** 64-bit bus at 600 MHz (4.8 GB/s), 10 ns arbitration. *)

type t

val create : ?config:config -> unit -> t
val config : t -> config

val transfer : t -> master:string -> bytes:int -> Time_base.ps
(** Latency of moving [bytes] across the bus on behalf of [master]:
    the arbitration cost plus [bytes / bytes_per_ps], rounded to the
    nearest picosecond. The bus keeps the last size it priced and its
    latency, and reuses them while the size repeats, as every cache
    line transfer does; the latency depends on the size alone, so the
    memo is exact, and the counters move on every call as without it.
    Raises [Invalid_argument] on a negative size. *)

val traffic : t -> (string * int) list
(** Bytes moved per master, sorted by master name. *)

val total_bytes : t -> int
val transfers : t -> int
