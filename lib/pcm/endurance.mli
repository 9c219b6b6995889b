(** System lifetime model (paper Eq. 1, Fig. 5).

    [SystemLifetime = CellEndurance * S / B] where [S] is the crossbar
    capacity in bytes and [B] the write traffic in bytes per second,
    assuming writes are spread uniformly over the array (the paper's
    stated assumption). *)

val lifetime_years :
  cell_endurance:float -> crossbar_bytes:int -> write_bytes_per_second:float -> float
(** Eq. 1 in years of 365.25 days. Raises [Invalid_argument] on
    non-positive traffic, capacity or endurance. *)

val write_traffic_bytes_per_second : bytes_written:int -> elapsed_seconds:float -> float
(** [B] from a measured execution. Raises [Invalid_argument] when
    [elapsed_seconds <= 0]. *)

(** Running write-traffic accumulator for one crossbar (or one pool
    device): the bytes written and the share of the Eq. 1 write budget
    they spent, without the caller keeping its own counters. The
    serving layer's devices report their wear through it. *)
module Tracker : sig
  type t

  val create : cell_endurance:float -> crossbar_bytes:int -> t
  (** Raises [Invalid_argument] on a non-positive endurance or
      capacity. *)

  val record : t -> bytes:int -> unit
  (** Account [bytes] of matrix data written to the array. Raises
      [Invalid_argument] on a negative count. *)

  val bytes_written : t -> int

  val budget_consumed : t -> float
  (** Fraction of the total write budget
      [cell_endurance * crossbar_bytes] already spent; 0 when nothing
      was written, 1.0 at end of life under the uniform-wear
      assumption. *)
end
