(** Dense row-major matrices of [float].

    Used by the reference BLAS implementations, by the PCM crossbar
    model (as the functional view of the programmed conductances), and
    by the tests to validate offloaded results against host results. *)

module Prng = Tdo_util.Prng

type t

val create : rows:int -> cols:int -> t
(** Zero-filled matrix. Dimensions must be strictly positive. *)

val init : rows:int -> cols:int -> f:(int -> int -> float) -> t
(** [init ~rows ~cols ~f] where [f i j] gives the element at row [i],
    column [j]. *)

val of_data : rows:int -> cols:int -> float array -> t
(** [of_data ~rows ~cols data] wraps the row-major [data] (element
    [(i, j)] at index [i * cols + j]) without copying it. Raises
    [Invalid_argument] when the length is not [rows * cols]. *)

val data : t -> float array
(** The row-major backing array, shared with the matrix. Element loops
    index it directly: a [float]-returning closure such as {!init}'s
    [f] boxes every element. *)

val of_arrays : float array array -> t
(** Copies a rectangular array-of-rows. Raises [Invalid_argument] on a
    ragged input or an empty one. *)

val to_arrays : t -> float array array

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
(** [get m i j]; bounds-checked. *)

val set : t -> int -> int -> float -> unit

val copy : t -> t
val transpose : t -> t

val col : t -> int -> float array
(** Copy of column [j]. *)

val map : f:(float -> float) -> t -> t
val iteri : f:(int -> int -> float -> unit) -> t -> unit

val max_abs : t -> float
(** Largest absolute element, 0 for the all-zero matrix. *)

val max_abs_diff : t -> t -> float
(** Largest elementwise absolute difference. Raises [Invalid_argument]
    on shape mismatch. *)

val equal_eps : eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit

val random : Prng.t -> rows:int -> cols:int -> lo:float -> hi:float -> t
