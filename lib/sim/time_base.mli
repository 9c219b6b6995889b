(** Simulated time.

    Like gem5, the simulator keeps one integer tick clock; one tick is
    one picosecond. Components convert between their clock domain and
    ticks with these helpers. *)

type ps = int
(** Picoseconds. *)

val ps_per_ns : int
val ps_per_us : int

val period_ps : freq_hz:float -> ps
(** Clock period (rounded to the nearest picosecond). Raises
    [Invalid_argument] on a non-positive frequency. *)

val seconds_of_ps : ps -> float
