(** Deterministic pseudo-random number generator (splitmix64).

    All stochastic parts of the simulator draw from an explicit [t] so
    that every experiment is reproducible bit-for-bit from its seed. *)

type t

val create : seed:int -> t
(** [create ~seed] returns a fresh generator. Two generators created
    with the same seed produce identical streams. *)

val int : t -> bound:int -> int
(** [int g ~bound] draws uniformly in [\[0, bound)]. Requires
    [bound > 0]. *)

val float : t -> bound:float -> float
(** [float g ~bound] draws uniformly in [\[0, bound)]. *)

val float_range : t -> lo:float -> hi:float -> float
(** Uniform draw in [\[lo, hi)]. Requires [lo <= hi]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Box-Muller normal draw. *)

val bool : t -> bool
