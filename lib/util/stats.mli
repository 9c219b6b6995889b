(** Small statistics helpers used by the experiment reports. *)

val mean : float list -> float
(** Arithmetic mean. Raises [Invalid_argument] on the empty list. *)

val geomean : float list -> float
(** Geometric mean. All inputs must be strictly positive; raises
    [Invalid_argument] otherwise. The paper reports geomean energy
    improvements (Fig. 6). *)

val stddev : float list -> float
(** Population standard deviation. *)

val minimum : float list -> float
val maximum : float list -> float

val percentile : float list -> p:float -> float
(** [percentile xs ~p] with [p] in [\[0,100\]], linear interpolation on
    the sorted sample. *)

val sorted : float list -> float array
(** The sample in ascending order: sort once, then read several ranks
    with {!percentile_sorted}. *)

val percentile_sorted : float array -> p:float -> float
(** {!percentile} of a sample already in ascending order ({!sorted}),
    bit for bit. *)
