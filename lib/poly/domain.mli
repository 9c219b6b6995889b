(** Integer boxes — the restricted integer-set library of this flow
    (the role isl plays under Polly).

    A box is axis-aligned with inclusive bounds. Exact for the
    rectangular iteration spaces and affine accesses of the PolyBench
    kernels; {!Tdo_analysis.Regions} uses boxes to prove that two
    accesses touch disjoint parts of an array. *)

type box
(** Non-empty axis-aligned box. *)

val box : (int * int) list -> box option
(** [box \[(lo0, hi0); (lo1, hi1); ...\]] with inclusive bounds; [None]
    when some [lo > hi] (empty). Raises [Invalid_argument] on rank 0. *)

val box_exn : (int * int) list -> box
(** Like {!box} but raises [Invalid_argument] when empty. *)

val box_rank : box -> int
val box_bounds : box -> (int * int) list

val inter_box : box -> box -> box option
(** [None] when the boxes share no point. Raises [Invalid_argument] on
    rank mismatch. *)
