(** Integer box domains — the restricted integer-set library of this
    flow (the role isl plays under Polly).

    A domain is a finite union of axis-aligned boxes with inclusive
    bounds. Exact for the rectangular iteration spaces and affine
    accesses of the PolyBench kernels; used by {!Deps} to prove two
    regions touch disjoint parts of an array. *)

type box
(** Non-empty axis-aligned box; all boxes of a domain share one rank. *)

val box : (int * int) list -> box option
(** [box \[(lo0, hi0); (lo1, hi1); ...\]] with inclusive bounds; [None]
    when some [lo > hi] (empty). Raises [Invalid_argument] on rank 0. *)

val box_exn : (int * int) list -> box
(** Like {!box} but raises [Invalid_argument] when empty. *)

val box_rank : box -> int
val box_bounds : box -> (int * int) list

type t
(** A union of same-rank boxes (possibly empty). *)

val of_box : box -> t
val of_boxes : rank:int -> box list -> t
val is_empty : t -> bool

val union : t -> t -> t
(** Raises [Invalid_argument] on rank mismatch. *)

val inter_box : box -> box -> box option
val inter : t -> t -> t
val disjoint : t -> t -> bool

val contains : t -> int list -> bool
(** Membership of a point. Raises [Invalid_argument] on rank
    mismatch. *)

val cardinal : t -> int
(** Number of integer points (inclusion-exclusion over at most a
    handful of boxes; intended for the small unions this flow
    produces). *)
