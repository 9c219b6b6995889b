(** Schedule-tree transformations used to canonicalise kernels before
    pattern matching.

    Real Loop Tactics matches modulo loop permutation: a GEMM written
    with the reduction outermost is still a GEMM. This module
    enumerates the legal loop-interchange variants of a perfect,
    rectangular band nest so the detectors can try each one. *)

module St = Tdo_poly.Schedule_tree

val interchange_candidates : St.t -> St.t list
(** The tree itself first, followed by every distinct legal permutation
    of its perfect band nest (when the tree is one):

    - all bands must have constant (rectangular) bounds;
    - the single statement under the nest must either accumulate
      ([+=]/[-=], floating-point reassociation accepted as in the
      paper's setting), or write a distinct cell per instance (every
      band iterator appears as a plain unit-coefficient subscript of
      the write).

    Non-conforming trees yield just [\[tree\]]. Nests deeper than 4 are
    not permuted (cost guard). *)
