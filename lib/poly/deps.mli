(** Dependence summaries at array granularity.

    This is precisely the independence test of the paper's kernel
    fusion (Section III-B): two kernels X and Y (Y after X) can be
    fused when Y neither reads from nor writes to any output of X, and
    Y does not write to any input of X. Array-name granularity is exact
    for whole-kernel regions that write disjoint output arrays. *)

module Strings : Set.S with type elt = string

val ir_arrays : Tdo_ir.Ir.stmt -> Strings.t * Strings.t
(** [(reads, writes)] of one IR statement, loops and runtime calls
    included (the transfer summary used for [Code] subtrees). *)

val arrays_written : Schedule_tree.t -> Strings.t
val arrays_read : Schedule_tree.t -> Strings.t
(** Reads include the old value of [+=]/[-=]/[*=] targets. [Code]
    subtrees contribute the arrays referenced by their runtime calls. *)

val independent : Schedule_tree.t -> Schedule_tree.t -> bool
(** [independent x y] with [y] textually after [x]. Array-name overlap
    is refined with access regions ({!Access.region} over the enclosing
    bands): kernels that touch provably disjoint slices of a shared
    array remain independent. Unknown regions (non-constant bounds,
    [Code] subtrees) fall back to the conservative name-level answer. *)
