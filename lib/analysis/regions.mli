(** The access model of the analysis layer.

    One walk enumerates every array access of a schedule tree or an IR
    statement: statement leaves, host statements (scalar initializers
    included) and runtime-call operands. Two views come out of it:

    - {b array names} ({!arrays}, {!stmt_arrays}): which arrays are
      read and written, for the offload pass's data placement, the
      dataflow solvers, the lints and translation validation;
    - {b footprints} ({!footprints}): per-array regions, for the kernel
      dependence graph ({!Depgraph}) and through it fusion legality.

    The names are exactly the keys of the footprints; only footprints
    compute regions. A region is either an axis-aligned integer box of
    cells ({!Tdo_poly.Domain}) or [Top], the sound fallback when a
    subscript or operand offset is not affine in iterators with known
    constant intervals. *)

module St = Tdo_poly.Schedule_tree
module Domain = Tdo_poly.Domain
module Ast = Tdo_lang.Ast
module Strings : Set.S with type elt = string

type region =
  | Box of Domain.box  (** the access stays inside this box of cells *)
  | Top  (** may touch any cell of the array *)

val overlap : region -> region -> bool
(** May the two regions share a cell?  [Top] overlaps everything;
    boxes of different rank are conservatively reported overlapping
    (well-formed programs access an array with one rank only). *)

val box_cells : Domain.box -> int
val box_shape : Domain.box -> int * int
(** [rows, cols] view of a box: rank-1 boxes are [n x 1] columns,
    ranks above 2 collapse to [cells x 1]. *)

(** {1 Loop intervals} *)

val const_of_expr : Ast.expr -> int option
(** The value of an expression that is an affine constant. *)

val interval : lo:int option -> hi:int option -> step:int -> (int * int) option
(** Inclusive range of the values [v] takes in
    [for (v = lo; v < hi; v += step)], the last value exact for any
    positive step; [None] when a bound is not a known constant or the
    loop never runs. *)

val band_interval : St.band -> (int * int) option
(** {!interval} of a band. *)

val enter_loop :
  (string * (int * int)) list -> string -> (int * int) option -> (string * (int * int)) list
(** [enter_loop env var iv]: the loop intervals inside a loop over
    [var] whose values span [iv]. An inner loop shadows an outer one of
    the same name, and a loop without a known interval leaves [var]
    unbound, so nothing is proved from an outer loop's range. *)

(** {1 Array names} *)

val arrays : St.t -> Strings.t * Strings.t
(** [(reads, writes)] of a schedule subtree. Reads include the
    accumulated-into array of [+=]/[-=]/[*=]; [Code] subtrees
    contribute the arrays their statements and runtime calls touch. *)

val stmt_arrays : Tdo_ir.Ir.stmt -> Strings.t * Strings.t
(** [(reads, writes)] of one IR statement, loops included. *)

(** {1 Footprints} *)

type footprint = (string * region list) list
(** Per-array access regions, sorted by array name. One region per
    syntactic access: the list is kept (not hulled) so disjointness is
    decided pairwise. *)

val footprints : St.t -> footprint * footprint
(** [(reads, writes)] footprints of a schedule subtree: each access's
    region over the intervals of its enclosing loops. Runtime-call
    operands get their {!mat_ref_region} windows, whole-array
    transfers [Top]. *)

val overlapping : footprint -> footprint -> string list
(** Arrays on which some region of the first footprint may share a
    cell with some region of the second. *)

val pp_footprint : Format.formatter -> footprint -> unit

(** {1 Runtime-call operands} *)

val mat_ref_region : env:(string * (int * int)) list -> Tdo_ir.Ir.mat_ref -> region
(** Physical cells a runtime-call operand window can touch: the
    (affine) element offsets ranged over [env], spanned by the operand
    extent with [trans] swapping which extent runs down the rows —
    the same window {!Bounds} checks against the declaration. *)

val mat_ref_cells : Tdo_ir.Ir.mat_ref -> int
(** [rows * cols]: the cardinality of {!mat_ref_region} whenever the
    offsets are constant (the region is a box of exactly that size).
    {!Tdo_tactics.Offload.plan} prices crossbar writes with this, so
    the tuner's write-bytes model and the analyzer agree. *)

val window_varies : vars:string list -> Tdo_ir.Ir.mat_ref -> bool
(** Does the operand window's offset mention one of [vars], so that it
    moves as those loops iterate? *)
