(** Symbolic array-region analysis.

    The shared region language of the analysis layer: a region is
    either an axis-aligned integer box of cells ({!Tdo_poly.Domain})
    or [Top], the sound fallback when a subscript or operand offset is
    not affine in iterators with known constant extents. Footprints —
    per-array region lists — are computed per statement, per runtime
    call operand and per schedule subtree, and are what the kernel
    dependence graph ({!Depgraph}), the fusion-legality proof
    ({!Legality}) and the coherence/pinning lints ({!Lint}) all share
    with the offload census ({!Tdo_tactics.Offload.plan}). *)

module St = Tdo_poly.Schedule_tree
module Domain = Tdo_poly.Domain
module Access = Tdo_poly.Access

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

(** {1 Footprints} *)

type footprint = (string * region list) list
(** Per-array access regions, sorted by array name. One region per
    syntactic access — the list is kept (not hulled) so disjointness
    is decided pairwise, at the same precision as {!Tdo_poly.Deps}. *)

val overlapping : footprint -> footprint -> string list
(** Arrays on which some region of the first footprint may share a
    cell with some region of the second. *)

val pp_footprint : Format.formatter -> footprint -> unit

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

val tree_footprint : writes:bool -> St.t -> footprint
(** Read ([writes:false], including the accumulated-into cell) or
    write footprint of a schedule subtree. [Stmt] leaves contribute
    access regions over their band extents; [Code] subtrees are walked
    statement by statement — runtime-call operands get precise
    {!mat_ref_region} windows, whole-array transfers get [Top]. *)

