(** SCoP detection: decide whether a region of IR is a static control
    part — affine loop bounds, affine array subscripts, no scalar
    side-effects — and build its schedule tree (paper Section III-A:
    "we rely on the polyhedral optimizer Polly to detect, extract and
    model compute kernels"). *)

val detect_func : Tdo_ir.Ir.func -> (Schedule_tree.t, string) result
(** The function body's region is everything between the ROI markers
    (markers themselves excluded, and permitted at the region's edges).
    [Error] explains the first obstruction: non-affine bound or
    subscript, scalar assignment, declarations, or pre-existing runtime
    calls. *)
