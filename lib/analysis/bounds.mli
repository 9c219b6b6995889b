(** Polyhedral out-of-bounds proof.

    Every array access (statement subscripts and the operand windows of
    [cim_*] runtime calls alike) is bounded over the constant-extent
    loop nest enclosing it; an access whose region can escape the
    array's declared extents is reported with a {e concrete witness
    point} — the iterator assignment that realises the violation — so
    the diagnostic reads like a failing test case, not a may-alias
    shrug (E201 overflow, E202 underflow).

    Accesses under loops with non-constant (parametric) bounds cannot
    be decided by the box domain and are reported as N203 notes: the
    proof is honest about what it could not check. *)

val func : Tdo_ir.Ir.func -> Diag.t list
(** Empty list = every access provably in bounds. *)
