(** Structural well-formedness verifier — the analysis-layer analogue
    of LLVM's IR verifier, run over [Ir.func] and [Schedule_tree.t].

    IR checks (E0xx): defs-before-use of scalars and arrays, array
    rank agreement, affine/constant-evaluable loop bounds with positive
    steps, properly nested ROI markers, and runtime-call checking
    against the [cim_*] signature table — operand shape consistency
    with the call's [m]/[n]/[k], and a device-state machine (init
    before use, malloc before transfer/compute, no use after free).

    Schedule-tree checks (E05x/W05x): positive band steps, no empty
    [Seq], unique statement ids, no iterator shadowing between nested
    bands, and every variable in an access subscript or statement
    right-hand side bound by an enclosing band or a declared free
    symbol (the domain invariant). *)

val func : Tdo_ir.Ir.func -> Diag.t list
(** Empty list = well-formed. *)

val tree : ?free:string list -> Tdo_poly.Schedule_tree.t -> Diag.t list
(** [free] lists symbols (function parameters) that may appear unbound
    in subscripts and right-hand sides. *)
