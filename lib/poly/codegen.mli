(** Schedule tree -> IR lowering (Polly's AST generation step).

    The inverse of {!Scop_detect}: bands become [for] loops, statement
    leaves become assignments, and [Code] escape nodes (inserted by the
    offload pass) pass through verbatim. *)

val func_with_body :
  Tdo_ir.Ir.func -> Schedule_tree.t -> Tdo_ir.Ir.func
(** Replace the region between the function's ROI markers with the
    lowering of the tree (markers preserved). *)
