(** Shared synthetic workloads for experiments, ablations and the
    benchmark harness: the paper's GEMM (Listing 1) and the two
    independent GEMMs sharing A (Listing 2). *)

module Interp = Tdo_lang.Interp

val gemm_source : n:int -> string
(** [C = alpha*A*B + beta*C] with PolyBench's imperfect nest. *)

val gemm_args :
  n:int -> seed:int -> (string * Interp.value) list * (unit -> Tdo_linalg.Mat.t)
(** Fresh deterministic arguments and a readback of C. *)

val listing2_source : n:int -> string
(** Two consecutive GEMMs sharing A (paper Listing 2). *)

val listing2_args :
  n:int -> seed:int -> (string * Interp.value) list * (unit -> Tdo_linalg.Mat.t * Tdo_linalg.Mat.t)
(** Fresh arguments and a readback of (C, D). *)
