(** Translation validation for the offload pipeline — an independent
    re-derivation of the dependence relations before and after a
    rewrite, in the spirit of verify-after-each-pass.

    Two granularities, matching the two kinds of rewrite the tactics
    pipeline performs:

    - {b Statement level} ([check_stmt_level]) for rewrites that keep
      statement leaves (loop interchange, band restructuring, test
      mutations): statements are matched by [sid]; dropped or
      introduced statements, dropped bands, reordered dependent
      statements, and band permutations whose dependence distance
      vectors become lexicographically negative are all rejected.
      Accumulation statements ([+=]/[-=]) accept instance reordering,
      consistent with the reduction-reassociation semantics used
      throughout this flow.

    - {b Dataflow level} ([check_dataflow]) for the full offload
      rewrite, whose output contains opaque [Code] nodes full of
      runtime calls: array-granularity flow dependences of the source
      tree must be reproducible in the rewritten tree (transitively,
      through compiler-introduced temporaries), no writes may be lost,
      and every [polly_cimBlasGemmBatched] batch must be pairwise
      conflict-free — fusing dependent kernels into one parallel batch
      is the classic silent-corruption bug this catches.

    [check] dispatches on the presence of [Code] nodes. *)

module St = Tdo_poly.Schedule_tree

val check : before:St.t -> after:St.t -> Diag.t list
val check_stmt_level : before:St.t -> after:St.t -> Diag.t list
