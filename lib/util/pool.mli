(** Multicore work pool for embarrassingly parallel experiment sweeps.

    [parallel_map] fans a list of independent tasks out over OCaml 5
    domains and returns the results in input order, so a caller that
    seeds each task deterministically (explicit PRNG seeds, no shared
    mutable state) gets bit-identical output regardless of how many
    domains run or how the scheduler interleaves them.

    Escape hatches: [TDO_DOMAINS=<n>] in the environment pins the
    domain count regardless of what the runtime recommends —
    [TDO_DOMAINS=1] runs every map on the calling domain, which is
    useful for debugging and timing baselines — and
    {!set_sequential}[ (Some true)] does the same from code, for the
    determinism tests that compare both modes. *)

val size : unit -> int
(** Number of domains a map may use: [TDO_DOMAINS] when set to an
    integer, otherwise [Domain.recommended_domain_count]. Always at
    least 1, even when either source is degenerate (0, negative, or
    unparsable). The environment variable is re-read on every call;
    the recommendation (an OS probe) is computed once and cached. *)

val sequential : unit -> bool
(** [true] when {!set_sequential}[ (Some true)] forces maps
    sequential. *)

val set_sequential : bool option -> unit
(** [Some true] forces sequential execution; [Some false] and [None]
    (the default) let maps use up to {!size}[ ()] domains. *)

val parallel_map : ?workers:int -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map f xs] is [List.map f xs] computed by up to
    [?workers] (default {!size}[ ()]) domains, the calling domain
    included. Results keep input order. If any [f x] raises, the whole
    map raises the exception of the earliest failing element — after
    every task has finished, so no task is abandoned mid-flight.

    Tasks are claimed from a shared atomic cursor in chunks of
    [max 1 (n / (8 * workers))] indices, so large maps of small tasks
    pay one atomic operation per chunk rather than per task.

    Nested calls from inside a worker run sequentially instead of
    spawning further domains, so the pool cannot explode or deadlock
    under composition. *)
