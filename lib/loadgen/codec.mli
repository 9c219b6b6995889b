(** Trace files: replayable dumps of generated workloads.

    A trace file is one header line —

    {v #tdo-trace v1 name=<name> seed=<seed> v}

    — followed by one {!Tdo_serve.Trace.request_to_line} per request.
    The encoding is byte-deterministic in the trace contents, so two
    generator runs with the same seed produce identical files (the
    property the qcheck suite pins down), and the body lines can be
    piped straight into a {!Tdo_serve.Frontend} session. *)

module Trace = Tdo_serve.Trace

val encode : Trace.t -> string
val decode : string -> (Trace.t, string) result
(** Inverse of {!encode}; blank lines are skipped, errors carry the
    1-based line number. A request whose [arrival_ps] is below the
    previous request's, or whose [id] an earlier line already used, is
    an error: {!Tdo_serve.Trace.t} lists its requests in arrival order,
    and the scheduler takes them in that order. *)

val write : Trace.t -> path:string -> unit
val read : path:string -> (Trace.t, string) result
