(** Synthetic request traces for the serving layer.

    A trace is a list of timed kernel invocations over the PolyBench
    suite: each request names a kernel, a problem size and a data seed,
    arrives at a virtual timestamp (picoseconds, the simulator's tick)
    and is tagged with the tenant that issued it and the SLO class the
    tenant bought. Generation is fully deterministic in the trace seed,
    so a replay — and its golden single-device counterpart — can be
    reproduced bit-for-bit.

    The built-in profiles draw kernels from a skewed popularity mix
    over a small set of (kernel, size) combinations, which is what
    production inference traffic looks like and what gives the kernel
    cache its hit rate. Open-loop multi-tenant traces with explicit
    arrival processes are generated by {!Tdo_loadgen.Workload}. *)

type slo =
  | Interactive  (** latency-sensitive; shed last *)
  | Batch  (** throughput traffic; shed under heavy overload *)
  | Best_effort  (** scavenger class; shed first under pressure *)

val slo_name : slo -> string
(** ["interactive"], ["batch"], ["best_effort"]. *)

val slo_of_name : string -> (slo, string) result
val all_slos : slo list

type request = {
  id : int;
  kernel : string;  (** PolyBench kernel name, see {!Tdo_polybench.Kernels} *)
  n : int;  (** problem size *)
  seed : int;  (** data seed; unique per request *)
  arrival_ps : int;
  deadline_ps : int option;  (** relative to arrival; [None] = no deadline *)
  tenant : int;  (** issuing tenant; admission buckets are per tenant *)
  slo : slo;  (** service class; admission sheds lower classes first *)
}

type t = {
  name : string;
  seed : int;
  requests : request list;  (** sorted by [arrival_ps], ids dense from 0 *)
}

val synthetic :
  ?seed:int -> ?deadline_us:int -> string -> (t, string) result
(** Build a named profile. [deadline_us] overrides the profile's
    deadline (applied to every request); [seed] defaults to 42.
    Synthetic-profile requests are all tenant 0, class [Interactive].
    [Error] names the unknown profile and lists the valid ones. *)

val distinct_kernels : t -> (string * int) list
(** The (kernel, n) combinations present, deduplicated — the number of
    compiles a cold cache will perform. *)

(** {1 Line codec}

    [req id=0 tenant=0 class=interactive kernel=gemm n=16 seed=42
    arrival_ps=123 deadline_ps=456] — one request per line, fixed key
    order, so encoding a trace is byte-deterministic in its contents.
    The same lines are the {!Frontend} wire protocol and the body of
    {!Tdo_loadgen.Codec} trace files. *)

val request_to_line : request -> string

val max_n : int
(** Largest problem size a decoded request may ask for: 128, four
    times the largest size any built-in trace or workload serves. Input
    arrays grow with [n^2], so a bound keeps one outside request from
    stalling the shared core. *)

val request_of_line : string -> (request, string) result
(** Inverse of {!request_to_line}. [id], [tenant], [seed] and
    [arrival_ps] default to 0 and [class] to [interactive] when absent,
    so hand-typed protocol lines only need [kernel] and [n]. [Error] on
    any key outside the codec's fixed set (a misspelt key must not
    silently drop a deadline), a non-integer value, a negative
    [tenant], [arrival_ps] or [deadline_ps], or [n] outside
    [1..max_n]. *)
