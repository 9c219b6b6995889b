(** Multi-tenant open-loop workload generation.

    A workload is a set of tenants, each with an SLO class, an
    {!Arrival.process}, a (kernel, size, weight) popularity mix and an
    optional per-request deadline. {!generate} runs every tenant's
    arrival process on its own decorrelated PRNG stream and merges the
    streams into one {!Tdo_serve.Trace.t} sorted by arrival time with
    dense request ids — ready for {!Tdo_serve.Scheduler.replay}, the
    {!Tdo_serve.Frontend} wire protocol, or a {!Codec} trace file.

    Everything is deterministic in [seed]: same seed, same tenants,
    same byte-identical trace. *)

module Trace = Tdo_serve.Trace

type tenant = {
  tenant : int;  (** tenant id; admission buckets key on it *)
  tname : string;
  slo : Trace.slo;
  process : Arrival.process;
  mix : (string * int * int) list;  (** (kernel, n, popularity weight) *)
  deadline_us : int option;  (** per-request deadline; [None] = none *)
}

val standard_tenants :
  ?process:(Trace.slo -> float -> Arrival.process) ->
  total_rate_rps:float ->
  unit ->
  tenant list
(** The three-tenant reference workload: an interactive "chat" tenant
    (50% of the total rate, small latency-friendly kernels), a batch
    "analytics" tenant (30%, heavier multi-GEMM pipelines) and a
    best-effort "scavenger" tenant (20%, the full mix). [process]
    builds each tenant's arrival process from its class and rate share
    (default: Poisson at that rate) — override it to make the same
    tenants bursty or diurnal. *)

val graph_tenants :
  ?process:(Trace.slo -> float -> Arrival.process) ->
  ?n:int ->
  total_rate_rps:float ->
  unit ->
  tenant list
(** The three-tenant graph-serving workload: every request names a
    whole multi-kernel program at size [n] (default 24). "chat-mlp"
    (interactive, 45%, [graph:mlp4]) and "shadow-mlp" (best-effort,
    20%, the {e same} model — exercising cross-tenant residency
    isolation) bracket a batch "rank-attn" tenant (35%, [graph:attn]).
    The repeat traffic within each tenant's stream is what graph-scope
    weight residency amortises. *)

val generate : ?seed:int -> count:int -> tenant list -> Trace.t
(** Merge the tenants' arrival streams into one trace of exactly
    [count] requests (each tenant contributes in proportion to its
    arrival rate; ties break to the lowest tenant id). Request data
    seeds are unique per request. Raises [Invalid_argument] on an
    empty tenant list or negative count. *)
