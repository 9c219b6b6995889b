(** Per-tenant admission control and SLO-class load shedding.

    Layered in front of the scheduler's bounded submission queue: every
    arrival is first charged against its tenant's token bucket (rate
    plus burst allowance, refilled lazily from the arrival timestamps —
    virtual picoseconds in a {!Scheduler.replay}, wall-clock
    picoseconds when the {!Frontend} stamps and submits live requests
    to the same core), then checked against its SLO class's fill limit on
    the shared queue. Best-effort traffic loses queue eligibility at
    [best_effort_above] fill, batch at [batch_above], and interactive
    traffic may fill the whole queue: an interactive arrival at a full
    queue is shed too, as [Shed_load]. So overload sheds the cheapest
    promise first, and under a policy the scheduler's hard bound
    ({!Telemetry.Rejected_overloaded}) never fires; it rejects overflow
    only when no policy is set.

    Admission state is mutable but only touched on the scheduler
    thread, in arrival order, which keeps replays deterministic. *)

type bucket = {
  rate_per_s : float;  (** sustained admissions per second *)
  burst : float;  (** token capacity; also the initial level; >= 1 *)
}

type policy = {
  per_tenant : (int * bucket) list;  (** explicit budgets by tenant id *)
  default_bucket : bucket option;
      (** budget for tenants not listed; [None] = unmetered *)
  batch_above : float;
      (** queue-fill fraction at which [Batch] arrivals are shed *)
  best_effort_above : float;
      (** queue-fill fraction at which [Best_effort] arrivals are shed;
          must be [<= batch_above] *)
}

val default_policy : policy
(** No buckets (every tenant unmetered), shed best-effort at 0.5 fill
    and batch at 0.8. *)

type t

val create : policy -> t
(** Validates the policy (thresholds in [0,1], ordered; bucket rates
    non-negative, bursts >= 1) — raises [Invalid_argument] otherwise. *)

type verdict =
  | Admit
  | Shed_rate  (** tenant token bucket empty *)
  | Shed_load  (** queue fill beyond the request's class limit *)

val admit : t -> now_ps:int -> queue_len:int -> capacity:int -> Trace.request -> verdict
(** Judge one arrival at time [now_ps] against the current queue fill
    and the tenant budgets ([capacity <= 0] disables class shedding —
    an unbounded queue has no fill fraction). The class check runs
    first and consumes nothing; a token is consumed only on [Admit].
    Timestamps must be non-decreasing per tenant for the refill to be
    meaningful. *)
