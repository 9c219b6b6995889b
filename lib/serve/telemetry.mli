(** Per-request telemetry of the serving layer.

    The scheduler records one {!record} per request — outcome, timing,
    placement (device {e and} fleet profile), cache behaviour and a
    checksum of the produced outputs — plus a queue-depth sample per
    scheduling step and one event per dual-mode role conversion.
    Everything else is computed on demand from the raw records.

    {b Roll-ups.} One grouping fold turns the records (and the
    conversions) into {!counts}: for the whole run ({!summary}), per
    device class ({!class_summary}) and per SLO class
    ({!slo_summary}). {!fields} names a {!counts} once, and every
    serving report renders from that naming: [tdo-serve]'s BENCH
    extras and summaries ({!Scheduler.fields}), the front-end's
    [stats] reply and the closing events of the Chrome trace
    ({!chrome_trace}), which dumps the whole run as trace-event JSON
    ([chrome://tracing], Perfetto) with one track per device. Rolling
    time windows ({!windows}) are the one view kept apart.

    For live runs (the scheduler's [on_record] hook, which [--load] and
    the {!Frontend} use), an observer can be attached: it sees every
    record as it lands, and {!live_view} builds a windowed observer
    that emits one formatted roll-up line per elapsed time window while
    the run is still going. *)

type counts = {
  requests : int;
  completed : int;  (** served on a fleet device *)
  completed_after_retry : int;  (** completed on a device after >=1 retry *)
  served_tuned : int;  (** completed requests that ran a tuned configuration *)
  cpu_fallbacks : int;
  recovered_host : int;
  rejected : int;  (** bounced by the hard queue bound ([rejected_overloaded]) *)
  shed_rate_limited : int;  (** dropped by a tenant token bucket *)
  shed_load : int;  (** dropped by SLO-class queue-fill shedding *)
  failed : int;
  detected_corruptions : int;
      (** device attempts whose ABFT check failed: the sum of [retries]
          over the group's records, whatever their outcome *)
  write_bytes : int;  (** crossbar programming traffic of completed requests *)
  conversions_to_compute : int;  (** dual-mode tiles drafted into the compute pool *)
  conversions_to_memory : int;  (** dual-mode tiles released back to plain memory *)
  displaced_bytes : float;
      (** memory-role bandwidth dual tiles gave up while drafted
          (charged on reverts) *)
  latency_p50_us : float;
      (** over the group's served requests ({!served}); 0 when none *)
  latency_p99_us : float;
  latency_mean_us : float;
}
(** Outcome counters of one group of records. Every record counts in
    exactly one of the seven outcome fields [completed],
    [cpu_fallbacks], [recovered_host], [rejected], [shed_rate_limited],
    [shed_load] and [failed], which therefore sum to [requests].
    Conversions and displaced bytes count in the run total and in
    their device class, never in an SLO class. (Declared before
    {!record} and {!conversion}, so an unannotated [r.write_bytes] or
    [c.displaced_bytes] means theirs.) *)

type summary = counts
type class_counts = counts
type slo_counts = counts

type shed_reason =
  | Rate_limited  (** tenant token bucket empty ({!Admission.Shed_rate}) *)
  | Load_shed  (** queue fill beyond the SLO class's limit ({!Admission.Shed_load}) *)

val shed_reason_name : shed_reason -> string
(** ["rate_limited"], ["load_shed"]. *)

type outcome =
  | Completed  (** served on a fleet device *)
  | Cpu_fallback  (** deadline missed; degraded to the host interpreter *)
  | Recovered_host
      (** corruption detected on every attempted device; final
          degradation to the host interpreter produced the result *)
  | Rejected_overloaded  (** bounced at admission: submission queue full *)
  | Shed of shed_reason  (** dropped by {!Admission} before queueing *)
  | Failed of string  (** device or front-end error *)

type record = {
  request : Trace.request;
  outcome : outcome;
  device : int option;  (** [None] unless [Completed] *)
  profile : string option;
      (** fleet-profile name of the serving device ({!Tdo_backend.Backend.profile});
          [None] for outcomes that never reached a device *)
  batch : int option;  (** dispatch batch id, [None] for unbatched outcomes *)
  cache_hit : bool;
  queue_depth : int;  (** submission-queue depth seen at admission *)
  start_ps : int;  (** when service began (= finish for rejections) *)
  finish_ps : int;
  service_ps : int;
  retries : int;  (** device attempts discarded after a detected corruption *)
  tuned : bool;
      (** compiled under a configuration the tuning database supplied
          rather than the scheduler-wide default *)
  write_bytes : int;
      (** crossbar bytes programmed serving this request — [0] when the
          device's pinned weight tiles were resident (graph-scope
          residency) or the request never touched a crossbar *)
  checksum : string option;  (** digest of the output arrays, comparison key of the golden check *)
}

val latency_ps : record -> int
(** [finish - arrival]: what the client observed. *)

val profile_bucket : record -> string
(** The per-class accounting bucket: the record's profile name, ["host"]
    for interpreter degradations that never touched a device, and
    ["unplaced"] otherwise. *)

val served : record -> bool
(** The client got an answer: [Completed], [Cpu_fallback] or
    [Recovered_host]. *)

type t

val create : ?observer:(record -> unit) -> unit -> t
(** [observer] (if any) is called synchronously with every record as it
    is recorded — the hook live views hang off. *)

val record : t -> record -> unit
val sample_queue_depth : t -> at_ps:int -> depth:int -> unit

val record_conversion :
  ?displaced_bytes:float ->
  t ->
  at_ps:int ->
  device:int ->
  profile:string ->
  to_compute:bool ->
  unit
(** A dual-mode tile switched roles at [at_ps]: [to_compute = true]
    when it was converted into the compute pool, [false] when it
    reverted to plain memory. [displaced_bytes] (default [0.]) is the
    memory-role traffic the tile gave up over the drafted interval a
    revert closes. *)

type conversion = {
  at_ps : int;
  conv_device : int;
  conv_profile : string;
  to_compute : bool;  (** [false] = reverted to the plain-memory role *)
  displaced_bytes : float;
      (** memory-role traffic forgone over the drafted interval a
          revert closes; [0.] on drafts *)
}

val conversions : t -> conversion list
(** In recording order. *)

val records : t -> record list
(** In request-id order. *)

val last_finish_ps : t -> int
(** The latest [finish_ps] over all records; 0 when there are none. *)

val summary : t -> summary
(** The whole run's {!counts}, conversions included. *)

val class_summary : t -> (string * class_counts) list
(** {!counts} split by {!profile_bucket}, sorted by bucket name; each
    conversion counts in its tile's profile. *)

val slo_summary : t -> (Trace.slo * slo_counts) list
(** {!counts} split by SLO class, sorted [Interactive] first. The
    shed-ordering claim — overload drops best-effort before batch
    before interactive — is checked against these counters. *)

val fields : counts -> (string * float) list
(** The one naming of a {!counts}, in a fixed order: [requests],
    [served] (= completed + cpu_fallbacks + recovered_host), then
    [completed], [completed_after_retry], [served_tuned],
    [cpu_fallbacks], [recovered_host], [rejected_overloaded],
    [shed_rate_limited], [shed_load], [failed], [detected_corruptions],
    [write_bytes], [conversions_to_compute], [conversions_to_memory],
    [displaced_mem_bytes], [latency_p50_us], [latency_p99_us] and
    [latency_mean_us]. *)

val format_fields : (string * float) list -> string
(** [k=v] pairs separated by spaces, each value as
    {!Tdo_util.Json.number} prints it: what the summaries and the
    [stats] reply print. *)

type window = {
  w_index : int;
  w_start_us : float;
  w_arrivals : int;  (** requests whose arrival falls in the window *)
  w_served : int;  (** requests answered (finish) in the window *)
  w_shed : int;  (** admission sheds + rejections in the window *)
  w_p50_us : float;  (** latency of requests finishing in the window *)
  w_p99_us : float;
  w_throughput_rps : float;  (** served per second of window time *)
  w_max_depth : int;  (** deepest queue sample in the window *)
  w_served_by_slo : (Trace.slo * int) list;
  w_shed_by_slo : (Trace.slo * int) list;
}

val windows : ?window_us:float -> t -> window list
(** Post-hoc rolling view: bucket the run into fixed windows of
    [window_us] (default 10ms) simulated/wall time, ascending, gaps
    omitted. Arrivals are bucketed by arrival time, served/shed counts
    and latency percentiles by finish time — so a burst shows up as an
    arrival spike first and a served/latency bump in later windows.
    Raises [Invalid_argument] unless {!window_ps} accepts [window_us]. *)

val window_ps : float -> int option
(** [window_ps window_us] is the width in picoseconds; [None] unless
    [window_us] is finite and the width is at least 1 ps and below
    [max_int] ps. *)

val live_view : ?window_us:float -> emit:(string -> unit) -> unit -> record -> unit
(** Build a stateful observer (pass it to {!create}) that folds records
    into the current time window and calls [emit] with one fixed-width
    roll-up line each time a record lands past the window's
    end; the cost is per record, however many empty windows that
    record skips. Empty windows are not emitted. Raises
    [Invalid_argument] where {!windows} does. Records are seen in
    dispatch order, which is only approximately time order; stragglers
    for an already-emitted window are folded into the live window
    rather than reopening the past. *)

val latency_percentile : ?profile:string -> t -> p:float -> float option
(** Percentile (in simulated microseconds) over requests that were
    actually served ([Completed], [Cpu_fallback] or [Recovered_host]);
    [None] when none were. [profile] restricts to one
    {!profile_bucket}. *)

val mean_latency_us : ?profile:string -> t -> float option
val max_queue_depth : t -> int

val chrome_trace : t -> string
(** The run as a JSON array of Chrome trace events: one complete
    ("ph":"X") event per served request on its device's track (tagged
    with its device class, SLO class and tenant), one instant event per
    rejection, shed and dual-mode conversion, a queue-depth counter
    track, and closing instant events [outcome-summary],
    [class-summary <profile>] and [slo-summary <class>] whose [args]
    are the {!fields} of {!summary}, {!class_summary} and
    {!slo_summary}. Timestamps are simulated microseconds. *)

val write_chrome_trace : t -> path:string -> unit
