(** End-to-end reliability campaigns over the serving stack.

    One campaign builds a deterministic request trace over a set of
    PolyBench kernels, replays it twice through
    {!Tdo_serve.Scheduler.replay} — once on a pool with faults planted
    by {!Inject}, once on a pristine pool with identical seeds — and
    scores the difference:

    - {b detected}: corrupt device attempts the ABFT guard caught
      (each one triggered a recovery retry or host degradation);
    - {b SDC}: silent data corruptions — served results that differ
      from their oracle. Device-served results compare against the
      fault-free replay (offloads are deterministic across identical
      devices); host-served results compare against a direct
      interpreter run. With the guard on, single-fault campaigns must
      score zero;
    - {b overheads}: mean served latency and makespan of the faulty
      run relative to the fault-free baseline — the price of checksums,
      retries and quarantine-shrunk pools, in virtual time. *)

type config = {
  kernels : (string * int) list;  (** uniform (kernel, n) mix of the trace *)
  requests : int;
  mean_gap_us : float;  (** mean exponential inter-arrival gap *)
  devices : int;
  seed : int;  (** trace seed and device-seed base *)
  spec : Inject.spec;  (** the fault population *)
  abft : bool;  (** arm the per-GEMV checksum guard on every device *)
  recovery : Tdo_serve.Scheduler.recovery;
}

val default_config : config
(** gemm/gesummv/mvt at n=16, 60 requests on 2 devices, guard on,
    {!Inject.default_spec}, default recovery. *)

type metrics = {
  counts : Tdo_serve.Telemetry.counts;
      (** the faulty replay's run totals; its [detected_corruptions]
          are the corrupt attempts the ABFT guard caught *)
  injected_faults : int;
  faulty_devices : int;
  sdc : int;  (** silent corruptions that reached a client *)
  quarantined : int list;  (** devices pulled from rotation *)
  detection_rate : float;  (** detected / (detected + sdc); 1.0 when clean *)
  sdc_rate : float;  (** sdc / served *)
  latency_overhead : float;  (** mean served latency vs fault-free baseline *)
  makespan_overhead : float;
}

type run = {
  config : config;
  trace : Tdo_serve.Trace.t;
  faulty : Tdo_serve.Scheduler.report;
  baseline : Tdo_serve.Scheduler.report;  (** same pool, no faults *)
  metrics : metrics;
}

val trace_of : config -> Tdo_serve.Trace.t
(** The campaign's request trace (deterministic in [config.seed]). *)

val scheduler_config : config -> faults:bool -> Tdo_serve.Scheduler.config
(** The serving configuration a campaign replays under; [faults]
    selects whether the {!Inject} hook is installed. *)

val interp_checksum : Tdo_serve.Trace.request -> string option
(** Host-interpreter oracle digest for one request ([None] for an
    unknown kernel). *)

val run : ?config:config -> unit -> run
