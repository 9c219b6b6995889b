(** The multi-tenant offload scheduler: bounded admission, batch
    coalescing, cost-based placement across a heterogeneous device
    fleet, deadlines with CPU-interpreter degradation.

    [replay] drives a {!Trace.t} through a virtual-time event loop (the
    steppable core below, fed the whole trace at once).
    Requests are admitted into a bounded submission queue (overflow is
    {e backpressure}: the request is rejected with
    {!Telemetry.Rejected_overloaded}, never silently dropped). When
    devices are free, the dispatcher works head-of-queue first: it
    coalesces queued requests that share a (kernel, size) — they reuse
    one compiled-cache entry and pay the launch overhead once — and
    places each batch on the eligible free device with the lowest
    predicted cost. The prediction comes from the per-class cost-model
    coefficient sets ({!Tdo_tune.Cost_model.uncalibrated_for}) applied
    to the offload plan of the entry that class would actually run, so
    an analog crossbar, a digital SRAM tile and the host BLAS path each
    quote their own price. A device that already holds a graph
    request's pinned weights quotes the resident estimate instead (see
    [graph_residency]). Ties break to the least-written device, then
    the lowest id, which is what spreads writes across identical
    analog devices.

    {b Dual-mode tiles.} A fleet profile with
    {!Tdo_backend.Backend.profile.dual_mode} set serves as plain memory
    until the scheduler drafts it: when more than two items are queued
    (or the fleet has no always-compute device left), a memory-mode
    tile becomes eligible for placement, its conversion latency is
    added to its placement score and charged to the batch's start
    time, and the flip is counted in telemetry. Once the queue drains
    and the tile has idled for 200 us, it reverts to the memory role
    (also counted).

    A request whose deadline has already passed when it reaches the
    head of the queue is not sent to a device at all: it degrades to
    the host reference interpreter (functionally exact, charged at the
    host profile's MAC rate, {!Tdo_backend.Backend.host}).

    {b Recovery.} When a device's ABFT guard detects a corrupted
    offload (see {!Tdo_cimacc.Micro_engine} and {!Tdo_linalg.Abft}),
    the attempt's outputs are discarded but its virtual time is still
    charged. The scheduler then applies a three-stage policy: retry the
    request on a device that has not yet corrupted it (up to
    [recovery.max_attempts] attempts, each recorded in the request's
    [retries]); quarantine a device after [recovery.quarantine_after]
    detected corruptions — it leaves the dispatch rotation and its
    faulty rows are marked dead in its Start-Gap remapper; and finally
    degrade the request to the host interpreter
    ({!Telemetry.Recovered_host}) when attempts or devices run out.
    All of it happens in virtual time, so the golden oracle and the
    parallel==sequential determinism property keep holding.

    {b One wave.} At each event the core releases idle dual tiles,
    admits due arrivals and culls expired deadlines, then runs one
    wave over the devices free at that instant. [decide] picks the
    next batch head and its device from the queue, the free devices
    and the clock, and changes none of them; [apply] pops the batch,
    drafts a dual tile if it won and builds the batch; the two repeat
    until no queued item is placeable. The batches then execute, and
    [settle] folds their results into records, calibration samples,
    recovery and the requeue. Every decision of a wave is taken
    {e before} the wave executes, so executing its batches on worker
    domains ({!Tdo_util.Pool}) or sequentially produces bit-identical
    results and telemetry — the property the golden check and the
    qcheck determinism suite pin down. *)

module Platform = Tdo_runtime.Platform
module Flow = Tdo_cim.Flow
module Backend = Tdo_backend.Backend

type recovery = {
  max_attempts : int;  (** device attempts per request before host degradation; >= 1 *)
  quarantine_after : int;  (** detected corruptions before a device is pulled *)
}

val default_recovery : recovery
(** 3 attempts, quarantine after 2 corruptions. *)

type config = {
  devices : int;  (** pool size when [fleet] is [None]; >= 1 *)
  fleet : Backend.profile list option;
      (** device [i] gets profile [i] of the list; [None] = [devices]
          analog crossbars (the pre-fleet behaviour). Parse a
          command-line spec with {!Backend.parse_fleet}. *)
  platform_config : Platform.config;
      (** per-device platform base; each profile reshapes it
          (latencies, noise immunity) via {!Backend.platform_config} *)
  options : Flow.options;  (** compile options for the kernel cache *)
  cache_capacity : int;
  queue_capacity : int;  (** submission-queue bound; [<= 0] = unbounded *)
  max_batch : int;  (** requests coalesced per dispatch; >= 1, and 1 = no coalescing *)
  dispatch_overhead_ps : int;  (** per-batch launch cost (driver + syscall path) *)
  ignore_deadlines : bool;  (** golden mode: never degrade *)
  recovery : recovery;
  device_seed : int;  (** device [i] gets PRNG seed [device_seed + i] *)
  on_device_create : (Device.t -> unit) option;
      (** called once per device at pool construction — the hook
          reliability campaigns use to plant faults
          ({!Tdo_reliab.Inject}); [None] = pristine pool *)
  tuning : Tdo_tune.Db.t option;
      (** per-(kernel, class) tuned configurations for the kernel
          cache, keyed by structural digest and device class
          (cross-class entries are refused); geometry is clamped to the
          pool's crossbar shape. [golden_config] keeps it, so the
          oracle compiles identically and checksums stay comparable. *)
  admission : Admission.policy option;
      (** per-tenant token buckets and SLO-class load shedding, judged
          at each request's arrival timestamp {e before} the hard queue
          bound; shed requests are recorded as {!Telemetry.Shed} and
          never queue. [None] = every arrival admitted (the pre-SLO
          behaviour). *)
  calibrate_after : int option;
      (** [Some n]: refit the per-class cost-model coefficients from
          measured service cycles once a class has completed [n]
          requests ({!Tdo_tune.Cost_model.calibrate}); adopted only
          when the fit beats the hand-priced prior on its own samples,
          so placement never gets worse. Each adoption is listed in the
          report's [calibrations]. [None] = priors throughout. *)
  on_record : (Telemetry.record -> unit) option;
      (** live observer installed on the run's telemetry — sees every
          record as it lands (e.g. {!Telemetry.live_view}); [None] for
          post-hoc-only analysis *)
  graphs : (string * Tdo_polybench.Kernels.benchmark) list;
      (** extra kernels resolvable by request name — the graph
          workloads ({!Tdo_graph.Graph.benchmark}) a trace may carry,
          looked up before the {!Tdo_polybench.Kernels} registry.
          [[]] = polybench kernels only (the pre-graph behaviour). *)
  graph_residency : bool;
      (** keep a graph's weight tiles pinned on the serving device
          across requests of the same (model, tenant): a repeat request
          landing on the device that last served it skips crossbar
          programming entirely ([write_bytes = 0] in its record), and
          placement quotes the warm estimate
          ({!Tdo_tune.Cost_model.predict_resident_cycles}) so repeat
          traffic sticks to the device holding its weights. Residency
          is invalidated by dual-mode role flips, quarantine,
          compiled-cache eviction and any non-matching run on the
          device; it is keyed by compiled-entry digest {e and} tenant,
          so one tenant's pinned weights are never served to another.
          [false] = reprogram on every request. *)
}

val default_config : config
(** 4 analog-crossbar devices, default platform, 64-entry cache,
    256-deep queue, batching up to 8, 5 us launch overhead,
    {!default_recovery}, no fault hook, no tuning database, no
    admission policy, no online calibration, no live observer. *)

val golden_config : ?profile:Backend.profile -> config -> config
(** The sequential oracle for a given serving configuration: one
    device of [profile]'s class (default {!Backend.pcm}; dual-mode is
    pinned off so the oracle always computes), [max_batch = 1] (so one
    batch per wave, run on the calling domain), unbounded queue,
    deadlines ignored, {e no fault-injection hook}, no admission
    policy, no online calibration, no live observer — same compile
    options and platform. Run one golden per compute class in a mixed
    fleet: {!divergence} only compares records of the same class. *)

type device_report = {
  dev_id : int;
  dev_profile : string;  (** fleet profile name, e.g. ["pcm"], ["dual"] *)
  dev_class : string;  (** device-class name, e.g. ["pcm"], ["digital"] *)
  dev_wear : Device.wear;  (** final wear snapshot *)
  dev_served : int;  (** requests served *)
  dev_energy_j : float;  (** lifetime energy under the class's table *)
  dev_conversions : int * int;  (** (to compute, to memory) *)
  dev_displaced_bytes : float;
      (** memory-role bandwidth this tile's clients lost while it was
          drafted for compute (dual-mode tiles only; 0 elsewhere) *)
}

type report = {
  trace : Trace.t;
  config : config;
  telemetry : Telemetry.t;
  cache : Kernel_cache.stats;
  devices : device_report list;
  quarantined : int list;  (** devices pulled from rotation during the run *)
  makespan_ps : int;  (** finish time of the last request *)
  wall_s : float;  (** host wall-clock spent replaying *)
  calibrations : (string * int * float) list;
      (** one entry per adopted online cost-model fit: class name,
          number of samples fitted over, mean relative error of the
          fitted model on those samples. Empty when [calibrate_after]
          is [None] or no fit beat its prior. *)
}

(** {1 The steppable core}

    One event loop serves both clocks. [replay] feeds a whole trace and
    drains it in virtual time; the wall-clock {!Frontend} submits each
    request as it is read, stamped with wall picoseconds, and advances
    the core to the wall clock after every read. Both run the same
    admission, batching, placement, residency, recovery, deadline and
    calibration policy, so a session's records equal the replay of its
    requests. *)

type t
(** The core's whole state, one record: the fleet, kernel cache,
    telemetry, admission state, arrival FIFO and queue, placement's
    estimate memo, one calibration record per device class, and the
    clock. *)

val create : ?config:config -> unit -> t
(** A fresh core at time 0: the fleet, kernel cache, telemetry and an
    empty arrival FIFO. Raises [Invalid_argument] on an empty fleet,
    [devices < 1], [max_batch < 1] or [recovery.max_attempts < 1]. *)

val submit : t -> Trace.request -> unit
(** Append one request to the arrival FIFO. Arrivals are consumed in
    submission order, so submit them in non-decreasing [arrival_ps] and
    strictly after the last [until_ps] the core was advanced to: then
    the run equals a {!replay} of the same requests. *)

val advance : t -> until_ps:int -> unit
(** Run the event loop (release idle dual tiles, admit due arrivals,
    cull expired deadlines, run a wave, move to the next event) for
    every event at or before [until_ps]. Returns without moving the clock when
    no event is due by then. Records land in {!telemetry} (and the
    config's [on_record]) as batches are dispatched. *)

val pending : t -> int
(** Requests submitted but not yet answered: not yet admitted plus
    queued for a device. *)

val telemetry : t -> Telemetry.t

val finish : t -> Trace.t -> report
(** Drain the core ([advance ~until_ps:max_int]: a queue no device can
    serve is degraded to the host), close dual-tile displacement at the
    makespan and build the report, naming [trace] as its input. *)

val replay : ?config:config -> Trace.t -> report
(** [create], [submit] every request of the trace in order, [finish]. *)

val output_checksum : Tdo_linalg.Mat.t list -> string
(** The digest [replay] stores in {!Telemetry.record.checksum} —
    exposed so external oracles (the reliability campaign's
    host-interpreter reference) can compare bit-for-bit. *)

val cache_hit_rate : report -> float
(** Hits over (hits + misses); 0 on an empty run. *)

val fields : ?prefix:string -> report -> (string * float) list
(** Every figure of a run, each key prefixed with [prefix] (default
    [""]), in this order:
    - the run's {!Telemetry.fields};
    - [class_<profile>_] + {!Telemetry.fields} + [energy_j] for each
      {!Telemetry.class_summary} bucket;
    - [slo_<class>_] + {!Telemetry.fields} for each
      {!Telemetry.slo_summary} class;
    - [devices], [quarantined_devices], [cache_hits], [cache_misses],
      [cache_hit_rate], [distinct_kernels], [max_queue_depth],
      [makespan_ms] and [throughput_rps] (served per simulated second);
    - [calib_<class>_samples] and [calib_<class>_mre] per adopted
      calibration;
    - [dev<i>_] wear, energy and conversion figures per device.

    The BENCH extras of [tdo-serve] are these fields. *)

val record_class : Telemetry.record -> Backend.device_class option
(** The compute class behind a record's checksum — what decides
    comparability in {!divergence}. *)

type divergence = {
  divergent : int;  (** compared requests whose output checksums differ *)
  compared : int;
      (** requests that completed on devices of the same compute class
          in both reports *)
}

val divergence : report -> report -> divergence
(** The cross-device golden check: over the requests that completed on
    devices of the {e same compute class} in both reports, how many
    were compared and how many produced different output checksums.
    [divergent = 0] means every compared request is bit-identical.
    (Cross-class checksums are not compared: class-keyed tuned
    geometries may tile the 8-bit quantisation differently, and the
    host computes in full precision.) *)
