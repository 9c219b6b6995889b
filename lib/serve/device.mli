(** One pooled fleet device behind a {!Tdo_backend.Backend.profile}.

    For the CIM classes (analog PCM crossbar, digital SRAM tile) a
    device is a full emulated platform (its own host core, memory,
    bus, caches and CIM accelerator) that is {e reused} across requests
    instead of being rebuilt per run. Reuse is what makes a device a
    device: crossbar wear accumulates over its lifetime exactly as it
    would in a physical tile, which is the signal the pool's
    endurance-aware dispatch spreads writes with. Two pieces of state
    must not leak between tenants, and [run] clears or compensates for
    both: the engine's pinned-operand latch is invalidated (a fresh
    runtime instance restarts its generation counter, so a stale latch
    could alias a new tenant's buffer at a recycled CMA address), and
    ROI/crossbar counters are read as deltas around each run.

    A host-class device builds no emulated machine — it {e is} the
    host: {!run_host} executes the type-checked AST through the
    reference interpreter under the profile's per-MAC cost curve. A
    dual-mode device additionally carries a {!Tdo_backend.Backend.mode}
    the scheduler flips as load demands, with every flip counted.

    Every run is priced against the profile's Table-I-style energy
    table; {!energy_j} is the device's lifetime total. *)

module Platform = Tdo_runtime.Platform
module Flow = Tdo_cim.Flow
module Interp = Tdo_lang.Interp
module Ast = Tdo_lang.Ast
module Backend = Tdo_backend.Backend

type exec_stats = {
  service_ps : int;  (** simulated ROI time of this request *)
  roi_instructions : int;
  used_cim : bool;
  launches : int;
  write_bytes : int;  (** matrix bytes programmed into this device's crossbars *)
  cell_writes : int;  (** physical write pulses, summed over tiles *)
  macs : int;
  energy_j : float;  (** this run's energy under the profile's table *)
  abft_checks : int;  (** GEMV checksum verifications during this run *)
  abft_mismatches : int;  (** detected corruptions during this run *)
  abft_fault : (int * (int * int * int * int)) option;
      (** [(tile, (row_off, col_off, rows, cols))] localisation of the
          last mismatch, [None] if the run was clean *)
}

type wear = {
  total_cell_writes : int;  (** lifetime write pulses, summed over tiles *)
  max_per_cell : int;  (** hottest cell across tiles *)
  per_tile_cell_writes : int array;
  per_tile_write_bytes : int array;
  worn_out_fraction : float;
  leveling : Tdo_pcm.Wear_leveling.stats;
      (** the device's Start-Gap remap view of its row-write stream *)
  budget_consumed : float;  (** Eq. 1 write-budget fraction, uniform-wear assumption *)
}

type t

val create :
  ?platform_config:Platform.config ->
  ?cell_endurance:float ->
  ?seed:int ->
  ?backend:Backend.profile ->
  id:int ->
  unit ->
  t
(** Fresh device of class [backend] (default {!Backend.pcm}, the
    paper's analog crossbar). The profile reshapes [platform_config]
    (class latencies; digital tiles are noise-immune) before the
    emulated machine is built; host-class devices build none.
    [cell_endurance] (default: the profile's) parameterises the Eq. 1
    budget model. [seed] (default [id]) selects the device's
    reproducible PRNG stream — distinct per pooled device out of the
    box. Dual-mode devices start in [Memory_mode]. *)

val id : t -> int

val profile : t -> Backend.profile
val device_class : t -> Backend.device_class

val platform : t -> Platform.t
(** The emulated machine. Raises [Invalid_argument] on a host-class
    device, which has none. *)

val available_ps : t -> int
(** Virtual time at which the device is free; maintained by the
    scheduler via {!set_available_ps}. *)

val set_available_ps : t -> int -> unit

val requests_served : t -> int

val is_quarantined : t -> bool
(** Pulled from dispatch after repeated detected corruptions. *)

val quarantine : t -> rows:int * int -> unit
(** Take the device out of rotation and mark the
    [(row_off, nrows)] region's current physical lines dead in its
    Start-Gap remapper, so any residual traffic is routed away from the
    faulty rows. *)

val write_pressure : t -> int
(** Matrix bytes written to this device's crossbars so far — the O(1)
    {!Tdo_pcm.Endurance.Tracker} counter the scheduler breaks placement
    ties with. (The full {!wear} snapshot walks every cell and is for
    end-of-run reporting, not the dispatch hot path.) *)

val energy_j : t -> float
(** Lifetime energy this device has consumed, priced per run against
    its profile's energy table. *)

val mode : t -> Backend.mode
(** Current dual-mode role; non-dual devices are always
    [Compute_mode]. *)

val convert : ?at_ps:int -> t -> to_compute:bool -> float
(** Flip a dual-mode device's role and count the conversion. The
    scheduler charges the profile's conversion latency and emits the
    telemetry event. Any pinned-weight residency is dropped — the role
    switch rebuilds the tile's peripheral state. When [at_ps] is given,
    the drafted interval is tracked: a revert returns the memory-role
    bytes the tile displaced while in the compute role (priced at the
    profile's [memory_bw_bytes_per_us]); a draft returns [0.]. *)

val conversions : t -> int * int
(** [(to_compute, to_memory)] lifetime conversion counts. *)

val resident : t -> string option
(** Residency key of the graph program whose weight tiles are still
    pinned from the previous run, [None] when the latches are invalid.
    Set by {!run} on clean completion, dropped by {!convert},
    {!quarantine}, {!clear_resident} and any non-matching run. *)

val clear_resident : t -> unit
(** Invalidate the residency claim (the scheduler calls this when the
    backing cache entry is evicted). The engine latches themselves are
    invalidated lazily by the next {!run}. *)

val displaced_mem_bytes : t -> float
(** Lifetime memory-role traffic this dual tile gave up while drafted
    for compute; [0.] for non-dual profiles. *)

val finalize_displacement : t -> at_ps:int -> float
(** Charge any still-open drafted interval up to [at_ps] (end of
    replay) and return the newly charged bytes; idempotent per
    instant. *)

val run :
  ?residency:string -> t -> Flow.compiled -> args:(string * Interp.value) list -> exec_stats
(** Execute one compiled request on this CIM device, mutating [Varray]
    arguments with the results. [residency] names the (model, tenant)
    program this run replays: when it matches the device's current
    {!resident} key the pinned-operand latches are kept — the run
    re-derives identical (address, generation) pin keys and would
    re-program identical model-seeded weight bytes, so programming is
    skipped with bit-identical results ([exec_stats.write_bytes] = 0).
    Any other run (no key, different key) invalidates the latches
    first, exactly as before. On clean completion the key (if any) is
    latched for the next run. The counters behind [exec_stats] are read
    as deltas, field by field: a run builds no counter snapshot. Raises
    {!Tdo_ir.Exec.Exec_error} on a device rejection; the device stays
    usable. Raises
    [Invalid_argument] on a host-class device — use {!run_host}. *)

val run_host :
  t -> ast:Ast.func -> args:(string * Interp.value) list -> macs:int -> exec_stats
(** Execute one request on a host-class device: the reference
    interpreter runs [ast], service time is the profile's
    [cpu_ps_per_mac] x [macs], and energy is priced at the Table I host
    instruction rate. Interpreter failures surface as
    {!Tdo_ir.Exec.Exec_error}. *)

val wear : t -> wear
(** Read-only wear snapshot. Zero cell counters for classes that do not
    wear (digital SRAM, host). *)
