(** Offload-oriented lint rules — the advisory layer of the analysis
    library. Nothing here rejects a program; every rule encodes a
    performance or endurance argument from the paper:

    - {b W001} low compute intensity: a matched accumulation kernel
      whose MACs-per-pinned-cell ratio falls below the selective-offload
      threshold (GEMV-class kernels such as gesummv/bicg/mvt, which the
      paper's evaluation keeps on the CPU).
    - {b W002} crossbar overflow with tiling disabled: the operand that
      would be pinned does not fit the crossbar, so the kernel cannot be
      offloaded at all.
    - {b W003} endurance-budget exhaustion: projected system lifetime
      under Eq. 1 for the region's crossbar programming traffic, at
      1e7 writes per cell and one region execution per second, falls
      below one year.
    - {b W004}/{b W005} dead stores / unused arrays: local arrays
      written but never read, and arrays never referenced.
    - {b W006} unguarded offload on a faulty device: the target device
      has a nonzero fault rate but the ABFT checksum guard is off, so a
      stuck cell corrupts results silently.
    - {b W007} tile footprint exceeds the physical crossbar: the
      compile configuration's geometry (e.g. a tuned one) produces
      tiles larger than the device's array, so every launch is re-tiled
      by the runtime library instead of mapping 1:1.
    - {b W008} redundant crossbar re-program (missed pin): a kernel
      re-programs an operand window that an earlier kernel already
      programmed and that nothing overwrote in between — an unrelated
      pin evicted it. Replays the engine's generation-keyed single-slot
      reuse check, the same model {!Tdo_tactics.Offload.plan} prices,
      so a W008 program shows strictly larger
      {!Tdo_tune.Cost_model.predict_write_bytes} than its reordered
      variant.
    - {b W009} stale host read: a host statement (or the caller, at
      function exit) reads an array whose freshest value a device
      kernel produced, with no [cim_d2h] copy-back in between. At
      source level this is an event-order walk; over explicit runtime
      calls it is the {!Dataflow.reaching_definitions} device-placement
      analysis.
    - {b W010} loop-invariant offload: an offloadable kernel (or an
      explicit [cim_gemm]) sits under a loop iterator that appears in
      none of its subscripts/operand windows — every iteration
      re-launches the identical kernel.
    - {b N001} why SCoP detection failed, translating the detector's
      obstruction into an actionable note ([--explain-no-offload]).
    - {b N002} SCoP detected but nothing looked offloadable. *)

type config = {
  xbar_rows : int;
  xbar_cols : int;
  enable_tiling : bool;
  min_intensity : float;  (** W001 threshold, MACs per pinned cell *)
  fault_rate : float;  (** W006: expected device fault rate, 0 = pristine *)
  abft_guard : bool;  (** W006: is the checksum guard enabled? *)
  device_rows : int option;
  device_cols : int option;
      (** W007: the physical crossbar geometry when it differs from the
          compile configuration's [xbar_rows]/[xbar_cols]; [None] means
          they agree and W007 cannot fire *)
}

val default_config : config
(** 256x256 crossbar, tiling on, intensity threshold 4.0, fault rate 0
    with the ABFT guard off, device geometry equal to the compile
    geometry. *)

val offload_ir : Tdo_ir.Ir.func -> Diag.t list
(** IR-mode rules over explicit runtime calls (compiled or hand-written
    offload code): W009 via reaching definitions with host/device
    placement, W008/W010 by replaying the engine's pin-reuse discipline
    over [cim_gemm] launches (loop bodies containing calls are walked
    twice so loop-carried evictions are observed; duplicates merged). *)

val run : ?config:config -> Tdo_ir.Ir.func -> Diag.t list
(** The whole lint pass: the dead-store and unused-array rules (W004,
    W005) over the function; {!offload_ir} when it already makes
    runtime calls; then SCoP detection, feeding either the
    profitability, overflow and endurance rules (W001-W003, W010) over
    the accumulation kernels of the detected SCoP plus the
    cross-kernel pinning/coherence replay (W008, W009) over its
    top-level events (and an N002 note when the SCoP has no
    kernel-shaped accumulation), or, when detection fails, N001 notes
    explaining the obstruction. *)
