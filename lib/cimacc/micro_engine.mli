(** Micro-engine of the CIM accelerator (Section II-C).

    Translates a {!Context_regs.job} into circuit-level operations:
    fetching operands from shared memory over DMA, quantising and
    programming the crossbar, decomposing GEMM into a series of GEMVs,
    running the digital epilogue, and storing results back. Supports
    double buffering (fetch of the next streamed vector overlaps the
    current compute/store) and pinned-operand reuse (a job whose pinned
    operand is already programmed skips the crossbar writes — the
    mechanism behind the paper's endurance-oriented fusion and
    tiling).

    The stream of GEMVs runs in blocks of consecutive vectors. For each
    block a functional pass reads the block's operand vectors and old C
    slices, quantises each vector, runs every GEMV in one
    {!Tdo_pcm.Crossbar.gemv_block} call, verifies and finishes each
    vector, and writes the block's C slices; then a timing recurrence
    walks the block's vectors, rebuilding the DMA fill and compute
    channels, bursts and event log from latencies that are the same for
    every vector of the launch. A launch is one block when C's window
    is disjoint from the streamed operand's, C's slices are disjoint
    from each other ([ldc >= n]) and both windows lie in memory; any
    other launch runs one vector per block, in the order of one vector
    at a time. Either way memory, times, counters and events come out
    as the vector-at-a-time stream would leave them. *)

module Sim = Tdo_sim

type config = {
  xbar : Tdo_pcm.Crossbar.config;
  tiles : int;
      (** CIM tiles in the accelerator (paper default: 1; Eq. 1's
          512 KB capacity corresponds to 8 tiles of 64 KB). Batched
          jobs whose entries pin different operands run on different
          tiles in parallel, and each tile retains its own pinned
          operand across jobs. *)
  decode_latency_ps : Sim.Time_base.ps;  (** context-register decode *)
  compute_latency_ps : Sim.Time_base.ps;
      (** full-array analog GEMV (all wordlines active); Table I: 1 us.
          A GEMV over fewer active rows integrates proportionally
          faster, down to [min_compute_latency_ps]. *)
  min_compute_latency_ps : Sim.Time_base.ps;  (** engine cycle floor per GEMV *)
  write_latency_per_row_ps : Sim.Time_base.ps;
      (** crossbar programming, row-parallel; Table I: 2.5 us per row *)
  alu_latency_ps : Sim.Time_base.ps;  (** per digital epilogue element *)
  double_buffering : bool;
  abft : bool;
      (** verify every GEMV pass against Huang–Abraham row checksums
          retained from programming time ({!Tdo_linalg.Abft}); costs
          [(k + out_len) * alu_latency_ps] per pass and feeds the
          [abft_checks] / [abft_mismatches] counters *)
}

val default_config : config

type t

val create : ?config:config -> ?seed:int -> dma:Sim.Dma.t -> unit -> t
(** [seed] derives a distinct, reproducible PRNG stream per crossbar
    tile (defaults to 0, matching the previous behaviour). *)

val run_job : t -> Context_regs.job -> start:Sim.Time_base.ps -> (Sim.Time_base.ps, string) result
(** Execute the job. Functional effects (result stores) happen
    immediately; the returned value is the simulated completion time.
    [Error] reports a rejected job (e.g. operands exceeding the
    crossbar) without side effects on memory. A window outside memory
    raises [Invalid_argument] from {!Sim.Memory} after the vectors
    before it have been stored, as a vector-at-a-time stream would.
    The engine's buffers grow to the largest block seen and are
    reused, so a launch allocates nothing per vector. *)

val run_job_per_vector :
  t -> Context_regs.job -> start:Sim.Time_base.ps -> (Sim.Time_base.ps, string) result
(** {!run_job} with every streamed vector its own block, the order an
    aliased or failing launch runs in: the reference the blocking
    property compares {!run_job} with. *)

val im2col :
  t ->
  src:int ->
  src_ld:int ->
  dst:int ->
  dst_ld:int ->
  kh:int ->
  kw:int ->
  oh:int ->
  ow:int ->
  unit
(** The data movement of the device's patch gather
    ([polly_cimIm2col]): row [i * ow + j] of the [(oh * ow) x (kh * kw)]
    patch matrix at physical address [dst] (leading dimension [dst_ld])
    becomes the [kh x kw] window at [(i, j)] of the f32 matrix at [src]
    (leading dimension [src_ld]):
    [dst(i*ow+j, p*kw+q) = src(i+p, j+q)]. The source window is one bulk
    read and the patch matrix one bulk write (one per patch row when
    [dst_ld > kh * kw]), staged in the engine's launch buffers, so a
    gather allocates nothing once they have grown. The caller checks
    the geometry and that the two ranges are disjoint, and charges the
    DMA time. *)

type counters = {
  jobs : int;
  gemv_jobs : int;
  gemm_jobs : int;
  batched_jobs : int;
  streamed_vectors : int;
  programming_skipped : int;  (** jobs that reused the pinned operand *)
  busy_ps : Sim.Time_base.ps;  (** total engine-occupied time *)
  abft_checks : int;  (** GEMV passes verified (when [config.abft]) *)
  abft_mismatches : int;  (** checksum failures detected *)
}

val counters : t -> counters

val abft_checks : t -> int

val abft_mismatches : t -> int
(** These two are fields of {!counters}, read without building the
    record. *)

val last_abft_fault : t -> (int * (int * int * int * int)) option
(** [(tile, (row_off, col_off, rows, cols))] of the most recent
    checksum mismatch — the localisation handed to recovery policies.
    Stays until {!clear_abft_fault}. *)

val clear_abft_fault : t -> unit

val crossbar : t -> Tdo_pcm.Crossbar.t
(** Tile 0 (the only tile in the default configuration). *)

val crossbars : t -> Tdo_pcm.Crossbar.t array
(** All tiles. *)

val total_crossbar_counters : t -> Tdo_pcm.Crossbar.counters
(** Counters summed over every tile. *)

val sum_tiles : t -> (Tdo_pcm.Crossbar.t -> int) -> int
(** [f] summed over every tile: with {!Tdo_pcm.Crossbar.write_bytes}
    and its kin, a field of {!total_crossbar_counters} read without
    building a record. *)

val total_adc_conversions : t -> int

val digital : t -> Digital_logic.t

val record_timeline : t -> Timeline.t
(** Attach a fresh event log and return it: every phase of every later
    job is recorded into it (paper Fig. 2(d)). A second call replaces
    the log. An engine with no log attached, as {!create} leaves it,
    records nothing and builds no event. *)

val invalidate_pinned : t -> unit
(** Forget the pinned operand (e.g. after the host rewrites its
    buffer). *)
