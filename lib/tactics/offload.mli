(** The TDO-CIM offload pass.

    Walks the top-level sequence of a schedule tree, classifies each
    subtree with the {!Patterns} detectors, and rewrites offloadable
    kernels into runtime-library calls, applying the paper's two
    endurance-oriented transformations:

    - {b Revisited loop fusion} (Section III-B, Listing 2): adjacent,
      independent kernels with the same access pattern become one
      [polly_cimBlasGemmBatched] call, and a shared input picks the
      crossbar-pinned operand so it is written once ("smart mapping").
    - {b Revisited tiling} (Section III-B, Listing 3): a GEMM whose
      operands exceed the crossbar is decomposed into crossbar-sized
      tiles with the k-loop peeled so every tile of the pinned operand
      is programmed exactly once; the streamed dimension needs no
      tiling because the micro-engine streams it through the row
      buffers.

    Data movement ([polly_cimMalloc/HostToDev/DevToHost/Free]) is
    placed by a host/device validity analysis so host code between
    kernels always reads fresh data, and every device-written array is
    copied back before the region ends (Listing 1's shape). *)

module St = Tdo_poly.Schedule_tree

type config = {
  xbar_rows : int;
  xbar_cols : int;
  enable_fusion : bool;
  enable_tiling : bool;
  naive_pin : bool;
      (** ablation: always stream the shared operand (Fig. 5's "naive
          mapping") instead of pinning it *)
  min_intensity : float option;
      (** selective offload: skip kernels whose estimated
          MACs-per-crossbar-write falls below this threshold *)
}

val default_config : config
(** 256x256 crossbar, fusion and tiling on, smart pinning, offload
    everything. *)

type report = {
  kernels_detected : int;
  kernels_offloaded : int;
  fused_groups : int;  (** batched calls emitted *)
  tiled_kernels : int;
  skipped_low_intensity : int;
}

val apply :
  ?on_rewrite:(string -> before:St.t -> after:St.t -> unit) ->
  shapes:(string * int list) list ->
  config ->
  St.t ->
  St.t * report
(** Rewrite the tree. When nothing matches (or everything is skipped)
    the tree is returned unchanged up to structure. [shapes] gives each
    array's dimensions: a kernel whose beta is the literal 0 skips
    copying its output to the device only when its m x n box covers
    the whole output array, since the output is copied back whole; an
    array missing from [shapes] counts as not covered. [on_rewrite] is
    invoked once per intermediate schedule-tree rewrite the pass
    commits to (currently: the loop interchange that made a kernel
    match), with a pass name and the subtree before/after — the hook
    translation validation hangs off ([--verify-each]).

    With [min_intensity] set, the skip decision is taken {e per fused
    group}: the MACs of every member are pooled and the pinned operand
    counts once when shared, so a batch can clear a threshold its
    members would individually miss. With fusion disabled each kernel
    is its own group and is judged alone. *)

(** {1 Analytic execution plan}

    A static census of the work a compiled function will put on the
    device and leave on the host — the feature vector behind the
    autotuner's cost model ({!Tdo_tune.Cost_model}). Computed by
    walking the IR, multiplying through constant trip counts and
    emulating the micro-engine's pinned-operand reuse: a launch whose
    pinned operand matches the previous one (same reference, no
    intervening host write or [h2d]) programs no crossbar rows. *)

type plan = {
  launches : int;  (** device triggers, including library-side tiling *)
  rows_programmed : int;  (** crossbar wordlines written (2.5 us each) *)
  cells_programmed : int;
      (** logical 8-bit operands written — the crossbar's [write_bytes]
          counter, i.e. the endurance-relevant write pressure *)
  gemv_passes : int;  (** analog GEMV operations issued *)
  gemv_row_passes : int;  (** active wordlines summed over passes *)
  device_macs : int;  (** MACs computed in the crossbar *)
  dma_bytes : int;  (** [h2d] + [d2h] traffic, 4 bytes per element *)
  host_ops : int;  (** expression nodes evaluated by host statements *)
}

val plan : config -> Tdo_ir.Ir.func -> plan
(** Census of [func] as compiled — i.e. run the pipeline first and
    plan its output. Loops with non-constant bounds count as one
    iteration (none are produced by this compiler). *)
