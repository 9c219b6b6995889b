(** The end-to-end TDO-CIM compilation flow (paper Fig. 4): mini-C
    front end -> IR -> Polly-style SCoP detection -> Loop Tactics
    matching, fusion, tiling and offload -> IR with runtime calls ->
    timed execution on the emulated full system.

    [o3] corresponds to the paper's host compile string
    ["clang -O3 -march-native"], [o3_loop_tactics] to
    ["clang -O3 -march-native -enable-loop-tactics"]. *)

module Ir = Tdo_ir.Ir
module Interp = Tdo_lang.Interp
module Platform = Tdo_runtime.Platform
module Offload = Tdo_tactics.Offload
module Ledger = Tdo_energy.Ledger

module Pipeline = Tdo_tactics.Pipeline
module Diag = Tdo_analysis.Diag

type options = { enable_loop_tactics : bool; tactics : Offload.config }

val o3 : options
val o3_loop_tactics : options

exception Verification_failure of Diag.t list
(** Raised by {!compile} with [~verify:true] when the analysis layer
    found errors. *)

type compiled = {
  func : Ir.func;
  program : Tdo_ir.Exec.program;
      (** [func] prepared for execution ({!Tdo_ir.Exec.prepare}), built
          once here so every run of this compile — each request served
          from one kernel-cache entry — skips the closure compilation.
          A [func] the executor rejects still compiles; each run of it
          raises the executor's error. *)
  outcome : Pipeline.outcome option;  (** [None] when loop tactics were disabled *)
  diagnostics : Diag.t list;
}

val compile_checked :
  ?options:options ->
  ?resolve_config:(Tdo_lang.Ast.func -> Offload.config option) ->
  ?verify:bool ->
  Tdo_lang.Ast.func ->
  compiled
(** Like {!compile}, but from a parsed function, and surfacing the
    pipeline outcome and every diagnostic instead of raising. Lowering
    type-checks the function first. With tactics disabled and
    [~verify:true] the input IR is still verified.

    [resolve_config] is consulted before lowering and may replace
    [options.tactics] for this kernel — the hook the autotuning
    database ({!Tdo_tune.Db}) hangs per-kernel configurations off
    without this layer depending on the tuner. *)

val compile :
  ?options:options ->
  ?resolve_config:(Tdo_lang.Ast.func -> Offload.config option) ->
  ?verify:bool ->
  string ->
  Ir.func * Offload.report option
(** Parse, type-check, lower and (optionally) run the tactics
    pipeline on a single-function translation unit. Raises the
    front-end exceptions on malformed source, and
    {!Verification_failure} when [~verify:true] (default off) and
    verification rejects the compile. *)

type measurement = {
  roi_instructions : int;
  roi_cycles : int;
  time_s : float;  (** ROI wall-clock in simulated seconds *)
  energy : Ledger.breakdown;
  energy_j : float;
  edp_js : float;
  used_cim : bool;
  launches : int;
  cim_macs : int;
  cim_write_bytes : int;
  macs_per_cim_write : float;  (** 0 when nothing was offloaded *)
}

val run :
  ?platform_config:Platform.config ->
  Ir.func ->
  args:(string * Interp.value) list ->
  measurement * Platform.t
(** Execute on a fresh platform; [Varray] arguments are mutated with
    the results.

    Each call resets the calling domain's scratch arena
    ({!Tdo_util.Pool.scratch}) and backs the platform's memory chunks,
    crossbar planes, engine buffers and executor slot tables with it,
    so repeated runs on one domain reuse the same blocks. Consequently
    the returned platform's {e counters} remain valid indefinitely, but
    its memory {e contents} are only safe to read until the next [run]
    on the same domain — or, for a run inside a
    {!Tdo_util.Pool.parallel_map} worker, until the map's next fan-out
    (worker arenas circulate through a shared registry). Set
    [TDO_ARENA=0] to disable the reuse (fresh allocations, the
    pre-arena behaviour); the variable is re-read on every call. *)

val run_source :
  ?options:options ->
  ?resolve_config:(Tdo_lang.Ast.func -> Offload.config option) ->
  ?platform_config:Platform.config ->
  string ->
  args:(string * Interp.value) list ->
  measurement * Platform.t
(** [compile] followed by [run]. *)
