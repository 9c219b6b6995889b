module Ir = Tdo_ir.Ir
module Interp = Tdo_lang.Interp
module Platform = Tdo_runtime.Platform
module Offload = Tdo_tactics.Offload
module Ledger = Tdo_energy.Ledger

module Pipeline = Tdo_tactics.Pipeline
module Diag = Tdo_analysis.Diag

type options = { enable_loop_tactics : bool; tactics : Offload.config }

let o3 = { enable_loop_tactics = false; tactics = Offload.default_config }
let o3_loop_tactics = { enable_loop_tactics = true; tactics = Offload.default_config }

exception Verification_failure of Diag.t list

type compiled = {
  func : Ir.func;
  program : Tdo_ir.Exec.program;
  outcome : Pipeline.outcome option;
  diagnostics : Diag.t list;
}

(* Lower and offload a parsed function: the compiled function, the
   pipeline outcome and the diagnostics. *)
let lower_and_offload ?(options = o3_loop_tactics) ?resolve_config ~verify ast =
  let options =
    match Option.bind resolve_config (fun resolve -> resolve ast) with
    | Some tactics -> { options with tactics }
    | None -> options
  in
  let f = Tdo_ir.Lower.func ast in
  if options.enable_loop_tactics then
    let checked = Pipeline.run_checked ~config:options.tactics ~verify f in
    (checked.Pipeline.func, Some checked.Pipeline.outcome, checked.Pipeline.diagnostics)
  else
    let diagnostics = if verify then Tdo_analysis.Verify.func f @ Tdo_analysis.Bounds.func f else [] in
    (f, None, diagnostics)

let compile_checked ?options ?resolve_config ?(verify = false) ast =
  let func, outcome, diagnostics = lower_and_offload ?options ?resolve_config ~verify ast in
  { func; program = Tdo_ir.Exec.prepare func; outcome; diagnostics }

(* [run] prepares its function itself, so this skips [prepare]. *)
let compile ?options ?resolve_config ?(verify = false) source =
  let func, outcome, diagnostics =
    lower_and_offload ?options ?resolve_config ~verify (Tdo_lang.Parser.parse_func source)
  in
  if verify && Diag.has_errors diagnostics then
    raise (Verification_failure (Diag.errors diagnostics));
  let report =
    match outcome with Some (Pipeline.Offloaded r) -> Some r | Some _ | None -> None
  in
  (func, report)

type measurement = {
  roi_instructions : int;
  roi_cycles : int;
  time_s : float;
  energy : Ledger.breakdown;
  energy_j : float;
  edp_js : float;
  used_cim : bool;
  launches : int;
  cim_macs : int;
  cim_write_bytes : int;
  macs_per_cim_write : float;
}

(* Scratch-arena lifecycle: each [run] resets the calling domain's
   arena and hands it to the per-run platform and executor, so repeated
   runs on one domain (sweeps, [Pool.parallel_map] workers) recycle the
   same memory chunks, engine buffers and slot tables instead of
   re-allocating them. The reset happens at the START of the run — the
   returned platform's counters stay readable afterwards, but blocks
   handed out during a run (memory contents included) are recycled by
   the next [run] on the same domain. [TDO_ARENA=0] disables the arena
   (re-read per run, so tests can flip it). *)
let arena_enabled () = Sys.getenv_opt "TDO_ARENA" <> Some "0"

let run ?(platform_config = Platform.default_config) f ~args =
  let scratch =
    if arena_enabled () then begin
      let a = Tdo_util.Pool.scratch () in
      Tdo_util.Arena.reset a;
      Some a
    end
    else None
  in
  let platform = Platform.create ~config:platform_config ?scratch () in
  let metrics = Tdo_ir.Exec.run ?scratch f ~platform ~args in
  let energy =
    Ledger.collect platform ~host_instructions:metrics.Tdo_ir.Exec.roi_instructions
  in
  let energy_j = Ledger.total_j energy in
  let time_s = Tdo_sim.Time_base.seconds_of_ps metrics.Tdo_ir.Exec.roi_time_ps in
  let xbar =
    Tdo_cimacc.Micro_engine.total_crossbar_counters
      (Tdo_cimacc.Accel.engine platform.Platform.accel)
  in
  let macs = xbar.Tdo_pcm.Crossbar.macs in
  let writes = xbar.Tdo_pcm.Crossbar.write_bytes in
  ( {
      roi_instructions = metrics.Tdo_ir.Exec.roi_instructions;
      roi_cycles = metrics.Tdo_ir.Exec.roi_cycles;
      time_s;
      energy;
      energy_j;
      edp_js = Ledger.edp ~energy_j ~time_s;
      used_cim = metrics.Tdo_ir.Exec.used_cim;
      launches = metrics.Tdo_ir.Exec.cim_launches;
      cim_macs = macs;
      cim_write_bytes = writes;
      macs_per_cim_write =
        (if writes = 0 then 0.0 else float_of_int macs /. float_of_int writes);
    },
    platform )

let run_source ?options ?resolve_config ?platform_config source ~args =
  let f, _report = compile ?options ?resolve_config source in
  run ?platform_config f ~args
