module Prng = Tdo_util.Prng
module Time_base = Tdo_sim.Time_base
module Platform = Tdo_runtime.Platform
module Cimacc = Tdo_cimacc
module Kernels = Tdo_polybench.Kernels
module Interp = Tdo_lang.Interp
module Trace = Tdo_serve.Trace
module Telemetry = Tdo_serve.Telemetry
module Scheduler = Tdo_serve.Scheduler

type config = {
  kernels : (string * int) list;
  requests : int;
  mean_gap_us : float;
  devices : int;
  seed : int;
  spec : Inject.spec;
  abft : bool;
  recovery : Scheduler.recovery;
}

let default_config =
  {
    kernels = [ ("gemm", 16); ("gesummv", 16); ("mvt", 16) ];
    requests = 60;
    mean_gap_us = 60.0;
    devices = 2;
    seed = 11;
    spec = Inject.default_spec;
    abft = true;
    recovery = Scheduler.default_recovery;
  }

type metrics = {
  counts : Telemetry.counts;
  injected_faults : int;
  faulty_devices : int;
  sdc : int;
  quarantined : int list;
  detection_rate : float;
  sdc_rate : float;
  latency_overhead : float;
  makespan_overhead : float;
}

type run = {
  config : config;
  trace : Trace.t;
  faulty : Scheduler.report;
  baseline : Scheduler.report;
  metrics : metrics;
}

(* Uniform mix over the configured (kernel, n) pairs with exponential
   inter-arrivals — same shape as {!Trace.synthetic}, but over the
   campaign's kernel set. *)
let trace_of config =
  if config.kernels = [] then invalid_arg "Campaign: no kernels configured";
  if config.requests <= 0 then invalid_arg "Campaign: need at least one request";
  let g = Prng.create ~seed:config.seed in
  let mix = Array.of_list config.kernels in
  let clock = ref 0 in
  let requests = ref [] in
  for id = 0 to config.requests - 1 do
    let kernel, n = mix.(Prng.int g ~bound:(Array.length mix)) in
    let u = Prng.float g ~bound:1.0 in
    let gap_us = config.mean_gap_us *. -.Float.log (1.0 -. u) in
    clock := !clock + int_of_float (gap_us *. float_of_int Time_base.ps_per_us);
    requests :=
      {
        Trace.id;
        kernel;
        n;
        seed = 1000 + id;
        arrival_ps = !clock;
        deadline_ps = None;
        tenant = 0;
        slo = Trace.Interactive;
      }
      :: !requests
  done;
  { Trace.name = "reliab-campaign"; seed = config.seed; requests = List.rev !requests }

let scheduler_config config ~faults =
  let pc = Platform.default_config in
  let engine = { pc.Platform.engine with Cimacc.Micro_engine.abft = config.abft } in
  {
    Scheduler.default_config with
    Scheduler.devices = config.devices;
    platform_config = { pc with Platform.engine };
    recovery = config.recovery;
    device_seed = config.seed;
    on_device_create = (if faults then Some (Inject.hook config.spec) else None);
  }

(* Host-interpreter oracle for one request — exact by construction. *)
let interp_checksum (r : Trace.request) =
  match Kernels.find r.Trace.kernel with
  | Error _ -> None
  | Ok bench ->
      let ast = Tdo_lang.Parser.parse_func (bench.Kernels.source ~n:r.Trace.n) in
      Tdo_lang.Typecheck.check_func ast;
      let args, readback = bench.Kernels.make_args ~n:r.Trace.n ~seed:r.Trace.seed in
      Interp.run ast ~args;
      Some (Scheduler.output_checksum (readback ()))

(* Silent corruptions: a served result that differs from its oracle.
   Device-served requests compare against the fault-free pool replay
   (offloaded results are deterministic across identical devices);
   host-served requests compare against a direct interpreter run. *)
let count_sdc ~(faulty : Scheduler.report) ~(baseline : Scheduler.report) =
  let device_sdc = (Scheduler.divergence faulty baseline).Scheduler.divergent in
  let host_sdc =
    List.fold_left
      (fun acc (r : Telemetry.record) ->
        match (r.Telemetry.outcome, r.Telemetry.checksum) with
        | (Telemetry.Recovered_host | Telemetry.Cpu_fallback), Some cs -> (
            match interp_checksum r.Telemetry.request with
            | Some cs' when cs' <> cs -> acc + 1
            | Some _ | None -> acc)
        | _ -> acc)
      0
      (Telemetry.records faulty.Scheduler.telemetry)
  in
  device_sdc + host_sdc

let run ?(config = default_config) () =
  let trace = trace_of config in
  let faulty = Scheduler.replay ~config:(scheduler_config config ~faults:true) trace in
  let baseline = Scheduler.replay ~config:(scheduler_config config ~faults:false) trace in
  let injected = ref 0 and faulty_devices = ref 0 in
  for id = 0 to config.devices - 1 do
    let fs = Inject.sample config.spec ~device_id:id in
    injected := !injected + List.length fs;
    if fs <> [] then incr faulty_devices
  done;
  let s = Telemetry.summary faulty.Scheduler.telemetry in
  let detected = s.Telemetry.detected_corruptions in
  let sdc = count_sdc ~faulty ~baseline in
  let served = s.Telemetry.completed + s.Telemetry.cpu_fallbacks + s.Telemetry.recovered_host in
  let ratio a b = match (a, b) with Some a, Some b when b > 0.0 -> a /. b | _ -> 1.0 in
  let metrics =
    {
      counts = s;
      injected_faults = !injected;
      faulty_devices = !faulty_devices;
      sdc;
      quarantined = faulty.Scheduler.quarantined;
      detection_rate =
        (if detected + sdc = 0 then 1.0
         else float_of_int detected /. float_of_int (detected + sdc));
      sdc_rate = (if served = 0 then 0.0 else float_of_int sdc /. float_of_int served);
      latency_overhead =
        ratio
          (Telemetry.mean_latency_us faulty.Scheduler.telemetry)
          (Telemetry.mean_latency_us baseline.Scheduler.telemetry);
      makespan_overhead =
        (if baseline.Scheduler.makespan_ps > 0 then
           float_of_int faulty.Scheduler.makespan_ps
           /. float_of_int baseline.Scheduler.makespan_ps
         else 1.0);
    }
  in
  { config; trace; faulty; baseline; metrics }
