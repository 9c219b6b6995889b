(* tdo-serve: the serving-layer driver, in three modes.

   Replay (default): drive a synthetic workload trace through the
   multi-tenant CIM offload service (kernel cache + heterogeneous
   device fleet + batching scheduler) in virtual time and report
   request telemetry as BENCH_serve.json.

   Load (--load): generate open-loop multi-tenant arrival streams
   (Poisson sustained, Poisson overload, bursty MMPP recovery) with
   tdo_loadgen, push them through the same scheduler under an
   admission policy (per-tenant token buckets + SLO-class load
   shedding) with live windowed telemetry, and write one report
   section per arrival pattern next to the classic fleet-replay
   sections.

   Frontend (--listen / --socket PATH): serve live requests in wall
   clock over stdin/stdout or a Unix socket, speaking the line/JSON
   protocol documented in Serve.Frontend, through the same scheduler
   core (and so the same scheduling flags) as replay.

   The pool is a mixed fleet when --fleet is given (e.g.
   "pcm:2,digital:2,dual:2"): analog PCM crossbars, digital SRAM CIM
   tiles, the host BLAS path and dual-mode tiles that serve as plain
   memory until queue pressure drafts them. Placement is cost-based
   per class, and --calibrate refits the per-class cost coefficients
   online from measured service cycles.

   By default every replay is followed by its golden runs — the same
   trace on one always-compute device per compute class present in the
   fleet, unbatched, forced sequential — and the per-request output
   checksums are compared within each class; any divergence is a bug in
   the serving layer and fails the invocation. *)

open Cmdliner
module Serve = Tdo_serve
module Scheduler = Tdo_serve.Scheduler
module Telemetry = Tdo_serve.Telemetry
module Trace = Tdo_serve.Trace
module Device = Tdo_serve.Device
module Admission = Tdo_serve.Admission
module Frontend = Tdo_serve.Frontend
module Arrival = Tdo_loadgen.Arrival
module Workload = Tdo_loadgen.Workload
module Codec = Tdo_loadgen.Codec
module Graph = Tdo_graph.Graph
module Backend = Tdo_backend.Backend
module Platform = Tdo_runtime.Platform
module Micro_engine = Tdo_cimacc.Micro_engine
module Report = Tdo_util.Bench_report
module Time_base = Tdo_sim.Time_base

let us_of_ps ps = float_of_int ps /. float_of_int Time_base.ps_per_us

let summarise label (r : Scheduler.report) =
  let t = r.Scheduler.telemetry in
  let pct p = match Telemetry.latency_percentile t ~p with Some v -> v | None -> 0.0 in
  Printf.printf "%s: %d requests over %s\n" label
    (List.length r.Scheduler.trace.Trace.requests)
    r.Scheduler.trace.Trace.name;
  let s = Telemetry.summary t in
  Printf.printf
    "  completed %d (%d after retry, %d tuned), recovered-host %d, cpu-fallback %d, \
     rejected %d, failed %d | cache hit rate %.1f%% (%d compiles)\n"
    (Scheduler.completed r) s.Telemetry.completed_after_retry s.Telemetry.served_tuned
    s.Telemetry.recovered_host
    (Scheduler.fallbacks r) (Scheduler.rejections r) (Scheduler.failures r)
    (100.0 *. Scheduler.cache_hit_rate r)
    r.Scheduler.cache.Serve.Kernel_cache.misses;
  if s.Telemetry.shed_rate_limited + s.Telemetry.shed_load > 0 then
    Printf.printf "  admission: shed %d rate-limited, %d load-shed\n"
      s.Telemetry.shed_rate_limited s.Telemetry.shed_load;
  if s.Telemetry.detected_corruptions > 0 then
    Printf.printf "  abft: %d corrupt offloads detected, %d devices quarantined\n"
      s.Telemetry.detected_corruptions
      (List.length r.Scheduler.quarantined);
  if s.Telemetry.conversions_to_compute + s.Telemetry.conversions_to_memory > 0 then
    Printf.printf "  dual-mode: %d conversions to compute, %d back to memory\n"
      s.Telemetry.conversions_to_compute s.Telemetry.conversions_to_memory;
  Printf.printf "  latency us: p50 %.1f  p99 %.1f  mean %.1f | max queue depth %d\n"
    (pct 50.0) (pct 99.0)
    (match Telemetry.mean_latency_us t with Some v -> v | None -> 0.0)
    (Telemetry.max_queue_depth t);
  Printf.printf "  makespan %.2f ms (simulated), replay wall %.2f s\n"
    (us_of_ps r.Scheduler.makespan_ps /. 1000.0)
    r.Scheduler.wall_s;
  List.iter
    (fun (cls, samples, mre) ->
      Printf.printf "  calibrated %s cost model from %d samples (mre %.3f)\n" cls samples
        mre)
    r.Scheduler.calibrations;
  List.iter
    (fun (slo, (c : Telemetry.slo_counts)) ->
      if c.Telemetry.slo_requests > 0 then
        Printf.printf
          "  slo %-11s %d requests: served %d, shed %d, failed %d | p50 %.1f us p99 %.1f \
           us\n"
          (Trace.slo_name slo) c.Telemetry.slo_requests c.Telemetry.slo_served
          c.Telemetry.slo_shed c.Telemetry.slo_failed c.Telemetry.slo_p50_us
          c.Telemetry.slo_p99_us)
    (Telemetry.slo_summary t);
  List.iter
    (fun (profile, (c : Telemetry.class_counts)) ->
      Printf.printf
        "  class %-8s served %d, recovered %d, cpu-fallback %d, rejected %d, failed %d, \
         %d write bytes%s%s\n"
        profile c.Telemetry.served c.Telemetry.recovered c.Telemetry.fallbacks
        c.Telemetry.rejected c.Telemetry.failed c.Telemetry.class_write_bytes
        (if c.Telemetry.to_compute + c.Telemetry.to_memory > 0 then
           Printf.sprintf " | conversions %d/%d" c.Telemetry.to_compute c.Telemetry.to_memory
         else "")
        (if c.Telemetry.class_displaced_bytes > 0.0 then
           Printf.sprintf " | displaced mem %.0f B" c.Telemetry.class_displaced_bytes
         else ""))
    (Telemetry.class_summary t);
  List.iter
    (fun (d : Scheduler.device_report) ->
      let w = d.Scheduler.dev_wear in
      Printf.printf
        "  device %d (%s): %d reqs, %.2e J, %d cell writes (max/cell %d), levelled \
         max/line %d, %d remaps, budget %.2e\n"
        d.Scheduler.dev_id d.Scheduler.dev_profile d.Scheduler.dev_served
        d.Scheduler.dev_energy_j w.Device.total_cell_writes w.Device.max_per_cell
        w.Device.leveling.Tdo_pcm.Wear_leveling.max_per_cell
        w.Device.leveling.Tdo_pcm.Wear_leveling.remaps w.Device.budget_consumed)
    r.Scheduler.devices

let extras (r : Scheduler.report) ~golden_divergence =
  let t = r.Scheduler.telemetry in
  let pct p = match Telemetry.latency_percentile t ~p with Some v -> v | None -> 0.0 in
  let s = Telemetry.summary t in
  let base =
    [
      ("requests", float_of_int (List.length r.Scheduler.trace.Trace.requests));
      ("completed", float_of_int (Scheduler.completed r));
      ("cpu_fallbacks", float_of_int (Scheduler.fallbacks r));
      ("rejected_overloaded", float_of_int (Scheduler.rejections r));
      ("shed_rate_limited", float_of_int s.Telemetry.shed_rate_limited);
      ("shed_load", float_of_int s.Telemetry.shed_load);
      ("failed", float_of_int (Scheduler.failures r));
      ( "completed_after_retry",
        float_of_int (Telemetry.summary t).Telemetry.completed_after_retry );
      ("served_tuned", float_of_int (Telemetry.summary t).Telemetry.served_tuned);
      ("recovered_host", float_of_int (Scheduler.recovered r));
      ("detected_corruptions", float_of_int (Scheduler.detected_corruptions r));
      ("quarantined_devices", float_of_int (List.length r.Scheduler.quarantined));
      ("devices", float_of_int (List.length r.Scheduler.devices));
      ("conversions_to_compute", float_of_int s.Telemetry.conversions_to_compute);
      ("conversions_to_memory", float_of_int s.Telemetry.conversions_to_memory);
      ("cache_hits", float_of_int r.Scheduler.cache.Serve.Kernel_cache.hits);
      ("cache_misses", float_of_int r.Scheduler.cache.Serve.Kernel_cache.misses);
      ("cache_hit_rate", Scheduler.cache_hit_rate r);
      ( "distinct_kernels",
        float_of_int (List.length (Trace.distinct_kernels r.Scheduler.trace)) );
      ("latency_p50_us", pct 50.0);
      ("latency_p99_us", pct 99.0);
      ( "latency_mean_us",
        match Telemetry.mean_latency_us t with Some v -> v | None -> 0.0 );
      ("max_queue_depth", float_of_int (Telemetry.max_queue_depth t));
      ("makespan_ms", us_of_ps r.Scheduler.makespan_ps /. 1000.0);
    ]
  in
  (* per-class breakdown: served/latency/energy per device class, the
     mixed-fleet sections of BENCH_serve.json *)
  let per_class =
    List.concat_map
      (fun (profile, (c : Telemetry.class_counts)) ->
        let k fmt = Printf.sprintf ("class_%s_" ^^ fmt) profile in
        let energy =
          List.fold_left
            (fun acc (d : Scheduler.device_report) ->
              if d.Scheduler.dev_profile = profile then acc +. d.Scheduler.dev_energy_j
              else acc)
            0.0 r.Scheduler.devices
        in
        [
          (k "served", float_of_int c.Telemetry.served);
          (k "recovered", float_of_int c.Telemetry.recovered);
          (k "cpu_fallbacks", float_of_int c.Telemetry.fallbacks);
          (k "rejected", float_of_int c.Telemetry.rejected);
          (k "failed", float_of_int c.Telemetry.failed);
          (k "retries_against", float_of_int c.Telemetry.retries_against);
          (k "conversions_to_compute", float_of_int c.Telemetry.to_compute);
          (k "conversions_to_memory", float_of_int c.Telemetry.to_memory);
          (k "write_bytes", float_of_int c.Telemetry.class_write_bytes);
          (k "displaced_mem_bytes", c.Telemetry.class_displaced_bytes);
          (k "energy_j", energy);
          ( k "latency_p50_us",
            match Telemetry.latency_percentile ~profile t ~p:50.0 with
            | Some v -> v
            | None -> 0.0 );
          ( k "latency_mean_us",
            match Telemetry.mean_latency_us ~profile t with Some v -> v | None -> 0.0 );
        ])
      (Telemetry.class_summary t)
  in
  let per_device =
    List.concat_map
      (fun (d : Scheduler.device_report) ->
        let id = d.Scheduler.dev_id in
        let w = d.Scheduler.dev_wear in
        let to_compute, to_memory = d.Scheduler.dev_conversions in
        let dev fmt = Printf.sprintf ("dev%d_" ^^ fmt) id in
        [
          (dev "requests", float_of_int d.Scheduler.dev_served);
          (dev "energy_j", d.Scheduler.dev_energy_j);
          (dev "conversions_to_compute", float_of_int to_compute);
          (dev "conversions_to_memory", float_of_int to_memory);
          (dev "displaced_mem_bytes", d.Scheduler.dev_displaced_bytes);
          (dev "cell_writes", float_of_int w.Device.total_cell_writes);
          (dev "max_per_cell", float_of_int w.Device.max_per_cell);
          ( dev "levelled_max_per_line",
            float_of_int w.Device.leveling.Tdo_pcm.Wear_leveling.max_per_cell );
          (dev "remaps", float_of_int w.Device.leveling.Tdo_pcm.Wear_leveling.remaps);
          (dev "budget_consumed", w.Device.budget_consumed);
        ]
        @ List.concat
            (Array.to_list
               (Array.mapi
                  (fun tile cw ->
                    [
                      (Printf.sprintf "dev%d_tile%d_cell_writes" id tile, float_of_int cw);
                      ( Printf.sprintf "dev%d_tile%d_write_bytes" id tile,
                        float_of_int w.Device.per_tile_write_bytes.(tile) );
                    ])
                  w.Device.per_tile_cell_writes)))
      r.Scheduler.devices
  in
  let golden =
    match golden_divergence with
    | Some d -> [ ("golden_divergence", float_of_int d) ]
    | None -> []
  in
  base @ per_class @ per_device @ golden

(* One golden oracle per compute class present in the fleet: checksums
   are only comparable within a class, so each class gets its own
   sequential single-device reference. Returns the summed divergence
   and one report section per class. *)
let golden_checks ~fleet ~config ~trace ~(report : Scheduler.report) ~section_prefix =
  let golden_profiles =
    match fleet with
    | None -> [ Backend.pcm ]
    | Some profiles ->
        List.rev
          (List.fold_left
             (fun acc (p : Backend.profile) ->
               if
                 List.exists
                   (fun (q : Backend.profile) -> q.Backend.cls = p.Backend.cls)
                   acc
               then acc
               else p :: acc)
             [] profiles)
  in
  List.fold_left
    (fun (total, secs) (profile : Backend.profile) ->
      let section_name =
        if fleet = None && section_prefix = "" then "golden-sequential"
        else section_prefix ^ "golden-" ^ Backend.class_name profile.Backend.cls
      in
      let golden, golden_section =
        Report.section ~name:section_name (fun () ->
            Tdo_util.Pool.set_sequential (Some true);
            Fun.protect
              ~finally:(fun () -> Tdo_util.Pool.set_sequential None)
              (fun () ->
                Scheduler.replay ~config:(Scheduler.golden_config ~profile config) trace))
      in
      let d = Scheduler.divergence report golden in
      Printf.printf "golden check (%s%s): %d divergent of %d comparable requests\n"
        (if section_prefix = "" then "" else section_prefix)
        (Backend.class_name profile.Backend.cls)
        d
        (min (Scheduler.completed report) (Scheduler.completed golden));
      (total + d, secs @ [ golden_section ]))
    (0, []) golden_profiles

(* ---------- load mode ---------- *)

(* Per-tenant token buckets sized at 1.5x each tenant's share of the
   sustained rate: the sustained pattern passes nearly untouched while
   the 6x overload pattern runs every bucket dry, on top of the
   0.5/0.8 SLO-class queue-fill shedding. *)
let load_policy ~rate =
  {
    Admission.per_tenant =
      [
        (1, { Admission.rate_per_s = 1.5 *. 0.5 *. rate; burst = 200.0 });
        (2, { Admission.rate_per_s = 1.5 *. 0.3 *. rate; burst = 200.0 });
        (3, { Admission.rate_per_s = 1.5 *. 0.2 *. rate; burst = 200.0 });
      ];
    default_bucket = None;
    batch_above = 0.8;
    best_effort_above = 0.5;
  }

let load_patterns ~rate ~requests ~seed =
  [
    ( "sustained",
      lazy
        (Workload.generate ~seed ~count:requests
           (Workload.standard_tenants ~total_rate_rps:rate ())) );
    ( "overload",
      lazy
        (Workload.generate ~seed:(seed + 1) ~count:requests
           (Workload.standard_tenants ~total_rate_rps:(6.0 *. rate) ())) );
    ( "burst-recovery",
      lazy
        (let process _slo share_rate =
           (* quiet at the tenant's share of 0.8x the sustained rate,
              ~50 ms bursts at 8x that share every ~250 ms: each burst
              overruns the fleet, the quiet phase lets it drain *)
           Arrival.Bursty
             {
               base_rps = share_rate;
               burst_rps = 8.0 *. share_rate;
               mean_burst_s = 0.05;
               mean_quiet_s = 0.2;
             }
         in
         Workload.generate ~seed:(seed + 2) ~count:requests
           (Workload.standard_tenants ~process ~total_rate_rps:(0.8 *. rate) ())) );
    ( "diurnal",
      lazy
        (let process _slo share_rate =
           (* a day's traffic curve compressed to half a simulated
              second: the trough runs at half the tenant's share, the
              peak at 1.5x, so the fleet sees both slack and pressure
              within one run *)
           Arrival.Diurnal
             {
               base_rps = 0.5 *. share_rate;
               peak_rps = 1.5 *. share_rate;
               period_s = 0.5;
             }
         in
         Workload.generate ~seed:(seed + 3) ~count:requests
           (Workload.standard_tenants ~process ~total_rate_rps:rate ())) );
  ]

(* Pattern-prefixed report fields: the windowed view, per-SLO-class
   served/shed counts and the admission/calibration story per arrival
   pattern — the sections ISSUE 9's acceptance reads. *)
let load_extras prefix (r : Scheduler.report) ~window_us ~golden_divergence =
  let t = r.Scheduler.telemetry in
  let s = Telemetry.summary t in
  let pct p = match Telemetry.latency_percentile t ~p with Some v -> v | None -> 0.0 in
  let k name = prefix ^ "_" ^ name in
  let served = s.Telemetry.completed + s.Telemetry.cpu_fallbacks + s.Telemetry.recovered_host in
  let makespan_s = us_of_ps r.Scheduler.makespan_ps /. 1e6 in
  let windows = Telemetry.windows ~window_us t in
  let wmax f = List.fold_left (fun acc w -> Float.max acc (f w)) 0.0 windows in
  let base =
    [
      (k "requests", float_of_int s.Telemetry.requests);
      (k "served", float_of_int served);
      (k "completed", float_of_int s.Telemetry.completed);
      (k "served_tuned", float_of_int s.Telemetry.served_tuned);
      (k "shed_rate_limited", float_of_int s.Telemetry.shed_rate_limited);
      (k "shed_load", float_of_int s.Telemetry.shed_load);
      (k "rejected", float_of_int s.Telemetry.rejected);
      (k "failed", float_of_int s.Telemetry.failed);
      (k "p50_us", pct 50.0);
      (k "p99_us", pct 99.0);
      (k "max_queue_depth", float_of_int (Telemetry.max_queue_depth t));
      (k "makespan_ms", us_of_ps r.Scheduler.makespan_ps /. 1000.0);
      ( k "throughput_rps",
        if makespan_s > 0.0 then float_of_int served /. makespan_s else 0.0 );
      (k "windows", float_of_int (List.length windows));
      (k "window_us", window_us);
      (k "window_p99_max_us", wmax (fun w -> w.Telemetry.w_p99_us));
      (k "window_throughput_max_rps", wmax (fun w -> w.Telemetry.w_throughput_rps));
      ( k "window_max_depth",
        float_of_int
          (List.fold_left (fun acc w -> max acc w.Telemetry.w_max_depth) 0 windows) );
    ]
  in
  let per_slo =
    List.concat_map
      (fun (slo, (c : Telemetry.slo_counts)) ->
        let sk name = k ("slo_" ^ Trace.slo_name slo ^ "_" ^ name) in
        [
          (sk "requests", float_of_int c.Telemetry.slo_requests);
          (sk "served", float_of_int c.Telemetry.slo_served);
          (sk "shed", float_of_int c.Telemetry.slo_shed);
          (sk "p50_us", c.Telemetry.slo_p50_us);
          (sk "p99_us", c.Telemetry.slo_p99_us);
        ])
      (Telemetry.slo_summary t)
  in
  let calib =
    List.concat_map
      (fun (cls, samples, mre) ->
        [
          (k ("calib_" ^ cls ^ "_samples"), float_of_int samples);
          (k ("calib_" ^ cls ^ "_mre"), mre);
        ])
      r.Scheduler.calibrations
  in
  let golden =
    match golden_divergence with
    | Some d -> [ (k "golden_divergence", float_of_int d) ]
    | None -> []
  in
  base @ per_slo @ calib @ golden

type common = {
  fleet : Backend.profile list option;
  tuning : Tdo_tune.Db.t option;
  platform_config : Platform.config;
  devices : int;
  queue_capacity : int;
  max_batch : int;
  cache_capacity : int;
  seed : int;
}

let scheduler_config c =
  {
    Scheduler.default_config with
    Scheduler.devices = c.devices;
    fleet = c.fleet;
    platform_config = c.platform_config;
    queue_capacity = c.queue_capacity;
    max_batch = c.max_batch;
    cache_capacity = c.cache_capacity;
    tuning = c.tuning;
  }

let fleet_desc c =
  match c.fleet with
  | Some profiles -> Backend.describe_fleet profiles
  | None -> Printf.sprintf "pcm:%d" c.devices

(* The classic virtual-time replay: one trace, its golden checks, the
   flat extras. Returns sections newest-last plus the divergence. *)
let run_replay c ~trace_name ~deadline_us ~chrome_trace ~no_golden =
  match Trace.synthetic ?deadline_us ~seed:c.seed trace_name with
  | Error msg ->
      prerr_endline msg;
      Error 1
  | Ok trace ->
      let config = scheduler_config c in
      let report, main_section =
        Report.section ~name:("replay-" ^ trace_name) (fun () ->
            Scheduler.replay ~config trace)
      in
      summarise "replay" report;
      (match chrome_trace with
      | Some path ->
          Telemetry.write_chrome_trace report.Scheduler.telemetry ~path;
          Printf.printf "chrome trace written to %s\n" path
      | None -> ());
      let golden_divergence, sections =
        if no_golden then (None, [ main_section ])
        else
          let total, golden_sections =
            golden_checks ~fleet:c.fleet ~config ~trace ~report ~section_prefix:""
          in
          (Some total, main_section :: golden_sections)
      in
      Ok (report, sections, extras report ~golden_divergence, golden_divergence)

(* One open-loop load pattern: replay under admission + calibration +
   live windows, then the per-class goldens. *)
let run_load_pattern c ~pattern ~trace ~rate ~window_us ~calibrate ~no_golden ~dump_traces =
  if dump_traces then begin
    let path = Printf.sprintf "load-%s.trace" pattern in
    Codec.write trace ~path;
    Printf.printf "trace dumped to %s (%d requests)\n" path
      (List.length trace.Trace.requests)
  end;
  let live = Telemetry.live_view ~window_us ~emit:prerr_endline () in
  let config =
    {
      (scheduler_config c) with
      Scheduler.admission = Some (load_policy ~rate);
      calibrate_after = (if calibrate > 0 then Some calibrate else None);
      on_record = Some live;
    }
  in
  let report, main_section =
    Report.section ~name:("load-" ^ pattern) (fun () -> Scheduler.replay ~config trace)
  in
  summarise ("load-" ^ pattern) report;
  let golden_divergence, sections =
    if no_golden then (None, [ main_section ])
    else
      let total, golden_sections =
        golden_checks ~fleet:c.fleet ~config ~trace ~report
          ~section_prefix:("load-" ^ pattern ^ "-")
      in
      (Some total, main_section :: golden_sections)
  in
  (report, sections, load_extras pattern report ~window_us ~golden_divergence, golden_divergence)

let run_load c ~requests ~rate ~window_us ~calibrate ~no_golden ~dump_traces ~load_trace
    ~chrome_trace ~deadline_us =
  (* the classic fleet replay rides along so the report keeps the
     sections the committed baseline gates on *)
  match run_replay c ~trace_name:"synthetic-medium" ~deadline_us ~chrome_trace ~no_golden with
  | Error code -> Error code
  | Ok (replay_report, replay_sections, replay_extras, replay_div) ->
      let replay_failures = Scheduler.failures replay_report in
      let patterns =
        match load_trace with
        | Some path -> (
            match Codec.read ~path with
            | Ok trace -> [ ("custom", lazy trace) ]
            | Error msg ->
                prerr_endline msg;
                exit 1)
        | None -> load_patterns ~rate ~requests ~seed:c.seed
      in
      let sections, extra, divergence, failures =
        List.fold_left
          (fun (secs, extra, div, failures) (pattern, trace) ->
            let report, psecs, pextra, pdiv =
              run_load_pattern c ~pattern ~trace:(Lazy.force trace) ~rate ~window_us
                ~calibrate ~no_golden ~dump_traces
            in
            ( secs @ psecs,
              extra @ pextra,
              (match (div, pdiv) with
              | Some a, Some b -> Some (a + b)
              | a, None -> a
              | None, b -> b),
              failures + Scheduler.failures report ))
          (replay_sections, replay_extras, replay_div, replay_failures)
          patterns
      in
      Ok (sections, extra, divergence, failures)

(* ---------- graph mode ---------- *)

let completed_write_bytes (r : Scheduler.report) =
  List.fold_left
    (fun acc (rc : Telemetry.record) ->
      match rc.Telemetry.outcome with
      | Telemetry.Completed -> acc + rc.Telemetry.write_bytes
      | _ -> acc)
    0
    (Telemetry.records r.Scheduler.telemetry)

let graph_benches =
  List.map (fun g -> (Graph.kernel_name g, Graph.benchmark g)) Graph.standard

(* Graph serving: the three-tenant multi-kernel workload replayed twice
   — weight residency on (tiles stay pinned across same-tenant repeat
   requests) and off (reprogram every request) — plus the per-class
   goldens on the pinned run. The headline figure is weight-write-bytes
   amortised per 1000 requests, pinned vs unpinned. *)
let run_graph c ~requests ~rate ~no_golden =
  let trace =
    Workload.generate ~seed:c.seed ~count:requests
      (Workload.graph_tenants ~total_rate_rps:rate ())
  in
  let config =
    { (scheduler_config c) with Scheduler.graphs = graph_benches; graph_residency = true }
  in
  let pinned, pinned_section =
    Report.section ~name:"graph-pinned" (fun () -> Scheduler.replay ~config trace)
  in
  summarise "graph-pinned" pinned;
  let unpinned, unpinned_section =
    Report.section ~name:"graph-unpinned" (fun () ->
        Scheduler.replay ~config:{ config with Scheduler.graph_residency = false } trace)
  in
  summarise "graph-unpinned" unpinned;
  let golden_divergence, sections =
    if no_golden then (None, [ pinned_section; unpinned_section ])
    else
      let total, golden_sections =
        golden_checks ~fleet:c.fleet ~config ~trace ~report:pinned ~section_prefix:"graph-"
      in
      (Some total, pinned_section :: unpinned_section :: golden_sections)
  in
  let wp = completed_write_bytes pinned and wu = completed_write_bytes unpinned in
  let per_1000 w (r : Scheduler.report) =
    let n = Scheduler.completed r in
    if n = 0 then 0.0 else 1000.0 *. float_of_int w /. float_of_int n
  in
  let reduction =
    if wp > 0 then float_of_int wu /. float_of_int wp
    else if wu > 0 then float_of_int wu
    else 1.0
  in
  Printf.printf
    "graph residency: weight-write bytes per 1000 requests %.0f pinned vs %.0f unpinned \
     (x%.1f reduction)\n"
    (per_1000 wp pinned) (per_1000 wu unpinned) reduction;
  let pct r p =
    match Telemetry.latency_percentile r.Scheduler.telemetry ~p with
    | Some v -> v
    | None -> 0.0
  in
  let extra =
    [
      ("graph_requests", float_of_int requests);
      ("graph_pinned_completed", float_of_int (Scheduler.completed pinned));
      ("graph_unpinned_completed", float_of_int (Scheduler.completed unpinned));
      ("graph_pinned_write_bytes", float_of_int wp);
      ("graph_unpinned_write_bytes", float_of_int wu);
      ("graph_pinned_write_bytes_per_1000", per_1000 wp pinned);
      ("graph_unpinned_write_bytes_per_1000", per_1000 wu unpinned);
      ("graph_write_reduction_factor", reduction);
      ("graph_pinned_p50_us", pct pinned 50.0);
      ("graph_pinned_p99_us", pct pinned 99.0);
      ("graph_unpinned_p50_us", pct unpinned 50.0);
      ("graph_unpinned_p99_us", pct unpinned 99.0);
      ("graph_pinned_makespan_ms", us_of_ps pinned.Scheduler.makespan_ps /. 1000.0);
      ("graph_unpinned_makespan_ms", us_of_ps unpinned.Scheduler.makespan_ps /. 1000.0);
    ]
    @
    match golden_divergence with
    | Some d -> [ ("graph_golden_divergence", float_of_int d) ]
    | None -> []
  in
  Ok
    ( sections,
      extra,
      golden_divergence,
      Scheduler.failures pinned + Scheduler.failures unpinned )

(* ---------- frontend mode ---------- *)

(* The wall-clock front-end drives the same scheduler core as replay,
   so every scheduling flag means the same here; on top it always runs
   the default admission policy and a live view on stderr. *)
let run_frontend c ~window_us ~calibrate ~socket ~strict =
  let config =
    {
      (scheduler_config c) with
      Scheduler.admission = Some Admission.default_policy;
      calibrate_after = (if calibrate > 0 then Some calibrate else None);
      device_seed = c.seed;
      on_record = Some (Telemetry.live_view ~window_us ~emit:prerr_endline ());
    }
  in
  let summarise_session (r : Scheduler.report) =
    let t = r.Scheduler.telemetry in
    let s = Telemetry.summary t in
    let pct p = match Telemetry.latency_percentile t ~p with Some v -> v | None -> 0.0 in
    Printf.eprintf
      "session: %d requests, %d completed (%d tuned), %d host, shed %d rate-limited + %d \
       load, %d rejected, %d failed | p50 %.1f us p99 %.1f us\n%!"
      s.Telemetry.requests s.Telemetry.completed s.Telemetry.served_tuned
      (s.Telemetry.cpu_fallbacks + s.Telemetry.recovered_host)
      s.Telemetry.shed_rate_limited s.Telemetry.shed_load s.Telemetry.rejected
      s.Telemetry.failed (pct 50.0) (pct 99.0)
  in
  let sessions =
    match socket with
    | Some path ->
        Printf.eprintf "tdo-serve: listening on %s (fleet %s)\n%!" path (fleet_desc c);
        Frontend.serve_unix_socket ~config ~path ()
    | None ->
        Printf.eprintf "tdo-serve: serving on stdin/stdout (fleet %s)\n%!" (fleet_desc c);
        [ fst (Frontend.serve ~config ~input:Unix.stdin ~output:Unix.stdout ()) ]
  in
  List.iter summarise_session sessions;
  let failures = List.fold_left (fun acc r -> acc + Scheduler.failures r) 0 sessions in
  if strict && failures > 0 then begin
    prerr_endline "FAIL: request failures under --strict";
    1
  end
  else 0

(* ---------- main ---------- *)

let run trace_name devices fleet_spec seed queue_capacity max_batch deadline_us tiles
    cache_capacity tune_db chrome_trace out baseline no_golden strict load graph requests rate
    window_us smoke wall_budget_s calibrate dump_traces load_trace listen socket =
  let t0 = Unix.gettimeofday () in
  (* an output path in a missing directory fails now, not after the
     replay it was meant to record *)
  List.iter
    (fun (flag, path) ->
      let dir = Filename.dirname path in
      if not (Sys.file_exists dir && Sys.is_directory dir) then begin
        Printf.eprintf "tdo-serve: %s %s: no such directory %s\n" flag path dir;
        exit 1
      end)
    (("--out", out)
    :: List.map (fun path -> ("--chrome-trace", path)) (Option.to_list chrome_trace));
  let fleet =
    match fleet_spec with
    | None -> None
    | Some spec -> (
        match Backend.parse_fleet spec with
        | Ok profiles -> Some profiles
        | Error msg ->
            prerr_endline msg;
            exit 1)
  in
  let tuning =
    match tune_db with
    | None -> None
    | Some path -> (
        match Tdo_tune.Db.load path with
        | Ok db ->
            Printf.printf "tuning database: %d entries from %s\n" (Tdo_tune.Db.size db) path;
            Some db
        | Error msg ->
            prerr_endline msg;
            exit 1)
  in
  let platform_config =
    let d = Platform.default_config in
    { d with Platform.engine = { d.Platform.engine with Micro_engine.tiles = max 1 tiles } }
  in
  let c =
    {
      fleet;
      tuning;
      platform_config;
      devices;
      queue_capacity;
      max_batch;
      cache_capacity;
      seed;
    }
  in
  let calibrate = if calibrate >= 0 then calibrate else if load then 200 else 0 in
  if listen || socket <> None then run_frontend c ~window_us ~calibrate ~socket ~strict
  else begin
    (* --smoke shrinks the open-loop patterns to a few hundred requests
       and arms the wall-clock budget: the CI shape of --load *)
    let requests = if smoke then min requests 300 else requests in
    let replay_base () =
      Result.map
        (fun (report, sections, extra, div) ->
          (sections, extra, div, Scheduler.failures report))
        (run_replay c ~trace_name ~deadline_us ~chrome_trace ~no_golden)
    in
    let outcome =
      if graph then
        (* the classic fleet replay (or the full --load patterns when
           both flags are given) rides along so the report keeps the
           sections the committed baseline gates on *)
        let base =
          if load then
            run_load c ~requests ~rate ~window_us ~calibrate ~no_golden ~dump_traces
              ~load_trace ~chrome_trace ~deadline_us
          else replay_base ()
        in
        Result.bind base (fun (bsecs, bextra, bdiv, bfail) ->
            Result.map
              (fun (gsecs, gextra, gdiv, gfail) ->
                let div =
                  match (bdiv, gdiv) with
                  | Some a, Some b -> Some (a + b)
                  | d, None | None, d -> d
                in
                (bsecs @ gsecs, bextra @ gextra, div, bfail + gfail))
              (run_graph c ~requests ~rate ~no_golden))
      else if load then
        run_load c ~requests ~rate ~window_us ~calibrate ~no_golden ~dump_traces
          ~load_trace ~chrome_trace ~deadline_us
      else replay_base ()
    in
    match outcome with
    | Error code -> code
    | Ok (sections, extra, golden_divergence, failures) ->
        let extra =
          match baseline with
          | None -> extra
          | Some path -> (
              match Report.compare ~baseline:path sections with
              | Ok deltas ->
                  List.iter
                    (fun (d : Report.delta) ->
                      Printf.printf "vs baseline %-24s %.3f s -> %.3f s (x%.2f%s)\n"
                        d.Report.name d.Report.baseline_wall_s d.Report.wall_s
                        d.Report.speedup_vs_baseline
                        (if d.Report.regression then ", REGRESSION" else ""))
                    deltas;
                  extra @ Report.delta_fields deltas
              | Error msg ->
                  Printf.eprintf "serve: baseline %s: %s\n%!" path msg;
                  extra)
        in
        let notes =
          if graph then
            Printf.sprintf
              "tdo-serve graph serving: %d multi-kernel requests at %g rps over %s, %d \
               tiles/device; weight residency pinned vs unpinned, per-class goldens on \
               the pinned run"
              requests rate (fleet_desc c) tiles
          else if load then
            Printf.sprintf
              "tdo-serve open-loop load: %d requests/pattern at %g rps sustained, fleet \
               %s, %d tiles/device, queue capacity %d, calibrate-after %d"
              requests rate (fleet_desc c) tiles queue_capacity calibrate
          else
            Printf.sprintf
              "tdo-serve replay of %s: fleet %s, %d tiles/device, batching %b, queue \
               capacity %d"
              trace_name (fleet_desc c) tiles (max_batch > 1) queue_capacity
        in
        Report.write ~path:out ~extra ~notes ~sections ();
        Printf.printf "report written to %s\n" out;
        let wall = Unix.gettimeofday () -. t0 in
        let divergent =
          match golden_divergence with Some d when d > 0 -> true | _ -> false
        in
        let over_budget = wall_budget_s > 0.0 && wall > wall_budget_s in
        (* shed requests are an admission outcome, not failures, so
           --strict composes with the overload pattern *)
        let strict_failure = strict && failures > 0 in
        (* the graph bench exists to show residency pays: fail if
           pinning stops reducing weight-write bytes by at least 5x *)
        let residency_regression =
          graph
          &&
          match List.assoc_opt "graph_write_reduction_factor" extra with
          | Some r -> r < 5.0
          | None -> false
        in
        if divergent then prerr_endline "FAIL: golden divergence detected";
        if strict_failure then prerr_endline "FAIL: request failures under --strict";
        if over_budget then
          Printf.eprintf "FAIL: wall clock %.1f s over budget %.1f s\n" wall wall_budget_s;
        if residency_regression then
          prerr_endline "FAIL: weight residency below the x5 write-reduction gate";
        if divergent || strict_failure || over_budget || residency_regression then 1
        else 0
  end

(* [conv] restricted to values above [zero]; anything else is a usage
   error. *)
let positive conv ~zero =
  Arg.conv
    ( (fun s ->
        match Arg.conv_parser conv s with
        | Ok v when compare v zero > 0 -> Ok v
        | Ok _ -> Error (`Msg (Printf.sprintf "%s is not positive" s))
        | Error _ as e -> e),
      Arg.conv_printer conv )

let cmd =
  let trace_arg =
    Arg.(
      value & opt string "synthetic-medium"
      & info [ "t"; "trace" ] ~docv:"NAME"
          ~doc:
            "Workload trace to replay: synthetic-smoke, synthetic-small, synthetic-medium, \
             synthetic-large or synthetic-tight.")
  in
  let devices_arg =
    Arg.(
      value
      & opt (positive int ~zero:0) 4
      & info [ "devices" ] ~docv:"N"
          ~doc:"Devices in the pool (all analog crossbars); superseded by --fleet.")
  in
  let fleet_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fleet" ] ~docv:"SPEC"
          ~doc:
            "Heterogeneous fleet spec, e.g. pcm:2,digital:2,dual:2. Classes: pcm (analog \
             PCM crossbar), digital (SRAM CIM tile: slower GEMV, near-free writes, no \
             wear), host (the host BLAS path as a placement target), dual (an analog tile \
             that serves as plain memory until queue pressure converts it, paying the \
             conversion latency). Placement across the fleet is cost-based per class.")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Trace generator seed.") in
  let queue_arg =
    Arg.(
      value & opt int 256
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:"Submission-queue bound; overflow is rejected. 0 means unbounded.")
  in
  let max_batch_arg =
    Arg.(
      value
      & opt (positive int ~zero:0) 8
      & info [ "max-batch" ] ~docv:"N"
          ~doc:"Requests coalesced per dispatch; 1 dispatches one request at a time.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-us" ] ~docv:"US"
          ~doc:"Per-request deadline; late requests degrade to the CPU interpreter.")
  in
  let tiles_arg =
    Arg.(value & opt int 1 & info [ "tiles" ] ~docv:"N" ~doc:"CIM tiles per device.")
  in
  let cache_arg =
    Arg.(
      value & opt int 64
      & info [ "cache-capacity" ] ~docv:"N" ~doc:"Compiled-kernel cache entries.")
  in
  let tune_db_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tune-db" ] ~docv:"FILE"
          ~doc:
            "Tuning database (written by tdo-tune): kernels whose structural digest has an \
             entry for a device class are compiled with the tuned configuration on that \
             class, clamped to the pool's crossbar geometry; cross-class entries are \
             refused. The golden checks keep the database, so tuned replays stay \
             divergence-checked.")
  in
  let chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-trace" ] ~docv:"FILE"
          ~doc:"Dump the replay as Chrome trace events (chrome://tracing, Perfetto).")
  in
  let out_arg =
    Arg.(
      value & opt string "BENCH_serve.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Benchmark report path.")
  in
  let baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Previous BENCH_serve.json to compare against; per-section wall-clock deltas \
             are added to the report.")
  in
  let no_golden_arg =
    Arg.(
      value & flag
      & info [ "no-golden" ] ~doc:"Skip the sequential single-device golden checks.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Also fail on any per-request failure (in every mode, the front-end included).")
  in
  let load_arg =
    Arg.(
      value & flag
      & info [ "load" ]
          ~doc:
            "Open-loop load mode: generate sustained, overload, burst-recovery and \
             diurnal multi-tenant arrival patterns, drive each through the fleet under \
             the admission policy with live windowed telemetry, and append one report \
             section per pattern (plus per-class goldens) to the classic fleet-replay \
             sections.")
  in
  let graph_arg =
    Arg.(
      value & flag
      & info [ "graph" ]
          ~doc:
            "Graph serving mode: generate the three-tenant multi-kernel workload \
             (graph:mlp4, graph:attn) and replay it twice — with graph-scope weight \
             residency pinning weight tiles across same-tenant repeat requests, and \
             without — plus per-class goldens on the pinned run. Reports \
             weight-write-bytes per 1000 requests for both and the reduction factor. \
             Use --tiles 4 so a whole model's weights fit pinned.")
  in
  let requests_arg =
    Arg.(
      value & opt int 100_000
      & info [ "requests" ] ~docv:"N" ~doc:"Open-loop requests per arrival pattern.")
  in
  let rate_arg =
    Arg.(
      value & opt float 20_000.0
      & info [ "rate" ] ~docv:"RPS"
          ~doc:
            "Sustained total arrival rate (requests per second of simulated time) across \
             the three tenants; the overload pattern offers 6x this, bursts peak at ~6.4x.")
  in
  let window_arg =
    Arg.(
      value
      & opt (positive float ~zero:0.0) 100_000.0
      & info [ "window-us" ] ~docv:"US"
          ~doc:
            "Telemetry roll-up window in (simulated or wall) microseconds: live roll-up \
             lines go to stderr once per elapsed window, and the report's windowed \
             p50/p99/throughput fields use the same width.")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Shrink --load to a few hundred requests per pattern (the CI shape).")
  in
  let wall_budget_arg =
    Arg.(
      value & opt float 0.0
      & info [ "wall-budget-s" ] ~docv:"S"
          ~doc:"Fail if the whole invocation takes longer than this many wall seconds; 0 \
                disables the budget.")
  in
  let calibrate_arg =
    Arg.(
      value & opt int (-1)
      & info [ "calibrate" ] ~docv:"N"
          ~doc:
            "Refit each device class's cost-model coefficients online after N completed \
             requests on that class (adopted only when the fit beats the hand-priced prior \
             on its own samples). 0 disables; default: 200 in --load mode, off otherwise.")
  in
  let dump_traces_arg =
    Arg.(
      value & flag
      & info [ "dump-traces" ]
          ~doc:"Write each generated load pattern to load-<pattern>.trace (replayable via \
                --load-trace).")
  in
  let load_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "load-trace" ] ~docv:"FILE"
          ~doc:"Replay a dumped trace file as the single load pattern instead of \
                generating the standard three.")
  in
  let listen_arg =
    Arg.(
      value & flag
      & info [ "listen" ]
          ~doc:
            "Wall-clock front-end on stdin/stdout: read req/JSON lines, answer ok/shed/err \
             lines, live telemetry on stderr. See also --socket.")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Wall-clock front-end on a Unix-domain socket: serve clients one at a time \
             until one sends quit.")
  in
  Cmd.v
    (Cmd.info "tdo-serve"
       ~doc:"Multi-tenant CIM offload service: trace replay, open-loop load and wall-clock \
             front-end driver.")
    Term.(
      const run $ trace_arg $ devices_arg $ fleet_arg $ seed_arg $ queue_arg
      $ max_batch_arg $ deadline_arg $ tiles_arg
      $ cache_arg $ tune_db_arg $ chrome_arg $ out_arg $ baseline_arg $ no_golden_arg
      $ strict_arg $ load_arg $ graph_arg $ requests_arg $ rate_arg $ window_arg
      $ smoke_arg $ wall_budget_arg $ calibrate_arg $ dump_traces_arg $ load_trace_arg
      $ listen_arg $ socket_arg)

let () = exit (Cmd.eval' cmd)
