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

let summary (r : Scheduler.report) = Telemetry.summary r.Scheduler.telemetry

(* The run's, each device class's and each SLO class's
   [Telemetry.fields] as [k=v], under the BENCH extras' names, then the
   fleet. *)
let summarise label (r : Scheduler.report) =
  let t = r.Scheduler.telemetry in
  Printf.printf "%s: %d requests over %s, makespan %.2f ms (simulated), replay wall %.2f s\n"
    label
    (List.length r.Scheduler.trace.Trace.requests)
    r.Scheduler.trace.Trace.name
    (us_of_ps r.Scheduler.makespan_ps /. 1000.0)
    r.Scheduler.wall_s;
  let line name c = Printf.printf "  %-15s %s\n" name (Telemetry.format_fields (Telemetry.fields c)) in
  line "all" (Telemetry.summary t);
  List.iter (fun (profile, c) -> line ("class " ^ profile) c) (Telemetry.class_summary t);
  List.iter (fun (slo, c) -> line ("slo " ^ Trace.slo_name slo) c) (Telemetry.slo_summary t);
  Printf.printf "  cache hit rate %.1f%% (%d compiles), max queue depth %d, %d devices quarantined\n"
    (100.0 *. Scheduler.cache_hit_rate r)
    r.Scheduler.cache.Serve.Kernel_cache.misses (Telemetry.max_queue_depth t)
    (List.length r.Scheduler.quarantined);
  List.iter
    (fun (cls, samples, mre) ->
      Printf.printf "  calibrated %s cost model from %d samples (mre %.3f)\n" cls samples
        mre)
    r.Scheduler.calibrations;
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

let golden_field name = function Some d -> [ (name, float_of_int d) ] | None -> []

(* What a run adds to the report: its sections, its extras, the summed
   golden divergence ([None] when no golden ran) and its failed
   requests. *)
let merge (s1, e1, d1, f1) (s2, e2, d2, f2) =
  ( s1 @ s2,
    e1 @ e2,
    (match (d1, d2) with Some a, Some b -> Some (a + b) | d, None | None, d -> d),
    f1 + f2 )

(* One golden oracle per compute class present in the fleet: checksums
   are only comparable within a class, so each class gets its own
   sequential single-device reference. Returns the summed divergence
   and one report section per class; [None] and none under
   [no_golden]. *)
let golden_checks ~no_golden ~fleet ~config ~trace ~(report : Scheduler.report) ~section_prefix =
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
  if no_golden then (None, [])
  else
    let total, sections =
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
                    Scheduler.replay
                      ~config:(Scheduler.golden_config ~profile config)
                      trace))
          in
          let d = Scheduler.divergence report golden in
          Printf.printf "golden check (%s%s): %d divergent of %d compared requests\n"
            section_prefix
            (Backend.class_name profile.Backend.cls)
            d.Scheduler.divergent d.Scheduler.compared;
          (total + d.Scheduler.divergent, secs @ [ golden_section ]))
        (0, []) golden_profiles
    in
    (Some total, sections)

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

(* Pattern-prefixed report fields: the run's figures, the windowed
   view and the golden check per arrival pattern. *)
let load_extras pattern (r : Scheduler.report) ~window_us ~golden_divergence =
  let k name = pattern ^ "_" ^ name in
  let windows = Telemetry.windows ~window_us r.Scheduler.telemetry in
  let wmax f = List.fold_left (fun acc w -> Float.max acc (f w)) 0.0 windows in
  Scheduler.fields ~prefix:(k "") r
  @ [
      (k "windows", float_of_int (List.length windows));
      (k "window_us", window_us);
      (k "window_p99_max_us", wmax (fun w -> w.Telemetry.w_p99_us));
      (k "window_throughput_max_rps", wmax (fun w -> w.Telemetry.w_throughput_rps));
      (k "window_max_depth", wmax (fun w -> float_of_int w.Telemetry.w_max_depth));
    ]
  @ golden_field (k "golden_divergence") golden_divergence

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
   flat extras. *)
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
      let golden_divergence, golden_sections =
        golden_checks ~no_golden ~fleet:c.fleet ~config ~trace ~report ~section_prefix:""
      in
      Ok
        ( main_section :: golden_sections,
          Scheduler.fields report @ golden_field "golden_divergence" golden_divergence,
          golden_divergence,
          (summary report).Telemetry.failed )

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
  let golden_divergence, golden_sections =
    golden_checks ~no_golden ~fleet:c.fleet ~config ~trace ~report
      ~section_prefix:("load-" ^ pattern ^ "-")
  in
  ( main_section :: golden_sections,
    load_extras pattern report ~window_us ~golden_divergence,
    golden_divergence,
    (summary report).Telemetry.failed )

let run_load c ~requests ~rate ~window_us ~calibrate ~no_golden ~dump_traces ~load_trace
    ~chrome_trace ~deadline_us =
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
  Result.map
    (fun replay ->
      List.fold_left
        (fun acc (pattern, trace) ->
          merge acc
            (run_load_pattern c ~pattern ~trace:(Lazy.force trace) ~rate ~window_us ~calibrate
               ~no_golden ~dump_traces))
        replay patterns)
    (run_replay c ~trace_name:"synthetic-medium" ~deadline_us ~chrome_trace ~no_golden)

(* ---------- graph mode ---------- *)

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
  let golden_divergence, golden_sections =
    golden_checks ~no_golden ~fleet:c.fleet ~config ~trace ~report:pinned
      ~section_prefix:"graph-"
  in
  let sp = summary pinned and su = summary unpinned in
  let wp = sp.Telemetry.write_bytes and wu = su.Telemetry.write_bytes in
  let per_1000 w (s : Telemetry.summary) =
    let n = s.Telemetry.completed in
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
    (per_1000 wp sp) (per_1000 wu su) reduction;
  let extra =
    (("graph_requests", float_of_int requests)
    :: Scheduler.fields ~prefix:"graph_pinned_" pinned)
    @ Scheduler.fields ~prefix:"graph_unpinned_" unpinned
    @ [
        ("graph_pinned_write_bytes_per_1000", per_1000 wp sp);
        ("graph_unpinned_write_bytes_per_1000", per_1000 wu su);
        ("graph_write_reduction_factor", reduction);
      ]
    @ golden_field "graph_golden_divergence" golden_divergence
  in
  ( pinned_section :: unpinned_section :: golden_sections,
    extra,
    golden_divergence,
    sp.Telemetry.failed + su.Telemetry.failed )

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
  let summarise_session r =
    prerr_endline ("session: " ^ Telemetry.format_fields (Telemetry.fields (summary r)))
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
  let failures = List.fold_left (fun acc r -> acc + (summary r).Telemetry.failed) 0 sessions in
  if strict && failures > 0 then begin
    prerr_endline "FAIL: request failures under --strict";
    1
  end
  else 0

(* ---------- main ---------- *)

let run trace_name devices fleet_spec seed queue_capacity max_batch deadline_us tiles
    cache_capacity tune_db chrome_trace out no_golden strict load graph requests rate
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
    { d with Platform.engine = { d.Platform.engine with Micro_engine.tiles = tiles } }
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
  let calibrate =
    match calibrate with Some n -> n | None -> if load then 200 else 0
  in
  if listen || socket <> None then run_frontend c ~window_us ~calibrate ~socket ~strict
  else begin
    (* --smoke shrinks the open-loop patterns to a few hundred requests
       and arms the wall-clock budget: the CI shape of --load *)
    let requests = if smoke then min requests 300 else requests in
    let outcome =
      (* with --graph, the classic fleet replay (or the full --load
         patterns when both flags are given) rides along, so every
         report keeps its sections and fields *)
      let base =
        if load then
          run_load c ~requests ~rate ~window_us ~calibrate ~no_golden ~dump_traces ~load_trace
            ~chrome_trace ~deadline_us
        else run_replay c ~trace_name ~deadline_us ~chrome_trace ~no_golden
      in
      if graph then Result.map (fun b -> merge b (run_graph c ~requests ~rate ~no_golden)) base
      else base
    in
    match outcome with
    | Error code -> code
    | Ok (sections, extra, golden_divergence, failures) ->
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

(* [conv] restricted to the values [accept] takes; anything else is a
   usage error saying what is wrong with it ([flaw]). *)
let restricted conv ~flaw ~accept =
  Arg.conv
    ( (fun s ->
        match Arg.conv_parser conv s with
        | Ok v when accept v -> Ok v
        | Ok _ -> Error (`Msg (Printf.sprintf "%s is %s" s flaw))
        | Error _ as e -> e),
      Arg.conv_printer conv )

let positive conv ~zero =
  restricted conv ~flaw:"not positive" ~accept:(fun v -> compare v zero > 0)

let non_negative conv ~zero =
  restricted conv ~flaw:"negative" ~accept:(fun v -> compare v zero >= 0)

(* A float that is also finite: infinities and NaN are refused. *)
let finite conv = restricted conv ~flaw:"not finite" ~accept:Float.is_finite

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
      value
      & opt (non_negative int ~zero:0) 256
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
      & opt (some (positive int ~zero:0)) None
      & info [ "deadline-us" ] ~docv:"US"
          ~doc:"Per-request deadline; late requests degrade to the CPU interpreter.")
  in
  let tiles_arg =
    Arg.(
      value
      & opt (positive int ~zero:0) 1
      & info [ "tiles" ] ~docv:"N" ~doc:"CIM tiles per device.")
  in
  let cache_arg =
    Arg.(
      value
      & opt (positive int ~zero:0) 64
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
      value
      & opt (positive int ~zero:0) 100_000
      & info [ "requests" ] ~docv:"N" ~doc:"Open-loop requests per arrival pattern.")
  in
  let rate_arg =
    Arg.(
      value
      & opt (positive (finite float) ~zero:0.0) 20_000.0
      & info [ "rate" ] ~docv:"RPS"
          ~doc:
            "Sustained total arrival rate (requests per second of simulated time) across \
             the three tenants; the overload pattern offers 6x this, bursts peak at ~6.4x.")
  in
  let window_arg =
    Arg.(
      value
      & opt
          (restricted float ~flaw:"not a width of 1 ps to max_int ps" ~accept:(fun w ->
               Telemetry.window_ps w <> None))
          100_000.0
      & info [ "window-us" ] ~docv:"US"
          ~doc:
            "Telemetry roll-up window in (simulated or wall) microseconds, finite and \
             from 1 ps (0.000001) up: live roll-up lines go to stderr once per elapsed \
             window, and the report's windowed p50/p99/throughput fields use the same \
             width.")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Shrink --load to a few hundred requests per pattern (the CI shape).")
  in
  let wall_budget_arg =
    Arg.(
      value
      & opt (non_negative (finite float) ~zero:0.0) 0.0
      & info [ "wall-budget-s" ] ~docv:"S"
          ~doc:"Fail if the whole invocation takes longer than this many wall seconds; 0 \
                disables the budget.")
  in
  let calibrate_arg =
    Arg.(
      value
      & opt (some (non_negative int ~zero:0)) None
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
      $ cache_arg $ tune_db_arg $ chrome_arg $ out_arg $ no_golden_arg
      $ strict_arg $ load_arg $ graph_arg $ requests_arg $ rate_arg $ window_arg
      $ smoke_arg $ wall_budget_arg $ calibrate_arg $ dump_traces_arg $ load_trace_arg
      $ listen_arg $ socket_arg)

let () = exit (Cmd.eval' cmd)
