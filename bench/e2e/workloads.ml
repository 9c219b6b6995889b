(* The four open-loop serving workloads and the set-up they share: the
   mixed fleet, the admission policy of `tdo-serve --load`, online
   calibration, a live view writing to memory, and the tuning database
   of `make serve-tune-db`, built in-process. *)

module Scheduler = Tdo_serve.Scheduler
module Telemetry = Tdo_serve.Telemetry
module Trace = Tdo_serve.Trace
module Admission = Tdo_serve.Admission
module Workload = Tdo_loadgen.Workload
module Backend = Tdo_backend.Backend
module Platform = Tdo_runtime.Platform
module Micro_engine = Tdo_cimacc.Micro_engine
module Graph = Tdo_graph.Graph
module Kernels = Tdo_polybench.Kernels
module Search = Tdo_tune.Search
module Db = Tdo_tune.Db
module Space = Tdo_tune.Space
module Time_base = Tdo_sim.Time_base

type t = {
  name : string;
  tenants : Workload.tenant list;
  policy_rate_rps : float;  (** rate the per-tenant admission buckets are sized from *)
  chunk : int;  (** offered requests per chunk *)
  chunk_s : float;  (** host seconds of one chunk replay, at reference speed *)
  tiles : int;  (** CIM tiles per device *)
  graph : bool;  (** graph programs with weight residency on *)
  limits_us : float * float * float;  (** interactive, batch, best-effort latency limits *)
}

let fleet_spec = "pcm:2,digital:2,dual:2"

let fleet =
  match Backend.parse_fleet fleet_spec with Ok f -> f | Error msg -> failwith msg

(* The fleet's profile names, in fleet order: the per-profile metrics. *)
let profiles =
  List.fold_left
    (fun acc (p : Backend.profile) ->
      if List.mem p.Backend.name acc then acc else acc @ [ p.Backend.name ])
    [] fleet

let poly_limits = (1_000.0, 2_000.0, 5_000.0)

(* Every PolyBench kernel at 13 sizes, uniformly: most (kernel, n, class)
   combinations have no tuned configuration, and the 91 programs per
   class overflow the 64-entry kernel cache. *)
let wide_mix =
  List.concat_map (fun k -> List.init 13 (fun i -> (k, 8 + (2 * i), 1))) Kernels.names

let wide_tenants ~total_rate_rps =
  List.map
    (fun (tenant, tname, slo, share) ->
      {
        Workload.tenant;
        tname;
        slo;
        process = Tdo_loadgen.Arrival.Poisson { rate_rps = share *. total_rate_rps };
        mix = wide_mix;
        deadline_us = None;
      })
    [
      (1, "wide-interactive", Trace.Interactive, 0.5);
      (2, "wide-batch", Trace.Batch, 0.3);
      (3, "wide-scavenger", Trace.Best_effort, 0.2);
    ]

let all =
  [
    (* Steady load below capacity: kernel-cache hits and near-zero queue
       wait, so device simulation dominates host time. *)
    {
      name = "sustained";
      tenants = Workload.standard_tenants ~total_rate_rps:20_000.0 ();
      policy_rate_rps = 20_000.0;
      chunk = 2_000;
      chunk_s = 0.92;
      tiles = 1;
      graph = false;
      limits_us = poly_limits;
    };
    (* 6x the sustained rate: most requests are shed and the queue runs
       deep, so admission, queueing and placement decide the result. *)
    {
      name = "overload";
      tenants = Workload.standard_tenants ~total_rate_rps:120_000.0 ();
      policy_rate_rps = 20_000.0;
      chunk = 12_000;
      chunk_s = 1.9;
      tiles = 1;
      graph = false;
      limits_us = poly_limits;
    };
    (* MLP and attention programs on 4 tiles with weight residency:
       crossbar programming is skipped on resident hits and device work
       dominates. 10k rps, since at 20k the fleet saturates and latency
       varies too much from seed to seed for a useful bound. *)
    {
      name = "graph";
      tenants = Workload.graph_tenants ~total_rate_rps:10_000.0 ();
      policy_rate_rps = 10_000.0;
      chunk = 500;
      chunk_s = 0.5;
      tiles = 4;
      graph = true;
      limits_us = (5_000.0, 10_000.0, 20_000.0);
    };
    (* All 7 kernels at 13 sizes: cache misses and compiles, few tuned
       configurations and the most crossbar writes per request. *)
    {
      name = "wide-mix";
      tenants = wide_tenants ~total_rate_rps:10_000.0;
      policy_rate_rps = 10_000.0;
      chunk = 1_250;
      chunk_s = 0.9;
      tiles = 1;
      graph = false;
      limits_us = poly_limits;
    };
  ]

let find name =
  match List.find_opt (fun w -> w.name = name) all with
  | Some w -> Ok w
  | None ->
      Error
        (Printf.sprintf "unknown workload %S (expected one of: %s)" name
           (String.concat ", " (List.map (fun w -> w.name) all)))

let limit_ps w (slo : Trace.slo) =
  let i, b, e = w.limits_us in
  let us = match slo with Trace.Interactive -> i | Trace.Batch -> b | Trace.Best_effort -> e in
  int_of_float (us *. float_of_int Time_base.ps_per_us)

(* Served within the request's class limit. *)
let good w (r : Telemetry.record) =
  Telemetry.served r && Telemetry.latency_ps r <= limit_ps w r.Telemetry.request.Trace.slo

(* ---------- traces ---------- *)

(* Chunk [c] of a run with seed [s] is generated from its own seed, so
   every chunk is a distinct draw and the same seed gives the same
   chunks. *)
let chunk_trace w ~seed ~chunk ~count =
  Workload.generate ~seed:((seed * 1_000) + chunk) ~count w.tenants

(* ---------- shared set-up ---------- *)

(* The (n, kernels) points `make serve-tune-db` tunes, for both compute
   classes of the fleet. *)
let tune_points =
  [
    (16, [ "gemm"; "2mm" ]);
    (24, [ "gemm"; "gesummv"; "bicg"; "mvt" ]);
    (12, [ "3mm"; "conv" ]);
  ]

let build_tuning_db () =
  List.fold_left
    (fun db cls ->
      List.fold_left
        (fun db (n, names) ->
          List.fold_left
            (fun db name ->
              let b = match Kernels.find name with Ok b -> b | Error msg -> failwith msg in
              match
                Search.tune ~axes:(Space.axes_for cls) ~cls ~source:(b.Kernels.source ~n)
                  ~args:(fun () -> fst (b.Kernels.make_args ~n ~seed:42))
                  ()
              with
              | Ok r -> Db.add db (Db.entry_of_result ~n r)
              | Error msg -> failwith (name ^ ": " ^ msg))
            db names)
        db tune_points)
    Db.empty
    [ Backend.Pcm_crossbar; Backend.Digital_tile ]

(* `tdo-serve --load`: per-tenant buckets at 1.5x each tenant's share of
   [rate], burst 200, batch shed at 0.8 queue fill, best-effort at 0.5. *)
let policy ~rate =
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

let graph_benches = List.map (fun g -> (Graph.kernel_name g, Graph.benchmark g)) Graph.standard

let platform_config w =
  let d = Platform.default_config in
  { d with Platform.engine = { d.Platform.engine with Micro_engine.tiles = w.tiles } }

(* The serving configuration of one replay. [observe] wraps the live
   view, whose lines go to [sink]; a fresh view per replay, since every
   chunk's simulated clock starts at zero. *)
let config ?(observe = fun f r -> f r) w ~db ~sink =
  let live = Telemetry.live_view ~window_us:100_000.0 ~emit:(fun l -> sink := l :: !sink) () in
  {
    Scheduler.default_config with
    Scheduler.fleet = Some fleet;
    platform_config = platform_config w;
    tuning = Some db;
    admission = Some (policy ~rate:w.policy_rate_rps);
    calibrate_after = Some 200;
    on_record = Some (observe live);
    graphs = (if w.graph then graph_benches else []);
    graph_residency = w.graph;
  }
