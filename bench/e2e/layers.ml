(* The traced run behind the per-layer metrics. On one domain, per
   chunk: replay untraced, replay again with a span around every live
   observer call, then re-drive the records through each layer's public
   functions, a span around every call:
   - every record, in arrival order, through [Admission.admit] with the
     queue length it saw, which must give the recorded verdict;
   - every completed record, in the order the devices ran them, through
     [Kernel_cache.find_or_compile], [make_args], [Device.run] on a
     fresh copy of its device and [Scheduler.output_checksum], which
     must give the recorded checksum.
   Fresh copies of the fleet see the same runs and role conversions in
   the same order, so weight residency behaves as it did in the replay. *)

module W = Workloads
module Scheduler = Tdo_serve.Scheduler
module Telemetry = Tdo_serve.Telemetry
module Trace = Tdo_serve.Trace
module Admission = Tdo_serve.Admission
module Kernel_cache = Tdo_serve.Kernel_cache
module Device = Tdo_serve.Device
module Backend = Tdo_backend.Backend
module Kernels = Tdo_polybench.Kernels
module Stats = Tdo_util.Stats
open Results

type device_acc = {
  mutable calls : int;
  mutable host_us : float list;
  mutable words : float;
  mutable launches : int;
  mutable service_us : float list;
  mutable write_bytes : int;
  mutable failed : int;
}

let new_device_acc () =
  {
    calls = 0;
    host_us = [];
    words = 0.0;
    launches = 0;
    service_us = [];
    write_bytes = 0;
    failed = 0;
  }

type acc = {
  spans : Spans.t;
  devices : (string * device_acc) list;
  mutable offered : int;
  mutable wall_untraced : float;
  mutable wall_traced : float;
  mutable aggregate_s : float;
  mutable verdicts : int;
  mutable shed_rate : int;
  mutable shed_load : int;
  mutable verdict_mismatch : int;
  mutable checksum_mismatch : int;
  mutable replay_mismatch : int;  (** traced replay differing from the untraced one *)
  mutable redrive_differs : int;  (** re-driven service time or write bytes differing *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable compile_s : float;
  mutable hit_us : float list;
  mutable miss_us : float list;
  mutable queue_wait_us : float list;
  mutable batches : int;
  mutable completed : int;
  mutable max_depth : int;
  mutable conversions : int;
  mutable retries : int;
  mutable failed : int;
  mutable graph_served : int;
  mutable graph_resident : int;
  mutable calib : (string * float) list;  (** class, fitted mean relative error *)
}

let us_of_ps = Measure.us_of_ps

(* Outcome, finish time and checksum of every record: equal for two
   replays of one trace, since replay is deterministic. *)
let fingerprint (r : Scheduler.report) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (rc : Telemetry.record) ->
      Buffer.add_string b
        (Printf.sprintf "%d:%s:%d:%s;" rc.Telemetry.request.Trace.id
           (Telemetry.profile_bucket rc) rc.Telemetry.finish_ps
           (Option.value ~default:"-" rc.Telemetry.checksum)))
    (Telemetry.records r.Scheduler.telemetry);
  Digest.string (Buffer.contents b)

let expected_verdict (rc : Telemetry.record) =
  match rc.Telemetry.outcome with
  | Telemetry.Shed Telemetry.Rate_limited -> Admission.Shed_rate
  | Telemetry.Shed Telemetry.Load_shed -> Admission.Shed_load
  | _ -> Admission.Admit

let readmit w acc (config : Scheduler.config) records =
  let adm = Admission.create (W.policy ~rate:w.W.policy_rate_rps) in
  List.iter
    (fun (rc : Telemetry.record) ->
      let r = rc.Telemetry.request in
      let v =
        Spans.within acc.spans ~req:r.Trace.id "admission" (fun () ->
            Admission.admit adm ~now_ps:r.Trace.arrival_ps ~queue_len:rc.Telemetry.queue_depth
              ~capacity:config.Scheduler.queue_capacity r)
      in
      acc.verdicts <- acc.verdicts + 1;
      (match v with
      | Admission.Shed_rate -> acc.shed_rate <- acc.shed_rate + 1
      | Admission.Shed_load -> acc.shed_load <- acc.shed_load + 1
      | Admission.Admit -> ());
      if v <> expected_verdict rc then acc.verdict_mismatch <- acc.verdict_mismatch + 1)
    records

(* Mirror of the scheduler's residency key: the compiled entry, then the
   tenant. *)
let residency_key (entry : Kernel_cache.entry) (r : Trace.request) =
  entry.Kernel_cache.key ^ "#t" ^ string_of_int r.Trace.tenant

let redrive w acc ~db (config : Scheduler.config) (report : Scheduler.report) =
  let platform_config = config.Scheduler.platform_config in
  let devices =
    Array.of_list
      (List.mapi
         (fun id backend ->
           Device.create ~platform_config ~seed:(config.Scheduler.device_seed + id) ~backend
             ~id ())
         W.fleet)
  in
  let xbar = platform_config.Tdo_runtime.Platform.engine.Tdo_cimacc.Micro_engine.xbar in
  let geometry = (xbar.Tdo_pcm.Crossbar.rows, xbar.Tdo_pcm.Crossbar.cols) in
  let cache =
    Kernel_cache.create ~capacity:config.Scheduler.cache_capacity
      ~options:config.Scheduler.options ~tuning:db
      ~geometries:
        (List.sort_uniq compare (List.map (fun (p : Backend.profile) -> p.Backend.cls) W.fleet)
        |> List.map (fun cls -> (cls, geometry)))
      ()
  in
  let completed =
    List.filter
      (fun (rc : Telemetry.record) -> rc.Telemetry.outcome = Telemetry.Completed)
      (Telemetry.records report.Scheduler.telemetry)
    |> List.stable_sort (fun (a : Telemetry.record) (b : Telemetry.record) ->
           compare a.Telemetry.start_ps b.Telemetry.start_ps)
  in
  let conversions = ref (Telemetry.conversions report.Scheduler.telemetry) in
  List.iter
    (fun (rc : Telemetry.record) ->
      let rec convert_until ps =
        match !conversions with
        | (c : Telemetry.conversion) :: rest when c.Telemetry.at_ps <= ps ->
            ignore
              (Device.convert ~at_ps:c.Telemetry.at_ps devices.(c.Telemetry.conv_device)
                 ~to_compute:c.Telemetry.to_compute
                : float);
            conversions := rest;
            convert_until ps
        | _ -> ()
      in
      convert_until rc.Telemetry.start_ps;
      let r = rc.Telemetry.request in
      let id = r.Trace.id in
      let dev = devices.(Option.get rc.Telemetry.device) in
      let bench =
        match Tdo_graph.Graph.find_bench r.Trace.kernel with
        | Ok b -> b
        | Error msg -> failwith msg
      in
      let parent = Spans.start acc.spans ~req:id "request" in
      let misses0 = (Kernel_cache.stats cache).Kernel_cache.misses in
      let lookup = Spans.start acc.spans ~parent ~req:id "kernel_cache" in
      let entry =
        Kernel_cache.find_or_compile cache ~cls:(Device.device_class dev)
          (bench.Kernels.source ~n:r.Trace.n)
      in
      Spans.stop acc.spans lookup;
      let lookup_us = float_of_int (Spans.duration_ns acc.spans lookup) /. 1e3 in
      if (Kernel_cache.stats cache).Kernel_cache.misses = misses0 then
        acc.hit_us <- lookup_us :: acc.hit_us
      else acc.miss_us <- lookup_us :: acc.miss_us;
      let args, readback =
        Spans.within acc.spans ~parent ~req:id "make_args" (fun () ->
            bench.Kernels.make_args ~n:r.Trace.n ~seed:r.Trace.seed)
      in
      let residency = if w.W.graph then Some (residency_key entry r) else None in
      let m0 = Gc.minor_words () in
      let run = Spans.start acc.spans ~parent ~req:id "device" in
      let stats = Device.run ?residency dev entry.Kernel_cache.compiled ~args in
      Spans.stop acc.spans run;
      let words = Gc.minor_words () -. m0 in
      let host_us = float_of_int (Spans.duration_ns acc.spans run) /. 1e3 in
      let checksum =
        Spans.within acc.spans ~parent ~req:id "checksum" (fun () ->
            Scheduler.output_checksum (readback ()))
      in
      Spans.stop acc.spans parent;
      if Some checksum <> rc.Telemetry.checksum then
        acc.checksum_mismatch <- acc.checksum_mismatch + 1;
      if
        stats.Device.service_ps <> rc.Telemetry.service_ps
        || stats.Device.write_bytes <> rc.Telemetry.write_bytes
      then acc.redrive_differs <- acc.redrive_differs + 1;
      let d = List.assoc (Device.profile dev).Backend.name acc.devices in
      d.calls <- d.calls + 1;
      d.host_us <- host_us :: d.host_us;
      d.words <- d.words +. words;
      d.launches <- d.launches + stats.Device.launches;
      d.service_us <- us_of_ps rc.Telemetry.service_ps :: d.service_us;
      d.write_bytes <- d.write_bytes + rc.Telemetry.write_bytes)
    completed

(* Scheduler, placement and residency figures straight from the records. *)
let tally_records w acc (report : Scheduler.report) =
  let t = report.Scheduler.telemetry in
  let batches = Hashtbl.create 256 in
  List.iter
    (fun (rc : Telemetry.record) ->
      acc.offered <- acc.offered + 1;
      acc.retries <- acc.retries + rc.Telemetry.retries;
      match (rc.Telemetry.outcome, rc.Telemetry.profile) with
      | Telemetry.Completed, _ ->
          acc.completed <- acc.completed + 1;
          acc.queue_wait_us <-
            us_of_ps (rc.Telemetry.start_ps - rc.Telemetry.request.Trace.arrival_ps)
            :: acc.queue_wait_us;
          Option.iter (fun b -> Hashtbl.replace batches b ()) rc.Telemetry.batch;
          if w.W.graph then begin
            acc.graph_served <- acc.graph_served + 1;
            if rc.Telemetry.write_bytes = 0 then acc.graph_resident <- acc.graph_resident + 1
          end
      | Telemetry.Failed _, profile -> (
          acc.failed <- acc.failed + 1;
          match Option.bind profile (fun p -> List.assoc_opt p acc.devices) with
          | Some d -> d.failed <- d.failed + 1
          | None -> ())
      | _ -> ())
    (Telemetry.records t);
  acc.batches <- acc.batches + Hashtbl.length batches;
  acc.max_depth <- max acc.max_depth (Telemetry.max_queue_depth t);
  acc.conversions <- acc.conversions + List.length (Telemetry.conversions t);
  let c = report.Scheduler.cache in
  acc.hits <- acc.hits + c.Kernel_cache.hits;
  acc.misses <- acc.misses + c.Kernel_cache.misses;
  acc.evictions <- acc.evictions + c.Kernel_cache.evictions;
  acc.compile_s <- acc.compile_s +. c.Kernel_cache.compile_s_total;
  acc.calib <-
    acc.calib @ List.map (fun (cls, _, mre) -> (cls, mre)) report.Scheduler.calibrations

(* The roll-ups a report is read through: outcome summary, latency
   percentiles, time windows, per-SLO and per-class counts. *)
let aggregate (report : Scheduler.report) =
  let t = report.Scheduler.telemetry in
  ignore (Telemetry.summary t : Telemetry.summary);
  List.iter
    (fun p -> ignore (Telemetry.latency_percentile t ~p : float option))
    [ 50.0; 99.0; 99.9 ];
  ignore (Telemetry.windows ~window_us:100_000.0 t : Telemetry.window list);
  ignore (Telemetry.slo_summary t : (Trace.slo * Telemetry.slo_counts) list);
  ignore (Telemetry.class_summary t : (string * Telemetry.class_counts) list)

let pct = Measure.pct
let ratio = Measure.ratio
let ratio_i a b = ratio (float_of_int a) (float_of_int b)
let mean xs = ratio (List.fold_left ( +. ) 0.0 xs) (float_of_int (List.length xs))

(* Host times are scaled to reference speed by [scale]. *)
let metrics acc ~scale ~(st : Measure.setup) ~(golden : Measure.golden) =
  let ns name = scale *. float_of_int (Spans.total_ns acc.spans name) in
  (* mean duration of the spans called [name], in ns *)
  let per name = ratio (ns name) (float_of_int (Spans.count acc.spans name)) in
  let offered = float_of_int acc.offered in
  let lookups = acc.hits + acc.misses in
  let device_metrics =
    List.concat_map
      (fun (p, d) ->
        let k s = Printf.sprintf "device.%s.%s" p s in
        let calls = float_of_int d.calls in
        [
          metric (k "host_us_p50") "us" (scale *. pct d.host_us 50.0);
          metric (k "host_us_p99") "us" (scale *. pct d.host_us 99.0);
          metric (k "minor_words_per_call") "words" (ratio d.words calls);
          metric (k "sim_service_us_p50") "us" (pct d.service_us 50.0);
          metric (k "sim_service_us_p999") "us" (pct d.service_us 99.9);
          metric (k "write_bytes_per_call") "B" (ratio (float_of_int d.write_bytes) calls);
          metric (k "launches_per_call") "count" (ratio (float_of_int d.launches) calls);
          metric (k "failed") "count" (float_of_int d.failed);
        ])
      acc.devices
  in
  let calib cls =
    metric ("scheduler.calib_mre." ^ cls) "ratio"
      (mean (List.filter_map (fun (c, m) -> if c = cls then Some m else None) acc.calib))
  in
  (* replay wall time the traced layers do not account for *)
  let children = ns "admission" +. ns "request" +. ns "telemetry.observer" in
  [
    metric "loadgen.gen_s" "s" (scale *. st.Measure.gen_s);
    metric "admission.ns_per_call" "ns" (per "admission");
    metric "admission.shed_rate" "ratio" (ratio_i acc.shed_rate acc.verdicts);
    metric "admission.shed_load" "ratio" (ratio_i acc.shed_load acc.verdicts);
    metric "kernel_cache.lookups" "count" (float_of_int lookups);
    metric "kernel_cache.hit_ratio" "ratio" (ratio_i acc.hits lookups);
    metric "kernel_cache.hit_us" "us" (scale *. mean acc.hit_us);
    metric "kernel_cache.miss_us" "us" (scale *. mean acc.miss_us);
    metric "kernel_cache.evictions" "count" (float_of_int acc.evictions);
    metric "kernel_cache.compile_s" "s" (scale *. acc.compile_s);
  ]
  @ device_metrics
  @ [
      metric "checksum.us_per_call" "us" (per "checksum" /. 1e3);
      metric "residency.hit_ratio" "ratio"
        (ratio_i acc.graph_resident acc.graph_served);
      metric "scheduler.self_us_per_req" "us"
        (((scale *. acc.wall_untraced *. 1e9) -. children) /. 1e3 /. offered);
      metric "scheduler.queue_wait_us_p50" "us" (pct acc.queue_wait_us 50.0);
      metric "scheduler.queue_wait_us_p999" "us" (pct acc.queue_wait_us 99.9);
      metric "scheduler.batches" "count" (float_of_int acc.batches);
      metric "scheduler.mean_batch_size" "count" (ratio_i acc.completed acc.batches);
      metric "scheduler.max_queue_depth" "count" (float_of_int acc.max_depth);
      metric "scheduler.conversions" "count" (float_of_int acc.conversions);
      metric "scheduler.retries" "count" (float_of_int acc.retries);
      calib "pcm";
      calib "digital";
      metric "telemetry.observer_ns_per_record" "ns" (per "telemetry.observer");
      metric "telemetry.aggregate_ms" "ms" (scale *. acc.aggregate_s *. 1e3);
      metric "golden.host_us_per_req" "us"
        (ratio (scale *. golden.Measure.golden_s *. 1e6) (float_of_int golden.Measure.sampled));
      metric "trace.overhead_frac" "ratio"
        (ratio (acc.wall_traced -. acc.wall_untraced) acc.wall_untraced);
    ]

let info acc (golden : Measure.golden) =
  [
    ("offered", float_of_int acc.offered);
    ("admission_calls", float_of_int acc.verdicts);
    ("admission_verdict_mismatch", float_of_int acc.verdict_mismatch);
    ("checksum_mismatch", float_of_int acc.checksum_mismatch);
    ("replay_mismatch", float_of_int acc.replay_mismatch);
    ("redrive_differs", float_of_int acc.redrive_differs);
    ("golden_sampled", float_of_int golden.Measure.sampled);
    ("golden_checked", float_of_int golden.Measure.checked);
    ("golden_divergence", float_of_int golden.Measure.divergent);
    ("spans", float_of_int (Spans.length acc.spans));
  ]
  @ List.map
      (fun (p, d) -> ("placed_share." ^ p, ratio_i d.calls acc.completed))
      acc.devices

let run w (size : Measure.size) ~seed =
  let st = Measure.setup w size ~seed in
  let db = st.Measure.db in
  let acc =
    {
      spans = Spans.create ();
      devices = List.map (fun p -> (p, new_device_acc ())) W.profiles;
      offered = 0;
      wall_untraced = 0.0;
      wall_traced = 0.0;
      aggregate_s = 0.0;
      verdicts = 0;
      shed_rate = 0;
      shed_load = 0;
      verdict_mismatch = 0;
      checksum_mismatch = 0;
      replay_mismatch = 0;
      redrive_differs = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      compile_s = 0.0;
      hit_us = [];
      miss_us = [];
      queue_wait_us = [];
      batches = 0;
      completed = 0;
      max_depth = 0;
      conversions = 0;
      retries = 0;
      failed = 0;
      graph_served = 0;
      graph_resident = 0;
      calib = [];
    }
  in
  let golden = ref Measure.no_golden in
  let refs = ref [ reference_s () ] in
  Array.iter
    (fun trace ->
      let t0 = now_s () in
      let untraced = Scheduler.replay ~config:(W.config w ~db ~sink:(ref [])) trace in
      acc.wall_untraced <- acc.wall_untraced +. (now_s () -. t0);
      let replay = Spans.start acc.spans "scheduler.replay" in
      let observe live r =
        Spans.within acc.spans ~parent:replay "telemetry.observer" (fun () -> live r)
      in
      let config = W.config ~observe w ~db ~sink:(ref []) in
      let report = Scheduler.replay ~config trace in
      Spans.stop acc.spans replay;
      acc.wall_traced <-
        acc.wall_traced +. (float_of_int (Spans.duration_ns acc.spans replay) *. 1e-9);
      if fingerprint report <> fingerprint untraced then
        acc.replay_mismatch <- acc.replay_mismatch + 1;
      let a0 = now_s () in
      aggregate report;
      acc.aggregate_s <- acc.aggregate_s +. (now_s () -. a0);
      tally_records w acc report;
      readmit w acc config (Telemetry.records report.Scheduler.telemetry);
      redrive w acc ~db config report;
      golden :=
        Measure.add_golden !golden
          (Measure.golden_check w ~db ~seed ~every:size.Measure.golden_every report);
      refs := reference_s () :: !refs)
    st.Measure.traces;
  let scale = reference_nominal_s /. Stats.percentile !refs ~p:50.0 in
  let nchunks = float_of_int (Array.length st.Measure.traces) in
  acc.aggregate_s <- acc.aggregate_s /. nchunks;
  let g = !golden in
  let result =
    {
      correct =
        Measure.golden_ok g && acc.verdict_mismatch = 0 && acc.checksum_mismatch = 0
        && acc.replay_mismatch = 0;
      attempted = acc.offered;
      failed = acc.failed;
      metrics = metrics acc ~scale ~st ~golden:g;
      info = info acc g;
    }
  in
  (result, acc.spans)
