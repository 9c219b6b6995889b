(* Replays six fixed serving runs and prints, for each, every
   [Scheduler.fields] value exactly ([%h]) and one digest over every
   field of every record (in [Telemetry.records] order), the dual-mode
   conversion events and the adopted calibrations. The dune rule diffs
   the output against [serving.expected], so any change to what the
   scheduler decides or records shows up here. The runs cover:

   - dual-mode drafting and, after a late straggler, reverting;
   - admission's rate and load sheds and an online calibration;
   - graph weight residency, with resident waits and hits;
   - deadlines that expire in the queue ([Cpu_fallback]) behind a
     queue bound that rejects;
   - injected faults: retries, quarantine and [Recovered_host];
   - a golden-oracle replay. *)

module Scheduler = Tdo_serve.Scheduler
module Telemetry = Tdo_serve.Telemetry
module Trace = Tdo_serve.Trace
module Admission = Tdo_serve.Admission
module Backend = Tdo_backend.Backend
module Platform = Tdo_runtime.Platform
module Micro_engine = Tdo_cimacc.Micro_engine
module Workload = Tdo_loadgen.Workload
module Graph = Tdo_graph.Graph
module Campaign = Tdo_reliab.Campaign
module Inject = Tdo_reliab.Inject

let fleet =
  match Backend.parse_fleet "pcm:1,digital:1,dual:1" with
  | Ok profiles -> Some profiles
  | Error msg -> failwith msg

let platform ~tiles =
  let d = Platform.default_config in
  { d with Platform.engine = { d.Platform.engine with Micro_engine.tiles } }

let base = { Scheduler.default_config with Scheduler.fleet; platform_config = platform ~tiles:1 }

let synthetic ?deadline_us name =
  match Trace.synthetic ?deadline_us ~seed:7 name with Ok t -> t | Error msg -> failwith msg

let opt f = function None -> "-" | Some v -> f v

let outcome = function
  | Telemetry.Completed -> "completed"
  | Telemetry.Cpu_fallback -> "cpu_fallback"
  | Telemetry.Recovered_host -> "recovered_host"
  | Telemetry.Rejected_overloaded -> "rejected"
  | Telemetry.Shed reason -> "shed:" ^ Telemetry.shed_reason_name reason
  | Telemetry.Failed msg -> "failed:" ^ msg

let digest (r : Scheduler.report) =
  let b = Buffer.create 4096 in
  let t = r.Scheduler.telemetry in
  List.iter
    (fun (x : Telemetry.record) ->
      let q = x.Telemetry.request in
      Printf.bprintf b "%d %s %d %d %d %s %d %s|%s %s %s %s %b %d %d %d %d %d %b %d %s\n"
        q.Trace.id q.Trace.kernel q.Trace.n q.Trace.seed q.Trace.arrival_ps
        (opt string_of_int q.Trace.deadline_ps)
        q.Trace.tenant (Trace.slo_name q.Trace.slo) (outcome x.Telemetry.outcome)
        (opt string_of_int x.Telemetry.device)
        (opt Fun.id x.Telemetry.profile)
        (opt string_of_int x.Telemetry.batch)
        x.Telemetry.cache_hit x.Telemetry.queue_depth x.Telemetry.start_ps x.Telemetry.finish_ps
        x.Telemetry.service_ps x.Telemetry.retries x.Telemetry.tuned x.Telemetry.write_bytes
        (opt Fun.id x.Telemetry.checksum))
    (Telemetry.records t);
  List.iter
    (fun (c : Telemetry.conversion) ->
      Printf.bprintf b "conv %d %d %s %b %h\n" c.Telemetry.at_ps c.Telemetry.conv_device
        c.Telemetry.conv_profile c.Telemetry.to_compute c.Telemetry.displaced_bytes)
    (Telemetry.conversions t);
  List.iter
    (fun (cls, samples, mre) -> Printf.bprintf b "calib %s %d %h\n" cls samples mre)
    r.Scheduler.calibrations;
  Digest.to_hex (Digest.string (Buffer.contents b))

let print name (r : Scheduler.report) =
  Printf.printf "== %s\n" name;
  List.iter (fun (k, v) -> Printf.printf "%s=%h\n" k v) (Scheduler.fields r);
  Printf.printf "digest=%s\n" (digest r)

(* the load pattern's admission, with bursts small enough for the
   smoke-sized trace to run buckets dry: per-tenant buckets sized at
   1.5x each tenant's share of the sustained rate, SLO-class shedding
   on top *)
let overload_policy ~rate =
  {
    Admission.per_tenant =
      [
        (1, { Admission.rate_per_s = 1.5 *. 0.5 *. rate; burst = 20.0 });
        (2, { Admission.rate_per_s = 1.5 *. 0.3 *. rate; burst = 20.0 });
        (3, { Admission.rate_per_s = 1.5 *. 0.2 *. rate; burst = 20.0 });
      ];
    default_bucket = None;
    batch_above = 0.8;
    best_effort_above = 0.5;
  }

(* the smoke trace plus one request 1 ms after its last arrival: the
   queue has drained by then, so the drafted dual tile reverts *)
let with_straggler (t : Trace.t) =
  let last = List.nth t.Trace.requests (List.length t.Trace.requests - 1) in
  let late =
    { last with Trace.id = last.Trace.id + 1; arrival_ps = last.Trace.arrival_ps + 1_000_000_000 }
  in
  { t with Trace.requests = t.Trace.requests @ [ late ] }

let () =
  let smoke = synthetic "synthetic-smoke" in
  print "synthetic-smoke" (Scheduler.replay ~config:base (with_straggler smoke));
  let rate = 20_000.0 in
  let overload =
    Workload.generate ~seed:8 ~count:300
      (Workload.standard_tenants ~total_rate_rps:(6.0 *. rate) ())
  in
  print "overload"
    (Scheduler.replay
       ~config:
         {
           base with
           Scheduler.admission = Some (overload_policy ~rate);
           queue_capacity = 16;
           calibrate_after = Some 20;
         }
       overload);
  let graph =
    Workload.generate ~seed:7 ~count:300 (Workload.graph_tenants ~total_rate_rps:rate ())
  in
  print "graph"
    (Scheduler.replay
       ~config:
         {
           base with
           Scheduler.platform_config = platform ~tiles:4;
           (* batches of at most 4 split one model's queued requests
              across batches of one wave: a device given the first is
              taken, yet not busy to the resident-wait rule *)
           max_batch = 4;
           graphs = List.map (fun g -> (Graph.kernel_name g, Graph.benchmark g)) Graph.standard;
           graph_residency = true;
         }
       graph);
  print "deadlines"
    (Scheduler.replay
       ~config:{ base with Scheduler.queue_capacity = 16 }
       (synthetic "synthetic-tight"));
  let campaign =
    {
      Campaign.default_config with
      Campaign.requests = 40;
      devices = 3;
      recovery = { Scheduler.max_attempts = 2; quarantine_after = 2 };
      spec = { Inject.default_spec with Inject.seed = 11 };
    }
  in
  print "faults"
    (Scheduler.replay
       ~config:(Campaign.scheduler_config campaign ~faults:true)
       (Campaign.trace_of campaign));
  print "golden-digital"
    (Scheduler.replay ~config:(Scheduler.golden_config ~profile:Backend.digital base) smoke)
