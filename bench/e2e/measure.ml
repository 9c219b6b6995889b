(* The end-to-end run: set up, replay the run's chunks, derive the
   end-to-end metrics from their records, and check sampled outputs
   against the golden oracle. *)

module W = Workloads
module Scheduler = Tdo_serve.Scheduler
module Telemetry = Tdo_serve.Telemetry
module Trace = Tdo_serve.Trace
module Backend = Tdo_backend.Backend
module Stats = Tdo_util.Stats
module Pool = Tdo_util.Pool
module Time_base = Tdo_sim.Time_base
open Results

(* How much a run replays: [chunks] chunks of [per_chunk] requests, and
   one served request in [golden_every] checked against the oracle. *)
type size = { chunks : int; per_chunk : int; golden_every : int }

(* As many chunks as take [seconds] of host time on the reference
   machine. The count depends on [seconds] only, never on how fast this
   run goes, so the same seed always replays the same requests. *)
let full w ~seconds =
  {
    chunks = max 1 (int_of_float (Float.round (seconds /. w.W.chunk_s)));
    per_chunk = w.W.chunk;
    golden_every = 10;
  }

(* About 300 requests per workload, every served request checked. *)
let smoke = { chunks = 2; per_chunk = 150; golden_every = 1 }

type setup = { db : Tdo_tune.Db.t; traces : Trace.t array; gen_s : float; setup_s : float }

(* Tuning database, the run's chunk traces, and an untimed warm-up
   replay of a quarter chunk; timed at reference speed. *)
let setup_once w size ~seed =
  let before = reference_s () in
  let t0 = now_s () in
  let db = W.build_tuning_db () in
  let g0 = now_s () in
  let traces =
    Array.init size.chunks (fun chunk -> W.chunk_trace w ~seed ~chunk ~count:size.per_chunk)
  in
  let gen_s = now_s () -. g0 in
  let warm = W.chunk_trace w ~seed ~chunk:size.chunks ~count:(max 1 (size.per_chunk / 4)) in
  let (_ : Scheduler.report) = Scheduler.replay ~config:(W.config w ~db ~sink:(ref [])) warm in
  let t = now_s () -. t0 in
  { db; traces; gen_s; setup_s = at_reference_speed t ~before ~after:(reference_s ()) }

(* Set-up is repeated and its median reported, so that work moved into
   set-up shows despite run-to-run noise. *)
let setup_repeats = 3

let setup w size ~seed =
  let runs = List.init setup_repeats (fun _ -> setup_once w size ~seed) in
  let median = Stats.percentile (List.map (fun s -> s.setup_s) runs) ~p:50.0 in
  { (List.nth runs (setup_repeats - 1)) with setup_s = median }

(* ---------- golden check ---------- *)

type golden = { sampled : int; checked : int; divergent : int; golden_s : float }

let no_golden = { sampled = 0; checked = 0; divergent = 0; golden_s = 0.0 }

let add_golden a b =
  {
    sampled = a.sampled + b.sampled;
    checked = a.checked + b.checked;
    divergent = a.divergent + b.divergent;
    golden_s = a.golden_s +. b.golden_s;
  }

(* One served request in [every], chosen by a seeded hash of its id. *)
let sampled ~seed ~every id = every <= 1 || Hashtbl.hash (seed, id) mod every = 0

(* For each compute class, replay the oracle on the sampled requests
   that completed on that class and compare checksums. A sampled
   request counts as checked when the oracle also completed it on that
   class. *)
let golden_check w ~db ~seed ~every (report : Scheduler.report) =
  let sample =
    List.filter
      (fun (r : Telemetry.record) ->
        r.Telemetry.outcome = Telemetry.Completed
        && sampled ~seed ~every r.Telemetry.request.Trace.id)
      (Telemetry.records report.Scheduler.telemetry)
  in
  let config = W.config w ~db ~sink:(ref []) in
  List.fold_left
    (fun acc (profile : Backend.profile) ->
      let mine =
        List.filter (fun r -> Scheduler.record_class r = Some profile.Backend.cls) sample
      in
      if mine = [] then acc
      else begin
        let trace =
          {
            report.Scheduler.trace with
            Trace.requests = List.map (fun (r : Telemetry.record) -> r.Telemetry.request) mine;
          }
        in
        let t0 = now_s () in
        Pool.set_sequential (Some true);
        let oracle =
          Fun.protect
            ~finally:(fun () -> Pool.set_sequential None)
            (fun () -> Scheduler.replay ~config:(Scheduler.golden_config ~profile config) trace)
        in
        let golden_s = now_s () -. t0 in
        let by_id = Hashtbl.create 256 in
        List.iter
          (fun (g : Telemetry.record) -> Hashtbl.replace by_id g.Telemetry.request.Trace.id g)
          (Telemetry.records oracle.Scheduler.telemetry);
        let checked, divergent =
          List.fold_left
            (fun (c, d) (r : Telemetry.record) ->
              match Hashtbl.find_opt by_id r.Telemetry.request.Trace.id with
              | Some g
                when g.Telemetry.outcome = Telemetry.Completed
                     && Scheduler.record_class g = Some profile.Backend.cls
                     && g.Telemetry.checksum <> None ->
                  (c + 1, if g.Telemetry.checksum <> r.Telemetry.checksum then d + 1 else d)
              | _ -> (c, d))
            (0, 0) mine
        in
        add_golden acc { sampled = List.length mine; checked; divergent; golden_s }
      end)
    no_golden [ Backend.pcm; Backend.digital ]

let golden_ok g = g.divergent = 0 && float_of_int g.checked >= 0.95 *. float_of_int g.sampled

(* ---------- end-to-end metrics ---------- *)

type tally = {
  mutable offered : int;
  mutable served : int;
  mutable good : int;
  mutable shed : int;
  mutable rejected : int;
  mutable failed : int;
  mutable fallbacks : int;
  mutable lat_us : float list;
  mutable makespan_s : float;
  mutable energy_j : float;
  mutable write_bytes : int;
}

let new_tally () =
  {
    offered = 0;
    served = 0;
    good = 0;
    shed = 0;
    rejected = 0;
    failed = 0;
    fallbacks = 0;
    lat_us = [];
    makespan_s = 0.0;
    energy_j = 0.0;
    write_bytes = 0;
  }

let us_of_ps ps = float_of_int ps /. float_of_int Time_base.ps_per_us

let tally_report w t (r : Scheduler.report) =
  List.iter
    (fun (rc : Telemetry.record) ->
      t.offered <- t.offered + 1;
      if Telemetry.served rc then begin
        t.served <- t.served + 1;
        t.lat_us <- us_of_ps (Telemetry.latency_ps rc) :: t.lat_us;
        t.write_bytes <- t.write_bytes + rc.Telemetry.write_bytes
      end;
      if W.good w rc then t.good <- t.good + 1;
      match rc.Telemetry.outcome with
      | Telemetry.Shed _ -> t.shed <- t.shed + 1
      | Telemetry.Rejected_overloaded -> t.rejected <- t.rejected + 1
      | Telemetry.Failed _ -> t.failed <- t.failed + 1
      | Telemetry.Cpu_fallback | Telemetry.Recovered_host -> t.fallbacks <- t.fallbacks + 1
      | Telemetry.Completed -> ())
    (Telemetry.records r.Scheduler.telemetry);
  t.makespan_s <- t.makespan_s +. (us_of_ps r.Scheduler.makespan_ps *. 1e-6);
  t.energy_j <-
    List.fold_left
      (fun acc (d : Scheduler.device_report) -> acc +. d.Scheduler.dev_energy_j)
      t.energy_j r.Scheduler.devices

let ratio a b = if b = 0.0 then 0.0 else a /. b

let pct xs p = match xs with [] -> 0.0 | _ -> Stats.percentile xs ~p

(* Samples beyond percentile [p] of [n]. *)
let beyond n p = int_of_float (float_of_int n *. (1.0 -. (p /. 100.0)))

let sim_metrics t =
  let served = float_of_int t.served in
  [
    metric "sim_mean_us" "us" (ratio (List.fold_left ( +. ) 0.0 t.lat_us) served);
    metric "sim_p99_us" "us" (pct t.lat_us 99.0);
    metric "sim_goodput_rps" "1/s" (ratio (float_of_int t.good) t.makespan_s);
    metric "slo_met_frac" "ratio" (ratio (float_of_int t.good) (float_of_int t.offered));
    metric "sim_energy_uj_per_req" "uJ" (ratio (t.energy_j *. 1e6) served);
    metric "sim_write_bytes_per_req" "B" (ratio (float_of_int t.write_bytes) served);
  ]

let tally_info t =
  [
    ("offered", float_of_int t.offered);
    ("served", float_of_int t.served);
    ("shed", float_of_int t.shed);
    ("rejected", float_of_int t.rejected);
    ("failed", float_of_int t.failed);
    ("fallbacks", float_of_int t.fallbacks);
    (* the median is no metric: under overload it is the unqueued
       service time of the most popular kernel, the same for every seed *)
    ("sim_p50_us", pct t.lat_us 50.0);
    ("latency_samples", float_of_int t.served);
    ("p99_samples_beyond", float_of_int (beyond t.served 99.0));
    (* arrivals are admitted at their trace timestamps in simulated
       time, so the generator is never late *)
    ("generator_lateness_us", 0.0);
  ]

(* ---------- the run ---------- *)

let bytes_reachable v = float_of_int (Obj.reachable_words (Obj.repr v) * (Sys.word_size / 8))

(* Each chunk replay is timed between two reference timings, and the
   run reports the median of the chunks' times at reference speed. *)
let run w size ~seed =
  let st = setup w size ~seed in
  let db = st.db in
  let tally = new_tally () in
  let golden = ref no_golden in
  let per_req_us = ref [] and raw_us = ref [] in
  let minor_words = ref 0.0 and retained = ref 0.0 in
  let before = ref (reference_s ()) in
  Array.iter
    (fun trace ->
      let config = W.config w ~db ~sink:(ref []) in
      let offered = float_of_int (List.length trace.Trace.requests) in
      let m0 = (Gc.quick_stat ()).Gc.minor_words in
      let t0 = now_s () in
      let r = Scheduler.replay ~config trace in
      let us = (now_s () -. t0) *. 1e6 /. offered in
      minor_words := !minor_words +. ((Gc.quick_stat ()).Gc.minor_words -. m0);
      let after = reference_s () in
      per_req_us := at_reference_speed us ~before:!before ~after :: !per_req_us;
      raw_us := us :: !raw_us;
      retained := !retained +. bytes_reachable r;
      tally_report w tally r;
      golden := add_golden !golden (golden_check w ~db ~seed ~every:size.golden_every r);
      before := reference_s ())
    st.traces;
  let offered = float_of_int tally.offered in
  let metrics =
    [
      metric "host_us_per_req" "us" (pct !per_req_us 50.0);
      metric "host_minor_words_per_req" "words" (!minor_words /. offered);
      metric "host_retained_b_per_req" "B" (!retained /. offered);
      metric "setup_s" "s" st.setup_s;
    ]
    @ sim_metrics tally
  in
  let g = !golden in
  let info =
    tally_info tally
    @ [
        ("host_wall_us_per_req", pct !raw_us 50.0);
        ( "host_peak_heap_mb",
          float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 );
        ("chunks", float_of_int size.chunks);
        ("requests_per_chunk", float_of_int size.per_chunk);
        ("golden_sampled", float_of_int g.sampled);
        ("golden_checked", float_of_int g.checked);
        ("golden_divergence", float_of_int g.divergent);
        ("loadgen_gen_s", st.gen_s);
      ]
  in
  { correct = golden_ok g; attempted = tally.offered; failed = tally.failed; metrics; info }
