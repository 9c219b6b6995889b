open Tdo_reliab
module Abft = Tdo_linalg.Abft
module Prng = Tdo_util.Prng
module Crossbar = Tdo_pcm.Crossbar
module Telemetry = Tdo_serve.Telemetry
module Scheduler = Tdo_serve.Scheduler
module Device = Tdo_serve.Device

(* ---------- ABFT checksum math ---------- *)

let test_abft_known_values () =
  let w = [| [| 1; 2; 3 |]; [| 4; 5; 6 |] |] in
  let rs = Abft.row_sums w in
  Alcotest.(check (array int)) "row sums" [| 6; 15 |] rs;
  let input = [| 10; -1 |] in
  (* x^T W = [10*1-4; 10*2-5; 10*3-6] = [6; 15; 24], sum 45 = 10*6 - 15 *)
  let output = [| 6; 15; 24 |] in
  Alcotest.(check int) "predicted sum" 45 (Abft.predict ~row_sums:rs ~input);
  Alcotest.(check int) "observed sum" 45 (Abft.observe output);
  (match Abft.verify ~row_sums:rs ~input ~input_pos:0 ~output ~output_pos:0
      ~output_len:(Array.length output) with
  | Abft.Pass -> ()
  | Abft.Fail _ -> Alcotest.fail "clean product must pass");
  output.(1) <- output.(1) + 1;
  match Abft.verify ~row_sums:rs ~input ~input_pos:0 ~output ~output_pos:0
      ~output_len:(Array.length output) with
  | Abft.Fail { expected; observed } ->
      Alcotest.(check int) "expected" 45 expected;
      Alcotest.(check int) "observed" 46 observed
  | Abft.Pass -> Alcotest.fail "corrupted product must fail"

let test_abft_rejects_ragged () =
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Abft.row_sums [||]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "ragged rejected" true
    (try
       ignore (Abft.row_sums [| [| 1; 2 |]; [| 3 |] |]);
       false
     with Invalid_argument _ -> true)

let qcheck_abft_detects_any_single_fault =
  QCheck.Test.make
    ~name:"abft passes exact GEMV products and detects any single output perturbation"
    ~count:200 QCheck.small_int (fun seed ->
      let g = Prng.create ~seed in
      let m = 1 + Prng.int g ~bound:12 and n = 1 + Prng.int g ~bound:12 in
      let w = Array.init m (fun _ -> Array.init n (fun _ -> Prng.int g ~bound:256 - 128)) in
      let input = Array.init m (fun _ -> Prng.int g ~bound:256 - 128) in
      let output =
        Array.init n (fun j ->
            let acc = ref 0 in
            for i = 0 to m - 1 do
              acc := !acc + (input.(i) * w.(i).(j))
            done;
            !acc)
      in
      let rs = Abft.row_sums w in
      let clean = Abft.verify ~row_sums:rs ~input ~input_pos:0 ~output ~output_pos:0
      ~output_len:(Array.length output) = Abft.Pass in
      (* perturb one output element by any nonzero delta *)
      let j = Prng.int g ~bound:n in
      let delta = 1 + Prng.int g ~bound:1000 in
      let delta = if Prng.bool g then delta else -delta in
      output.(j) <- output.(j) + delta;
      let caught = Abft.verify ~row_sums:rs ~input ~input_pos:0 ~output ~output_pos:0
      ~output_len:(Array.length output) <> Abft.Pass in
      clean && caught)

(* ---------- fault taxonomy & injection ---------- *)

let test_fault_describe_and_apply () =
  let xb =
    Crossbar.create
      ~config:{ Crossbar.default_config with Crossbar.rows = 16; cols = 16; size_bytes = 256 }
      ()
  in
  let faults =
    [
      Fault.Stuck_at { plane = Crossbar.Msb; row = 1; col = 2; level = 3 };
      Fault.Worn_out { plane = Crossbar.Lsb; row = 4; col = 5; level = 6 };
      Fault.Column_flip { col = 7; bit = 2; ops = 3 };
      Fault.Drift { offset = -2 };
    ]
  in
  List.iter (Fault.apply xb) faults;
  Alcotest.(check bool) "stuck cells registered" true (Crossbar.stuck_fraction xb > 0.0);
  Alcotest.(check int) "flip armed" 3 (Crossbar.flips_remaining xb);
  Alcotest.(check int) "drift set" (-2) (Crossbar.drift xb);
  List.iter (fun f -> Alcotest.(check bool) "describable" true (Fault.describe f <> "")) faults

let test_inject_deterministic () =
  let spec = { Inject.default_spec with Inject.faulty_fraction = 1.0; stuck_cells = 3 } in
  for id = 0 to 3 do
    let a = Inject.sample spec ~device_id:id and b = Inject.sample spec ~device_id:id in
    Alcotest.(check bool) (Printf.sprintf "device %d replays identically" id) true (a = b);
    Alcotest.(check bool) "marked faulty" true (Inject.is_faulty spec ~device_id:id);
    Alcotest.(check int) "fault count" 3 (List.length a)
  done;
  (* distinct devices draw distinct fault placements from their streams *)
  Alcotest.(check bool) "per-device streams differ" true
    (Inject.sample spec ~device_id:0 <> Inject.sample spec ~device_id:1);
  let none = { spec with Inject.faulty_fraction = 0.0 } in
  Alcotest.(check (list string)) "fraction 0 plants nothing" []
    (List.map Fault.describe (Inject.sample none ~device_id:0))

let test_inject_into_device () =
  let spec =
    {
      Inject.default_spec with
      Inject.faulty_fraction = 1.0;
      stuck_cells = 2;
      column_flips = 1;
      drift_offset = 1;
    }
  in
  let dev = Device.create ~id:0 () in
  let planted = Inject.apply_to_device spec dev in
  Alcotest.(check int) "all fault kinds planted" 4 (List.length planted);
  Alcotest.(check bool) "sample agrees with plant" true
    (planted = Inject.sample spec ~device_id:0)

(* ---------- end-to-end campaigns ---------- *)

let small_campaign ?(abft = true) ?(seed = 11) ?(requests = 24) ?(spec = Inject.default_spec) ()
    =
  {
    Campaign.default_config with
    Campaign.requests;
    seed;
    abft;
    spec = { spec with Inject.seed = seed };
  }

let test_campaign_fault_free_baseline () =
  let spec = { Inject.default_spec with Inject.stuck_cells = 0 } in
  let r = Campaign.run ~config:(small_campaign ~spec ()) () in
  let m = r.Campaign.metrics in
  let c = m.Campaign.counts in
  Alcotest.(check int) "no faults injected" 0 m.Campaign.injected_faults;
  Alcotest.(check int) "nothing detected" 0 c.Telemetry.detected_corruptions;
  Alcotest.(check int) "no SDC" 0 m.Campaign.sdc;
  Alcotest.(check (list int)) "nothing quarantined" [] m.Campaign.quarantined;
  Alcotest.(check (float 1e-9)) "no latency overhead" 1.0 m.Campaign.latency_overhead;
  Alcotest.(check (float 1e-9)) "no makespan overhead" 1.0 m.Campaign.makespan_overhead

let test_campaign_detects_and_recovers () =
  let r = Campaign.run ~config:(small_campaign ~seed:11 ~requests:40 ()) () in
  let m = r.Campaign.metrics in
  let c = m.Campaign.counts in
  Alcotest.(check bool) "campaign planted faults" true (m.Campaign.injected_faults > 0);
  Alcotest.(check bool) "guard caught corruptions" true (c.Telemetry.detected_corruptions > 0);
  Alcotest.(check int) "zero silent corruptions" 0 m.Campaign.sdc;
  Alcotest.(check (float 1e-9)) "detection rate 1" 1.0 m.Campaign.detection_rate;
  Alcotest.(check bool) "faulty device quarantined" true (m.Campaign.quarantined <> []);
  Alcotest.(check bool) "requests retried to completion" true
    (c.Telemetry.completed_after_retry > 0);
  (* every request is accounted for by exactly one outcome *)
  Alcotest.(check int) "outcome conservation" c.Telemetry.requests
    (c.Telemetry.completed + c.Telemetry.recovered_host + c.Telemetry.cpu_fallbacks
   + c.Telemetry.rejected + c.Telemetry.failed)

let test_campaign_unguarded_suffers_sdc () =
  (* negative control: same faults, guard off -> corruptions are served *)
  let r = Campaign.run ~config:(small_campaign ~abft:false ~seed:11 ~requests:40 ()) () in
  let m = r.Campaign.metrics in
  let c = m.Campaign.counts in
  Alcotest.(check int) "nothing detected without the guard" 0 c.Telemetry.detected_corruptions;
  Alcotest.(check bool) "silent corruptions reach clients" true (m.Campaign.sdc > 0)

let test_campaign_degrades_to_host () =
  (* every device faulty: retries exhaust the pool and requests must
     degrade to the host interpreter, still with zero SDC *)
  let spec =
    { Inject.default_spec with Inject.faulty_fraction = 1.0; stuck_cells = 4 }
  in
  let r = Campaign.run ~config:(small_campaign ~spec ~requests:20 ()) () in
  let m = r.Campaign.metrics in
  let c = m.Campaign.counts in
  Alcotest.(check bool) "host degradation used" true (c.Telemetry.recovered_host > 0);
  Alcotest.(check int) "still zero SDC" 0 m.Campaign.sdc;
  (* host-served results match the interpreter oracle bit-for-bit *)
  List.iter
    (fun (rec_ : Telemetry.record) ->
      match (rec_.Telemetry.outcome, rec_.Telemetry.checksum) with
      | Telemetry.Recovered_host, Some cs ->
          let oracle = Campaign.interp_checksum rec_.Telemetry.request in
          Alcotest.(check (option string)) "recovered output = interpreter" (Some cs) oracle
      | _ -> ())
    (Telemetry.records r.Campaign.faulty.Scheduler.telemetry)

let test_campaign_telemetry_summary () =
  let r = Campaign.run ~config:(small_campaign ~seed:11 ~requests:40 ()) () in
  let s = Telemetry.summary r.Campaign.faulty.Scheduler.telemetry in
  Alcotest.(check int) "summary requests" 40 s.Telemetry.requests;
  Alcotest.(check int) "summary retries = campaign detected"
    r.Campaign.metrics.Campaign.counts.Telemetry.detected_corruptions s.Telemetry.detected_corruptions;
  let trace = Telemetry.chrome_trace r.Campaign.faulty.Scheduler.telemetry in
  Alcotest.(check bool) "chrome trace carries the outcome summary" true
    (let needle = "outcome-summary" in
     let n = String.length needle and m = String.length trace in
     let rec go i = i + n <= m && (String.sub trace i n = needle || go (i + 1)) in
     go 0)

(* The acceptance property: with the guard on, campaigns planting a
   single stuck-at fault per faulty device across the PolyBench
   GEMM/GEMV mix never serve a silent corruption — every corrupted
   offload is detected and the recovered result matches its oracle. *)
let qcheck_single_fault_zero_sdc =
  QCheck.Test.make ~name:"abft-guarded single-fault campaigns have zero SDC" ~count:6
    QCheck.(int_bound 1000)
    (fun seed ->
      let config = small_campaign ~seed ~requests:16 () in
      let r = Campaign.run ~config () in
      let m = r.Campaign.metrics in
      let c = m.Campaign.counts in
      m.Campaign.sdc = 0
      && m.Campaign.detection_rate = 1.0
      && c.Telemetry.requests
         = c.Telemetry.completed + c.Telemetry.recovered_host + c.Telemetry.cpu_fallbacks
           + c.Telemetry.rejected + c.Telemetry.failed)

let suites =
  [
    ( "reliab.abft",
      [
        Alcotest.test_case "known values" `Quick test_abft_known_values;
        Alcotest.test_case "rejects ragged input" `Quick test_abft_rejects_ragged;
        QCheck_alcotest.to_alcotest qcheck_abft_detects_any_single_fault;
      ] );
    ( "reliab.inject",
      [
        Alcotest.test_case "taxonomy apply/describe" `Quick test_fault_describe_and_apply;
        Alcotest.test_case "deterministic sampling" `Quick test_inject_deterministic;
        Alcotest.test_case "plants into a device" `Quick test_inject_into_device;
      ] );
    ( "reliab.campaign",
      [
        Alcotest.test_case "fault-free baseline" `Quick test_campaign_fault_free_baseline;
        Alcotest.test_case "detects and recovers" `Quick test_campaign_detects_and_recovers;
        Alcotest.test_case "unguarded suffers SDC" `Quick test_campaign_unguarded_suffers_sdc;
        Alcotest.test_case "degrades to host oracle" `Quick test_campaign_degrades_to_host;
        Alcotest.test_case "telemetry summary" `Quick test_campaign_telemetry_summary;
        QCheck_alcotest.to_alcotest qcheck_single_fault_zero_sdc;
      ] );
  ]
