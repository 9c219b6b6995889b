module Arrival = Tdo_loadgen.Arrival
module Workload = Tdo_loadgen.Workload
module Codec = Tdo_loadgen.Codec
module Trace = Tdo_serve.Trace
module Admission = Tdo_serve.Admission
module Prng = Tdo_util.Prng

let ps_per_s = 1e12

(* ---------- arrival processes ---------- *)

let process_gen =
  QCheck.Gen.(
    let rate = map (fun r -> 1000.0 *. float_of_int r) (2 -- 50) in
    oneof
      [
        map (fun rate_rps -> Arrival.Poisson { rate_rps }) rate;
        map2
          (fun base mult ->
            Arrival.Bursty
              {
                base_rps = base;
                burst_rps = float_of_int mult *. base;
                mean_burst_s = 0.02;
                mean_quiet_s = 0.05;
              })
          rate (2 -- 8);
        map2
          (fun base mult ->
            Arrival.Diurnal
              { base_rps = base; peak_rps = float_of_int mult *. base; period_s = 0.2 })
          rate (2 -- 8);
      ])

let process_arb = QCheck.make ~print:Arrival.describe process_gen

(* The long-run empirical rate of every process shape converges on
   mean_rate_rps. Each process runs for the horizon that brings the
   rate estimate's relative standard error down to [rse]:

   - Poisson at rate r: the count over T is Poisson(rT), so
     RSE = 1 / sqrt (rT).
   - Bursty (a two-state MMPP): the quiet and burst dwells form i.i.d.
     renewal cycles of mean length L = q + b (the two mean dwells). The
     renewal-reward CLT gives Var(rate) = V / (T L) with
     V = base q + burst b + (base - m)^2 q^2 + (burst - m)^2 b^2, where
     m is the mean rate: the Poisson noise within the phases plus the
     exponential dwell lengths. The dwell term dominates, so the
     horizon is set in cycles, whatever the rates.
   - Diurnal: thinning yields a Poisson process whose rate integrates
     to m per unit time over whole periods, so RSE = 1 / sqrt (mT) with
     T a whole number of periods.

   With RSE 4%, the 20% bound is five standard errors. *)
let rse = 0.04

let horizon_s p =
  let m = Arrival.mean_rate_rps p in
  match p with
  | Arrival.Poisson _ -> 1.0 /. (m *. rse *. rse)
  | Arrival.Bursty { base_rps; burst_rps; mean_burst_s = b; mean_quiet_s = q } ->
      let v =
        (base_rps *. q) +. (burst_rps *. b)
        +. (((base_rps -. m) *. q) ** 2.0)
        +. (((burst_rps -. m) *. b) ** 2.0)
      in
      v /. ((q +. b) *. m *. m *. rse *. rse)
  | Arrival.Diurnal { period_s; _ } ->
      period_s *. Float.ceil (1.0 /. (m *. rse *. rse *. period_s))

let observed_rate_rps p ~seed =
  let g = Prng.create ~seed in
  let gap = Arrival.gaps_ps p g in
  let horizon_ps = int_of_float (horizon_s p *. ps_per_s) in
  let elapsed = ref 0 and n = ref 0 in
  while !elapsed < horizon_ps do
    elapsed := !elapsed + gap ();
    incr n
  done;
  float_of_int !n /. (float_of_int !elapsed /. ps_per_s)

let qcheck_inter_arrival_mean =
  QCheck.Test.make ~name:"empirical arrival rate matches mean_rate_rps" ~count:12
    QCheck.(pair process_arb small_nat)
    (fun (p, seed) ->
      let expected_rps = Arrival.mean_rate_rps p in
      abs_float (observed_rate_rps p ~seed -. expected_rps) <= 0.20 *. expected_rps)

let qcheck_gaps_deterministic =
  QCheck.Test.make ~name:"same seed, same gap sequence" ~count:20 process_arb (fun p ->
      let run () =
        let g = Prng.create ~seed:99 in
        let gap = Arrival.gaps_ps p g in
        List.init 500 (fun _ -> gap ())
      in
      let a = run () in
      a = run () && List.for_all (fun x -> x >= 1) a)

let test_parse_roundtrip () =
  List.iter
    (fun p ->
      match Arrival.parse (Arrival.describe p) with
      | Ok q -> Alcotest.(check string) "round-trip" (Arrival.describe p) (Arrival.describe q)
      | Error e -> Alcotest.fail e)
    [
      Arrival.Poisson { rate_rps = 25000.0 };
      Arrival.Bursty
        { base_rps = 1000.0; burst_rps = 9000.0; mean_burst_s = 0.05; mean_quiet_s = 0.2 };
      Arrival.Diurnal { base_rps = 500.0; peak_rps = 4000.0; period_s = 1.5 };
    ];
  (match Arrival.parse "poisson:not-a-rate" with
  | Ok _ -> Alcotest.fail "accepted a bogus rate"
  | Error _ -> ());
  match Arrival.parse "sawtooth:1:2" with
  | Ok _ -> Alcotest.fail "accepted an unknown shape"
  | Error _ -> ()

(* ---------- workload generation + trace codec ---------- *)

let test_generate_shape () =
  let tenants = Workload.standard_tenants ~total_rate_rps:30_000.0 () in
  let trace = Workload.generate ~seed:5 ~count:600 tenants in
  Alcotest.(check int) "exact count" 600 (List.length trace.Trace.requests);
  (* dense ids, non-decreasing arrivals, every tenant contributes *)
  let _ =
    List.fold_left
      (fun (expect_id, last_ps) (r : Trace.request) ->
        Alcotest.(check int) "dense ids" expect_id r.Trace.id;
        Alcotest.(check bool) "sorted by arrival" true (r.Trace.arrival_ps >= last_ps);
        (expect_id + 1, r.Trace.arrival_ps))
      (0, 0) trace.Trace.requests
  in
  List.iter
    (fun tenant ->
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d present" tenant)
        true
        (List.exists (fun (r : Trace.request) -> r.Trace.tenant = tenant) trace.Trace.requests))
    [ 1; 2; 3 ];
  (* the interactive tenant owns half the rate, so roughly half the
     requests (generously bounded) *)
  let interactive =
    List.length
      (List.filter (fun (r : Trace.request) -> r.Trace.slo = Trace.Interactive) trace.Trace.requests)
  in
  Alcotest.(check bool) "rate shares show up in the mix" true
    (interactive > 600 * 3 / 10 && interactive < 600 * 7 / 10);
  (* request seeds are unique: replays must not correlate data *)
  let seeds = List.map (fun (r : Trace.request) -> r.Trace.seed) trace.Trace.requests in
  Alcotest.(check int) "unique request seeds" 600 (List.length (List.sort_uniq compare seeds))

let qcheck_generate_deterministic =
  QCheck.Test.make ~name:"same seed, byte-identical encoded trace" ~count:8
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1000))
    (fun seed ->
      let gen () =
        Codec.encode
          (Workload.generate ~seed ~count:300
             (Workload.standard_tenants ~total_rate_rps:20_000.0 ()))
      in
      String.equal (gen ()) (gen ()))

let test_codec_roundtrip () =
  let tenants =
    Workload.standard_tenants
      ~process:(fun _slo rate ->
        Arrival.Bursty
          { base_rps = rate; burst_rps = 6.0 *. rate; mean_burst_s = 0.03; mean_quiet_s = 0.1 })
      ~total_rate_rps:15_000.0 ()
  in
  let trace = Workload.generate ~seed:9 ~count:400 tenants in
  (match Codec.decode (Codec.encode trace) with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
      Alcotest.(check string) "name survives" trace.Trace.name decoded.Trace.name;
      Alcotest.(check int) "seed survives" trace.Trace.seed decoded.Trace.seed;
      Alcotest.(check bool) "requests survive field-for-field" true
        (trace.Trace.requests = decoded.Trace.requests));
  let path = Filename.temp_file "tdo-loadgen" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Codec.write trace ~path;
      match Codec.read ~path with
      | Error e -> Alcotest.fail e
      | Ok decoded ->
          Alcotest.(check bool) "file round-trip" true (trace.Trace.requests = decoded.Trace.requests));
  match Codec.decode "no header here\nreq kernel=gemm n=8" with
  | Ok _ -> Alcotest.fail "accepted a headerless trace"
  | Error _ -> ()

(* ---------- admission against a generated stream ---------- *)

(* Feed a generated open-loop stream straight into a token bucket:
   whatever the arrival pattern, the admitted count can never exceed
   the token budget burst + rate * elapsed. *)
let qcheck_admission_never_exceeds_budget =
  QCheck.Test.make ~name:"admitted <= burst + rate * elapsed" ~count:10 process_arb
    (fun p ->
      let rate_per_s = 0.4 *. Arrival.mean_rate_rps p in
      let burst = 10.0 in
      let policy =
        {
          Admission.per_tenant = [ (1, { Admission.rate_per_s; burst }) ];
          default_bucket = None;
          batch_above = 1.0;
          best_effort_above = 1.0;
        }
      in
      let t = Admission.create policy in
      let g = Prng.create ~seed:3 in
      let gap = Arrival.gaps_ps p g in
      let admitted = ref 0 and clock_ps = ref 0 in
      for id = 0 to 1999 do
        clock_ps := !clock_ps + gap ();
        let r =
          {
            Trace.id;
            kernel = "gemm";
            n = 8;
            seed = id;
            arrival_ps = !clock_ps;
            deadline_ps = None;
            tenant = 1;
            slo = Trace.Interactive;
          }
        in
        match Admission.admit t ~now_ps:!clock_ps ~queue_len:0 ~capacity:0 r with
        | Admission.Admit -> incr admitted
        | Admission.Shed_rate | Admission.Shed_load -> ()
      done;
      let elapsed_s = float_of_int !clock_ps /. ps_per_s in
      float_of_int !admitted <= burst +. (rate_per_s *. elapsed_s) +. 1e-6)

let suites =
  [
    ( "loadgen.arrival",
      [
        Alcotest.test_case "spec parse round-trip" `Quick test_parse_roundtrip;
        QCheck_alcotest.to_alcotest ~long:false qcheck_inter_arrival_mean;
        QCheck_alcotest.to_alcotest ~long:false qcheck_gaps_deterministic;
      ] );
    ( "loadgen.workload",
      [
        Alcotest.test_case "merged multi-tenant trace shape" `Quick test_generate_shape;
        QCheck_alcotest.to_alcotest ~long:false qcheck_generate_deterministic;
        Alcotest.test_case "trace codec round-trip" `Quick test_codec_roundtrip;
      ] );
    ( "loadgen.admission",
      [ QCheck_alcotest.to_alcotest ~long:false qcheck_admission_never_exceeds_budget ] );
  ]
