(* The autotuner: design-space enumeration and pruning, the analytic
   cost model (monotonicity by construction, calibration accuracy
   against the cycle-accurate simulator), the persisted tuning database
   and its consumption by the serving scheduler. *)

module Space = Tdo_tune.Space
module Cost_model = Tdo_tune.Cost_model
module Search = Tdo_tune.Search
module Db = Tdo_tune.Db
module Backend = Tdo_backend.Backend
module Offload = Tdo_tactics.Offload
module Flow = Tdo_cim.Flow
module Kernels = Tdo_polybench.Kernels
module Scheduler = Tdo_serve.Scheduler
module Telemetry = Tdo_serve.Telemetry
module Trace = Tdo_serve.Trace
module Kernel_cache = Tdo_serve.Kernel_cache
module Ast = Tdo_lang.Ast

let bench name = match Kernels.find name with Ok b -> b | Error m -> Alcotest.fail m

let tune_bench ?(axes = Space.smoke_axes) ?(objective = Search.Cycles) ~n name =
  let b = bench name in
  let source = b.Kernels.source ~n in
  let args () = fst (b.Kernels.make_args ~n ~seed:42) in
  match Search.tune ~axes ~objective ~source ~args () with
  | Ok r -> r
  | Error m -> Alcotest.failf "tune %s: %s" name m

(* ---------- Space: enumeration and pruning ---------- *)

let test_space_enumerate () =
  let points = Space.enumerate Space.default_axes in
  Alcotest.(check bool) "non-trivial space" true (List.length points > 20);
  Alcotest.(check bool) "default configuration first" true
    (List.hd points = Offload.default_config);
  let sorted = List.sort_uniq compare points in
  Alcotest.(check int) "no duplicate points" (List.length sorted) (List.length points)

let test_space_prune () =
  let ast = Tdo_lang.Parser.parse_func ((bench "gemm").Kernels.source ~n:16) in
  let points = Space.enumerate Space.default_axes in
  let pruned = Space.prune ~kernel:ast points in
  Alcotest.(check bool) "pruning shrinks the space" true
    (List.length pruned < List.length points);
  Alcotest.(check bool) "pruned is a subset" true
    (List.for_all (fun p -> List.mem p points) pruned);
  Alcotest.(check bool) "default survives pruning" true
    (List.mem Offload.default_config pruned);
  (* every crossbar geometry covers a 16-extent kernel, so they collapse
     to the smallest representative — plus the never-pruned default *)
  let geometries =
    List.sort_uniq compare
      (List.map (fun (p : Space.point) -> (p.Offload.xbar_rows, p.Offload.xbar_cols)) pruned)
  in
  Alcotest.(check bool) "smallest covering geometry kept" true (List.mem (64, 64) geometries);
  Alcotest.(check bool) "intermediate geometry collapsed" false (List.mem (128, 128) geometries)

let test_space_json_roundtrip () =
  let points = Space.enumerate Space.default_axes in
  List.iter
    (fun p ->
      match Space.of_json (Space.to_json p) with
      | Ok p' -> Alcotest.(check bool) (Space.describe p) true (p = p')
      | Error m -> Alcotest.fail m)
    points

(* ---------- Cost model ---------- *)

let plan_for ~n =
  let source = (bench "gemm").Kernels.source ~n in
  let ir, _ = Flow.compile ~options:Flow.o3_loop_tactics source in
  Offload.plan Offload.default_config ir

(* Plans are expensive to rebuild per qcheck iteration; share them. *)
let plan_table = Hashtbl.create 16

let cached_plan n =
  match Hashtbl.find_opt plan_table n with
  | Some p -> p
  | None ->
      let p = plan_for ~n in
      Hashtbl.add plan_table n p;
      p

let qcheck_predicted_cycles_monotone =
  QCheck.Test.make ~count:40
    ~name:"predicted cycles are monotone in the problem size for any non-negative model"
    QCheck.(pair small_int (list_of_size (QCheck.Gen.return 8) (float_bound_inclusive 100.0)))
    (fun (seed, coeffs) ->
      let coeffs = Array.of_list coeffs in
      let model = { Cost_model.coeffs } in
      let n = 4 + (abs seed mod 8) in
      let m = n + 1 + (abs seed mod 6) in
      Cost_model.predict_cycles model (cached_plan n)
      <= Cost_model.predict_cycles model (cached_plan m))

let test_features_monotone () =
  (* the raw counters themselves grow with n — the property the qcheck
     monotonicity argument stands on *)
  List.iter
    (fun (n, m) ->
      let fn = Cost_model.features (cached_plan n) in
      let fm = Cost_model.features (cached_plan m) in
      Array.iteri
        (fun i v ->
          Alcotest.(check bool)
            (Printf.sprintf "feature %s at %d<=%d" Cost_model.feature_names.(i) n m)
            true (v <= fm.(i)))
        fn)
    [ (4, 8); (8, 16); (16, 24) ]

(* Calibration accuracy on the paper's evaluation sizes: fig5 runs gemm
   at n=64, fig6's medium dataset is n=64 across the suite. The fitted
   model must land within 15% mean relative error of the simulator. *)
let test_calibration_accuracy () =
  List.iter
    (fun (name, n) ->
      let r = tune_bench ~axes:Space.default_axes ~n name in
      Alcotest.(check bool)
        (Printf.sprintf "%s@%d calibration error %.1f%% <= 15%%" name n
           (100.0 *. r.Search.calibration_error))
        true
        (r.Search.calibration_error <= 0.15))
    [ ("gemm", 64); ("mvt", 64) ]

let test_search_never_worse () =
  List.iter
    (fun name ->
      let r = tune_bench ~n:16 name in
      Alcotest.(check bool) (name ^ " improvement >= 1") true (Search.improvement r >= 1.0);
      let best = match r.Search.best.Search.measurement with
        | Some m -> m
        | None -> Alcotest.fail "winner not measured"
      in
      let default = match r.Search.default.Search.measurement with
        | Some m -> m
        | None -> Alcotest.fail "default not measured"
      in
      Alcotest.(check bool) (name ^ " tuned cycles <= default") true
        (best.Flow.roi_cycles <= default.Flow.roi_cycles))
    [ "gemm"; "gesummv"; "mvt" ]

let test_gemv_selective_offload_rediscovered () =
  (* the search should rediscover the paper's selective-offload rule:
     GEMV-class kernels are kept on the host, eliminating crossbar
     writes entirely while also running faster *)
  let r = tune_bench ~n:16 "mvt" in
  let best = Option.get r.Search.best.Search.measurement in
  let default = Option.get r.Search.default.Search.measurement in
  Alcotest.(check bool) "default offloads mvt" true (default.Flow.cim_write_bytes > 0);
  Alcotest.(check int) "tuned mvt stays on host" 0 best.Flow.cim_write_bytes;
  Alcotest.(check bool) "and is strictly faster" true
    (best.Flow.roi_cycles < default.Flow.roi_cycles)

(* A search simulates the same points however many domains its two
   pool maps use: with every map on the calling domain, and with two
   domains interleaving the simulations, one [Search.tune] call picks
   the same point after the same number of simulations, measured
   alike. *)
let test_search_same_on_one_and_two_domains () =
  let tune () = tune_bench ~n:16 "mvt" in
  Tdo_util.Pool.set_sequential (Some true);
  let sequential = Fun.protect ~finally:(fun () -> Tdo_util.Pool.set_sequential None) tune in
  let parallel =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "TDO_DOMAINS" "")
      (fun () ->
        Unix.putenv "TDO_DOMAINS" "2";
        tune ())
  in
  let measurements (r : Search.result) =
    List.map (fun (e : Search.evaluation) -> (e.Search.point, e.Search.measurement)) r.Search.evaluations
  in
  Alcotest.(check bool) "same best point" true
    (sequential.Search.best.Search.point = parallel.Search.best.Search.point);
  Alcotest.(check int) "same simulations" sequential.Search.simulated parallel.Search.simulated;
  Alcotest.(check bool) "same best measurement" true
    (sequential.Search.best.Search.measurement = parallel.Search.best.Search.measurement);
  Alcotest.(check bool) "same measurements" true (measurements sequential = measurements parallel)

(* ---------- Tuning database ---------- *)

let test_db_roundtrip () =
  let r_gemm = tune_bench ~n:16 "gemm" in
  let r_mvt = tune_bench ~n:16 "mvt" in
  let db =
    Db.add (Db.add Db.empty (Db.entry_of_result ~n:16 r_gemm)) (Db.entry_of_result ~n:16 r_mvt)
  in
  let path = Filename.temp_file "tdo_tune_db" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Db.save db path;
      match Db.load path with
      | Error m -> Alcotest.fail m
      | Ok db' ->
          Alcotest.(check int) "size round-trips" (Db.size db) (Db.size db');
          Alcotest.(check bool) "entries round-trip" true (Db.entries db = Db.entries db'))

let test_db_missing_file_is_empty () =
  match Db.load "/nonexistent/path/tune.db.json" with
  | Ok db -> Alcotest.(check int) "missing file loads empty" 0 (Db.size db)
  | Error m -> Alcotest.fail m

let test_db_lookup_and_clamp () =
  let r = tune_bench ~n:16 "gemm" in
  let entry = Db.entry_of_result ~n:16 r in
  let entry = { entry with Db.config = { entry.Db.config with Offload.xbar_rows = 256; xbar_cols = 256 } } in
  let db = Db.add Db.empty entry in
  let ast = Tdo_lang.Parser.parse_func ((bench "gemm").Kernels.source ~n:16) in
  (match Db.find db (Tdo_lang.Ast.structural_digest ast) with
  | None -> Alcotest.fail "structural lookup missed"
  | Some e -> Alcotest.(check string) "lookup hits the entry" entry.Db.digest e.Db.digest);
  (match Db.config_for ~device:(64, 64) db (Tdo_lang.Ast.structural_digest ast) with
  | None -> Alcotest.fail "config_for missed"
  | Some c ->
      Alcotest.(check int) "rows clamped to device" 64 c.Offload.xbar_rows;
      Alcotest.(check int) "cols clamped to device" 64 c.Offload.xbar_cols);
  let other = Tdo_lang.Parser.parse_func ((bench "gemm").Kernels.source ~n:24) in
  Alcotest.(check bool) "different size misses" true
    (Db.config_for db (Tdo_lang.Ast.structural_digest other) = None)

(* Entries are keyed by (digest, device class): a configuration tuned
   on the analog crossbar must be refused — not clamped — when the
   kernel is compiled for another class, and each class resolves only
   its own entry. *)
let test_db_class_refusal () =
  let r = tune_bench ~n:16 "gemm" in
  let pcm_entry = Db.entry_of_result ~n:16 r in
  let db = Db.add Db.empty pcm_entry in
  let digest =
    Tdo_lang.Ast.structural_digest
      (Tdo_lang.Parser.parse_func ((bench "gemm").Kernels.source ~n:16))
  in
  Alcotest.(check bool) "default class resolves its entry" true
    (Db.config_for db digest <> None);
  Alcotest.(check bool) "cross-class transfer refused for digital" true
    (Db.config_for ~cls:Backend.Digital_tile db digest = None);
  Alcotest.(check bool) "refusal even when a device geometry could clamp" true
    (Db.config_for ~device:(64, 64) ~cls:Backend.Digital_tile db digest = None);
  Alcotest.(check bool) "cross-class transfer refused for host" true
    (Db.config_for ~cls:Backend.Host_blas db digest = None);
  (* a digital entry under the same digest coexists and resolves per class *)
  let digital_entry = { pcm_entry with Db.device_class = Backend.Digital_tile } in
  let db = Db.add db digital_entry in
  Alcotest.(check int) "one entry per (digest, class)" 2 (Db.size db);
  Alcotest.(check bool) "digital now resolves its own entry" true
    (Db.config_for ~cls:Backend.Digital_tile db digest <> None);
  (match Db.find ~cls:Backend.Digital_tile db pcm_entry.Db.digest with
  | None -> Alcotest.fail "digital entry not found by digest"
  | Some e ->
      Alcotest.(check bool) "found entry carries its class" true
        (e.Db.device_class = Backend.Digital_tile));
  Alcotest.(check bool) "pcm still resolves independently" true
    (Db.config_for db digest <> None)

(* ---------- Serving with a tuning database ---------- *)

let smoke_trace () =
  match Trace.synthetic ~seed:7 "synthetic-smoke" with
  | Ok t -> t
  | Error m -> Alcotest.fail m

let test_scheduler_tuned_replay_matches_golden () =
  (* the smoke trace serves gesummv at n=16; tune exactly that kernel so
     the digests line up, then check the tuned replay still matches the
     golden oracle bit-for-bit *)
  let r = tune_bench ~n:16 "gesummv" in
  let db = Db.add Db.empty (Db.entry_of_result ~n:16 r) in
  let trace = smoke_trace () in
  let config =
    { Scheduler.default_config with Scheduler.devices = 2; tuning = Some db }
  in
  let report = Scheduler.replay ~config trace in
  let golden = Scheduler.replay ~config:(Scheduler.golden_config config) trace in
  let total = List.length trace.Trace.requests in
  Alcotest.(check int) "all requests completed" total (Telemetry.summary report.Scheduler.telemetry).Telemetry.completed;
  Alcotest.(check int) "no failures" 0 (Telemetry.summary report.Scheduler.telemetry).Telemetry.failed;
  Alcotest.(check int) "tuned replay matches golden" 0 (Scheduler.divergence report golden).Scheduler.divergent;
  let tuned = (Telemetry.summary report.Scheduler.telemetry).Telemetry.served_tuned in
  Alcotest.(check bool) "tuned requests were served" true (tuned > 0);
  let golden_tuned = (Telemetry.summary golden.Scheduler.telemetry).Telemetry.served_tuned in
  Alcotest.(check int) "oracle compiles with the same database" tuned golden_tuned

let test_scheduler_untuned_counts_zero () =
  let trace = smoke_trace () in
  let config = { Scheduler.default_config with Scheduler.devices = 2 } in
  let report = Scheduler.replay ~config trace in
  Alcotest.(check int) "no tuning database, no tuned requests" 0
    (Telemetry.summary report.Scheduler.telemetry).Telemetry.served_tuned

let test_cache_key_covers_tuned_config () =
  let source = (bench "gesummv").Kernels.source ~n:16 in
  let ast = Tdo_lang.Parser.parse_func source in
  let options = Flow.o3_loop_tactics in
  let tuned_options =
    {
      options with
      Flow.tactics = { options.Flow.tactics with Offload.min_intensity = Some 32.0 };
    }
  in
  Alcotest.(check bool) "tuned and default keys differ" true
    (Kernel_cache.structural_key ~options ast
    <> Kernel_cache.structural_key ~options:tuned_options ast)

let suites =
  [
    ( "tune.space",
      [
        Alcotest.test_case "enumerate" `Quick test_space_enumerate;
        Alcotest.test_case "prune" `Quick test_space_prune;
        Alcotest.test_case "point json roundtrip" `Quick test_space_json_roundtrip;
      ] );
    ( "tune.cost_model",
      [
        Alcotest.test_case "features monotone in n" `Quick test_features_monotone;
        QCheck_alcotest.to_alcotest qcheck_predicted_cycles_monotone;
        Alcotest.test_case "calibration within 15% on fig5/fig6 sizes" `Slow
          test_calibration_accuracy;
      ] );
    ( "tune.search",
      [
        Alcotest.test_case "never worse than default" `Quick test_search_never_worse;
        Alcotest.test_case "rediscovers selective offload" `Quick
          test_gemv_selective_offload_rediscovered;
        Alcotest.test_case "same on one and two domains" `Quick
          test_search_same_on_one_and_two_domains;
      ] );
    ( "tune.db",
      [
        Alcotest.test_case "save/load roundtrip" `Quick test_db_roundtrip;
        Alcotest.test_case "missing file is empty" `Quick test_db_missing_file_is_empty;
        Alcotest.test_case "lookup and device clamping" `Quick test_db_lookup_and_clamp;
        Alcotest.test_case "cross-class configs refused" `Quick test_db_class_refusal;
      ] );
    ( "tune.serving",
      [
        Alcotest.test_case "tuned replay matches golden" `Quick
          test_scheduler_tuned_replay_matches_golden;
        Alcotest.test_case "no database means no tuned requests" `Quick
          test_scheduler_untuned_counts_zero;
        Alcotest.test_case "cache key covers tuned config" `Quick
          test_cache_key_covers_tuned_config;
      ] );
  ]
