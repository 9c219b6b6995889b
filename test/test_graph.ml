(* The graph workload subsystem: multi-kernel DAG programs, their text
   codec, composed-source execution, dependence-edge inference against
   the region analysis, and cross-request weight residency (pinned
   tiles survive same-tenant/model requests, never cross tenants). *)

module Graph = Tdo_graph.Graph
module Kernels = Tdo_polybench.Kernels
module Interp = Tdo_lang.Interp
module Mat = Tdo_linalg.Mat
module Depgraph = Tdo_analysis.Depgraph
module Backend = Tdo_backend.Backend
module Scheduler = Tdo_serve.Scheduler
module Telemetry = Tdo_serve.Telemetry
module Trace = Tdo_serve.Trace
module Device = Tdo_serve.Device
module Kernel_cache = Tdo_serve.Kernel_cache
module Workload = Tdo_loadgen.Workload

let mlp4 = Graph.mlp ~layers:4 ()
let attn = Graph.attention ()

let checksum mats =
  let b = Buffer.create 256 in
  List.iter (Mat.iteri ~f:(fun _ _ v -> Buffer.add_int64_le b (Int64.bits_of_float v))) mats;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---------- construction and validation ---------- *)

let test_make_rejects_invalid () =
  let layer lname op ins out = { Graph.lname; op; ins; out } in
  let expect_error what = function
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected rejection" what
  in
  expect_error "cycle"
    (Graph.make ~name:"cyc" ~inputs:[ "x" ]
       [ layer "a" Graph.Add [ "x"; "h2" ] "h1"; layer "b" Graph.Add [ "h1"; "x" ] "h2" ]);
  expect_error "undefined operand"
    (Graph.make ~name:"undef" ~inputs:[ "x" ] [ layer "a" Graph.Add [ "x"; "nope" ] "h" ]);
  expect_error "duplicate output"
    (Graph.make ~name:"dup" ~inputs:[ "x" ]
       [ layer "a" Graph.Dense [ "W"; "x" ] "h"; layer "b" Graph.Dense [ "V"; "x" ] "h" ]);
  expect_error "weight aliases activation"
    (Graph.make ~name:"alias" ~inputs:[ "x" ] [ layer "a" Graph.Dense [ "x"; "x" ] "h" ]);
  expect_error "bad identifier"
    (Graph.make ~name:"bad name" ~inputs:[ "x" ] [ layer "a" Graph.Dense [ "W"; "x" ] "h" ])

let test_standard_shapes () =
  Alcotest.(check (list string)) "mlp4 weights" [ "W1"; "W2"; "W3"; "W4" ] (Graph.weights mlp4);
  Alcotest.(check (list string)) "mlp4 outputs" [ "h4" ] (Graph.graph_outputs mlp4);
  Alcotest.(check (list string)) "attn weights" [ "Wq"; "Wk"; "Wv"; "Wo" ] (Graph.weights attn);
  Alcotest.(check (list string)) "attn outputs" [ "y" ] (Graph.graph_outputs attn);
  Alcotest.(check bool) "attn topo order valid" true
    (Graph.valid_order attn (Graph.topo_order attn));
  (* the block has real width: swapping the independent projections is
     still topological, reversing a dependence is not *)
  Alcotest.(check bool) "parallel projections commute" true
    (Graph.valid_order attn [ 2; 1; 0; 3; 4; 5 ]);
  Alcotest.(check bool) "score before projections rejected" false
    (Graph.valid_order attn [ 3; 0; 1; 2; 4; 5 ])

(* ---------- composed source and execution ---------- *)

let test_source_compiles_and_runs () =
  List.iter
    (fun g ->
      let n = 8 in
      let mats = Graph.run_host g ~n ~seed:3 in
      Alcotest.(check int)
        (Graph.kernel_name g ^ " readback arity")
        (List.length (Graph.graph_outputs g))
        (List.length mats);
      List.iter
        (fun m ->
          Alcotest.(check bool) "vector readback" true (Mat.rows m = n && Mat.cols m = 1))
        mats)
    Graph.standard

let test_weights_model_scoped () =
  (* two requests, different seeds: weight bindings bit-identical,
     input bindings different *)
  let n = 6 in
  let args_of seed = fst (Graph.make_args mlp4 ~n ~seed) in
  let a1 = args_of 1 and a2 = args_of 2 in
  let data name args =
    match List.assoc name args with
    | Interp.Varray arr -> Array.copy arr.Interp.data
    | _ -> Alcotest.fail "not an array"
  in
  Alcotest.(check bool) "weights shared across requests" true (data "W1" a1 = data "W1" a2);
  Alcotest.(check bool) "inputs are request-seeded" false (data "x" a1 = data "x" a2);
  (* a run writes its arguments back: a request that scribbles on its
     weights must not change the next request's *)
  let w1 = data "W1" a1 in
  (match List.assoc "W1" a1 with
  | Interp.Varray arr -> Array.fill arr.Interp.data 0 (Array.length arr.Interp.data) 0.0
  | _ -> ());
  Alcotest.(check bool) "each request owns its weights" true (data "W1" (args_of 3) = w1);
  (* the weights are kept for one size at a time: another size gets
     its own, and the first size's come back the same *)
  let other = data "W1" (fst (Graph.make_args mlp4 ~n:(n + 1) ~seed:1)) in
  Alcotest.(check int) "another size, its own shape" ((n + 1) * (n + 1)) (Array.length other);
  Alcotest.(check bool) "the first size unchanged" true (data "W1" (args_of 4) = w1)

let test_topological_order_invariance () =
  (* every valid order of the attention block computes bit-identically
     to the canonical sequential oracle *)
  let n = 8 and seed = 11 in
  let golden = checksum (Graph.run_host attn ~n ~seed) in
  let orders =
    [ [ 2; 1; 0; 3; 4; 5 ]; [ 1; 0; 2; 3; 4; 5 ]; [ 0; 2; 1; 3; 4; 5 ] ]
  in
  List.iter
    (fun order ->
      Alcotest.(check bool) "order is topological" true (Graph.valid_order attn order);
      Alcotest.(check string) "order-invariant result" golden
        (checksum (Graph.run_host ~order attn ~n ~seed)))
    orders

let test_infer_edges_matches_structure () =
  (* region-analysis RAW edges = the name-implied producer→consumer
     edges, on the canonical emission order *)
  match Graph.infer_edges attn ~n:8 with
  | Error m -> Alcotest.fail m
  | Ok edges ->
      let raw =
        List.filter_map
          (fun (s, d, k, a) -> if k = Depgraph.Raw then Some (s, d, a) else None)
          edges
        |> List.sort compare
      in
      let expected =
        (* topo order of attn is declaration order: q k v s w y *)
        [ (0, 3, "q"); (1, 3, "k"); (2, 4, "v"); (3, 4, "s"); (4, 5, "w") ]
      in
      Alcotest.(check bool) "RAW edges match producer→consumer" true
        (raw = List.sort compare expected)

let test_find_bench () =
  (match Graph.find_bench "graph:mlp4" with
  | Ok b -> Alcotest.(check string) "graph bench name" "graph:mlp4" b.Kernels.name
  | Error m -> Alcotest.fail m);
  (match Graph.find_bench "gemm" with
  | Ok b -> Alcotest.(check string) "polybench passthrough" "gemm" b.Kernels.name
  | Error m -> Alcotest.fail m);
  match Graph.find_bench "graph:nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown graph accepted"

(* ---------- weight residency ---------- *)

let graph_benches = List.map (fun g -> (Graph.kernel_name g, Graph.benchmark g)) Graph.standard

let residency_platform =
  (* enough tiles that a model's whole weight set can stay latched *)
  let base = Tdo_runtime.Platform.default_config in
  let engine = { base.Tdo_runtime.Platform.engine with Tdo_cimacc.Micro_engine.tiles = 4 } in
  { base with Tdo_runtime.Platform.engine }

let run_on_device ~residency bench ~n ~seed dev cache =
  let entry = Kernel_cache.find_or_compile cache (bench.Kernels.source ~n) in
  let args, readback = bench.Kernels.make_args ~n ~seed in
  let residency =
    Option.map (fun tenant -> entry.Kernel_cache.key ^ "#t" ^ string_of_int tenant) residency
  in
  let stats = Device.run ?residency dev entry.Kernel_cache.compiled ~args in
  (stats, checksum (readback ()))

let test_device_residency_skips_reprogramming () =
  let bench = Graph.benchmark mlp4 in
  let n = 8 in
  let dev = Device.create ~platform_config:residency_platform ~id:0 () in
  let cache = Kernel_cache.create () in
  let cold, cs_cold = run_on_device ~residency:(Some 1) bench ~n ~seed:5 dev cache in
  Alcotest.(check bool) "cold run programs weights" true (cold.Device.write_bytes > 0);
  (* same tenant, same model, new activations: programming skipped,
     result identical to an unpinned device *)
  let warm, cs_warm = run_on_device ~residency:(Some 1) bench ~n ~seed:6 dev cache in
  Alcotest.(check int) "resident run programs nothing" 0 warm.Device.write_bytes;
  let oracle = Device.create ~platform_config:residency_platform ~id:1 ~seed:0 () in
  let _, cs_ref5 = run_on_device ~residency:None bench ~n ~seed:5 oracle cache in
  let _, cs_ref6 = run_on_device ~residency:None bench ~n ~seed:6 oracle cache in
  Alcotest.(check string) "cold result matches unpinned" cs_ref5 cs_cold;
  Alcotest.(check string) "resident result matches unpinned" cs_ref6 cs_warm

let test_residency_never_crosses_tenants () =
  let bench = Graph.benchmark mlp4 in
  let n = 8 in
  let dev = Device.create ~platform_config:residency_platform ~id:0 () in
  let cache = Kernel_cache.create () in
  let _ = run_on_device ~residency:(Some 1) bench ~n ~seed:5 dev cache in
  (* a different tenant's request must reprogram even though the model
     (and hence the weight bytes) coincide: pinned state is policy-
     scoped to the (model, tenant) residency key *)
  let other, _ = run_on_device ~residency:(Some 2) bench ~n ~seed:5 dev cache in
  Alcotest.(check bool) "cross-tenant run reprograms" true (other.Device.write_bytes > 0);
  (* and an unkeyed (non-graph) run always invalidates *)
  let _ = run_on_device ~residency:(Some 2) bench ~n ~seed:7 dev cache in
  let unkeyed, _ = run_on_device ~residency:None bench ~n ~seed:8 dev cache in
  Alcotest.(check bool) "unkeyed run reprograms" true (unkeyed.Device.write_bytes > 0)

let test_residency_cleared_on_convert_and_quarantine () =
  let bench = Graph.benchmark mlp4 in
  let n = 8 in
  let cache = Kernel_cache.create () in
  let dual = Device.create ~platform_config:residency_platform ~backend:Backend.dual ~id:0 () in
  let _ = Device.convert dual ~to_compute:true in
  let _ = run_on_device ~residency:(Some 1) bench ~n ~seed:5 dual cache in
  Alcotest.(check bool) "resident after clean run" true (Device.resident dual <> None);
  let _ = Device.convert dual ~to_compute:false in
  Alcotest.(check bool) "revert clears residency" true (Device.resident dual = None);
  let _ = Device.convert dual ~to_compute:true in
  let again, _ = run_on_device ~residency:(Some 1) bench ~n ~seed:6 dual cache in
  Alcotest.(check bool) "post-revert run reprograms" true (again.Device.write_bytes > 0);
  Device.quarantine dual ~rows:(0, 2);
  Alcotest.(check bool) "quarantine clears residency" true (Device.resident dual = None)

(* ---------- graph serving through the scheduler ---------- *)

let graph_trace ~requests ~tenants ~n ~seed =
  let req id tenant =
    {
      Trace.id;
      kernel = "graph:mlp4";
      n;
      seed = seed + id;
      arrival_ps = id * 1000;
      deadline_ps = None;
      tenant;
      slo = Trace.Interactive;
    }
  in
  {
    Trace.name = "graph-test";
    seed;
    requests = List.init requests (fun i -> req i (i mod tenants));
  }

let scheduler_config ~residency =
  {
    Scheduler.default_config with
    Scheduler.platform_config = residency_platform;
    graphs = graph_benches;
    graph_residency = residency;
    devices = 2;
  }

let completed_write_bytes report =
  List.fold_left
    (fun acc (r : Telemetry.record) ->
      match r.Telemetry.outcome with
      | Telemetry.Completed -> acc + r.Telemetry.write_bytes
      | _ -> acc)
    0
    (Telemetry.records report.Scheduler.telemetry)

let test_scheduler_residency_amortises_writes () =
  let trace = graph_trace ~requests:24 ~tenants:1 ~n:8 ~seed:100 in
  let pinned = Scheduler.replay ~config:(scheduler_config ~residency:true) trace in
  let unpinned = Scheduler.replay ~config:(scheduler_config ~residency:false) trace in
  Alcotest.(check int) "all served (pinned)" 24 (Telemetry.summary pinned.Scheduler.telemetry).Telemetry.completed;
  Alcotest.(check int) "all served (unpinned)" 24 (Telemetry.summary unpinned.Scheduler.telemetry).Telemetry.completed;
  let wp = completed_write_bytes pinned and wu = completed_write_bytes unpinned in
  Alcotest.(check bool)
    (Printf.sprintf "residency amortises weight writes (%d vs %d)" wp wu)
    true
    (wp * 5 <= wu);
  (* pinning must not change a single result *)
  Alcotest.(check int) "pinned == unpinned outputs" 0 (Scheduler.divergence pinned unpinned).Scheduler.divergent

let test_scheduler_residency_multi_tenant_golden () =
  let trace = graph_trace ~requests:30 ~tenants:2 ~n:8 ~seed:200 in
  let report = Scheduler.replay ~config:(scheduler_config ~residency:true) trace in
  let golden_config = Scheduler.golden_config (scheduler_config ~residency:true) in
  Alcotest.(check bool) "golden config disables residency" false
    golden_config.Scheduler.graph_residency;
  let golden = Scheduler.replay ~config:golden_config trace in
  Alcotest.(check int) "0 divergence vs sequential oracle" 0
    (Scheduler.divergence report golden).Scheduler.divergent

(* ---------- graph tenants in the load generator ---------- *)

let test_graph_tenants () =
  let tenants = Workload.graph_tenants ~n:8 ~total_rate_rps:5000.0 () in
  let trace = Workload.generate ~seed:9 ~count:60 tenants in
  Alcotest.(check int) "requested count" 60 (List.length trace.Trace.requests);
  List.iter
    (fun (r : Trace.request) ->
      match Graph.find_bench r.Trace.kernel with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m)
    trace.Trace.requests;
  let kernels =
    List.sort_uniq compare (List.map (fun (r : Trace.request) -> r.Trace.kernel) trace.Trace.requests)
  in
  Alcotest.(check bool) "both models in the mix" true (List.length kernels >= 2)

let suites =
  [
    ( "graph",
      [
        Alcotest.test_case "make rejects invalid graphs" `Quick test_make_rejects_invalid;
        Alcotest.test_case "standard model shapes" `Quick test_standard_shapes;
        Alcotest.test_case "composed source runs" `Quick test_source_compiles_and_runs;
        Alcotest.test_case "weights are model-scoped" `Quick test_weights_model_scoped;
        Alcotest.test_case "topological-order invariance" `Quick
          test_topological_order_invariance;
        Alcotest.test_case "inferred edges match structure" `Quick
          test_infer_edges_matches_structure;
        Alcotest.test_case "find_bench resolves graphs and kernels" `Quick test_find_bench;
      ] );
    ( "graph-residency",
      [
        Alcotest.test_case "resident device skips reprogramming" `Quick
          test_device_residency_skips_reprogramming;
        Alcotest.test_case "residency never crosses tenants" `Quick
          test_residency_never_crosses_tenants;
        Alcotest.test_case "convert/quarantine clear residency" `Quick
          test_residency_cleared_on_convert_and_quarantine;
        Alcotest.test_case "scheduler amortises weight writes" `Quick
          test_scheduler_residency_amortises_writes;
        Alcotest.test_case "multi-tenant graph replay matches golden" `Quick
          test_scheduler_residency_multi_tenant_golden;
        Alcotest.test_case "graph tenants generate servable mixes" `Quick test_graph_tenants;
      ] );
  ]
