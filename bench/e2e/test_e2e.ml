(* Properties the benchmark's numbers rest on: the workloads are
   functions of the seed, traced spans nest, and every metric the runs
   print is listed in BENCHMARK.json. *)

open E2e_bench

let tiny = { Measure.chunks = 1; per_chunk = 40; golden_every = 1 }

let traces_follow_seed () =
  List.iter
    (fun (w : Workloads.t) ->
      let encode ~seed =
        Tdo_loadgen.Codec.encode (Workloads.chunk_trace w ~seed ~chunk:0 ~count:200)
      in
      let a = encode ~seed:7 in
      Alcotest.(check string) (w.Workloads.name ^ ": same seed, same bytes") a (encode ~seed:7);
      Alcotest.(check bool)
        (w.Workloads.name ^ ": another seed differs")
        true
        (a <> encode ~seed:8))
    Workloads.all

let nesting_errors_are_found () =
  let s = Spans.create () in
  let p = Spans.start s ~req:1 "request" in
  Spans.within s ~parent:p ~req:1 "device" ignore;
  Spans.stop s p;
  Alcotest.(check (list string)) "well nested" [] (Spans.nesting_errors s);
  Spans.within s ~parent:p ~req:1 "late" ignore;
  Spans.within s ~parent:0 ~req:2 "stranger" ignore;
  Alcotest.(check int) "outside the parent, and another request" 2
    (List.length (Spans.nesting_errors s))

let benchmark () =
  match Results.load_benchmark "../../BENCHMARK.json" with
  | Ok b -> b
  | Error msg -> Alcotest.fail msg

let traced_spans_nest () =
  List.iter
    (fun name ->
      let w = Result.get_ok (Workloads.find name) in
      let r, spans = Layers.run w tiny ~seed:3 in
      Alcotest.(check bool) (name ^ ": outputs reproduced") true r.Results.correct;
      Alcotest.(check bool) (name ^ ": spans recorded") true (Spans.length spans > 100);
      Alcotest.(check (list string)) (name ^ ": spans nest") [] (Spans.nesting_errors spans))
    [ "graph"; "overload" ]

let names_are_listed () =
  let b = benchmark () in
  let e2e = b.Results.end_to_end and layers = b.Results.per_layer in
  Alcotest.(check bool) "at most 16 end-to-end metrics" true (List.length e2e <= 16);
  Alcotest.(check bool) "at most 128 per-layer metrics" true (List.length layers <= 128);
  List.iter
    (fun (s : Results.spec) ->
      let name = s.Results.s_name in
      Alcotest.(check bool) (name ^ " is a valid name") true (Results.valid_name name))
    (e2e @ layers);
  let w = Result.get_ok (Workloads.find "wide-mix") in
  let e = Measure.run w tiny ~seed:5 in
  Alcotest.(check (list string))
    "end-to-end names" [] (Results.check_names e2e e.Results.metrics);
  let l, _ = Layers.run w tiny ~seed:5 in
  Alcotest.(check (list string))
    "per-layer names" [] (Results.check_names layers l.Results.metrics)

let () =
  Alcotest.run "e2e-bench"
    [
      ("workloads", [ Alcotest.test_case "traces follow the seed" `Quick traces_follow_seed ]);
      ( "spans",
        [
          Alcotest.test_case "nesting errors are found" `Quick nesting_errors_are_found;
          Alcotest.test_case "traced spans nest" `Slow traced_spans_nest;
        ] );
      ("names", [ Alcotest.test_case "printed names are listed" `Slow names_are_listed ]);
    ]
