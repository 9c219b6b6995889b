open Tdo_util

let test_prng_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a ~bound:max_int) (Prng.int b ~bound:max_int)
  done

let test_prng_int_bounds () =
  let g = Prng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Prng.int g ~bound:17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_float_bounds () =
  let g = Prng.create ~seed:2 in
  for _ = 1 to 1000 do
    let v = Prng.float g ~bound:3.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 3.5)
  done

let test_prng_float_range () =
  let g = Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Prng.float_range g ~lo:(-2.0) ~hi:5.0 in
    Alcotest.(check bool) "in range" true (v >= -2.0 && v < 5.0)
  done

let test_gaussian_moments () =
  let g = Prng.create ~seed:5 in
  let n = 20_000 in
  let xs = List.init n (fun _ -> Prng.gaussian g ~mu:3.0 ~sigma:2.0) in
  Alcotest.(check bool) "mean near mu" true (Float.abs (Stats.mean xs -. 3.0) < 0.1);
  Alcotest.(check bool) "stddev near sigma" true (Float.abs (Stats.stddev xs -. 2.0) < 0.1)

let check_float name expected actual =
  Alcotest.(check (float 1e-9)) name expected actual

let test_mean () = check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ])
let test_geomean () = check_float "geomean" 4.0 (Stats.geomean [ 2.0; 8.0 ])

let test_geomean_positive_only () =
  Alcotest.check_raises "rejects zero" (Invalid_argument "Stats.geomean: non-positive sample")
    (fun () -> ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_mean_empty () =
  Alcotest.check_raises "rejects empty" (Invalid_argument "Stats.mean: empty list") (fun () ->
      ignore (Stats.mean []))

let test_stddev () = check_float "stddev" 2.0 (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])
let test_minmax () =
  check_float "min" (-1.0) (Stats.minimum [ 3.0; -1.0; 2.0 ]);
  check_float "max" 3.0 (Stats.maximum [ 3.0; -1.0; 2.0 ])

let test_percentile () =
  check_float "median" 2.5 (Stats.percentile [ 1.0; 2.0; 3.0; 4.0 ] ~p:50.0);
  check_float "p0" 1.0 (Stats.percentile [ 1.0; 2.0; 3.0; 4.0 ] ~p:0.0);
  check_float "p100" 4.0 (Stats.percentile [ 1.0; 2.0; 3.0; 4.0 ] ~p:100.0)


let test_table_render () =
  let columns = [ Pretty.column "kernel"; Pretty.column ~align:Pretty.Right "energy" ] in
  let rows = [ [ "gemm"; "1.00" ]; [ "mvt"; "12.50" ] ] in
  let s = Pretty.render ~columns ~rows in
  Alcotest.(check bool) "contains header" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "header + rule + 2 rows (+ trailing)" 5 (List.length lines)

let test_table_arity () =
  Alcotest.check_raises "rejects ragged rows"
    (Invalid_argument "Pretty.render: row arity mismatch") (fun () ->
      ignore (Pretty.render ~columns:[ Pretty.column "a" ] ~rows:[ [ "1"; "2" ] ]))

let test_si_float () =
  Alcotest.(check string) "nano" "3.20n" (Pretty.si_float 3.2e-9);
  Alcotest.(check string) "mega" "42.00M" (Pretty.si_float 42e6);
  Alcotest.(check string) "unit" "1.50" (Pretty.si_float 1.5);
  Alcotest.(check string) "pico" "200.00p" (Pretty.si_float 200e-12)

let qcheck_geomean_between_min_max =
  QCheck.Test.make ~name:"geomean lies between min and max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0.001 1000.0))
    (fun xs ->
      QCheck.assume (xs <> []);
      let g = Tdo_util.Stats.geomean xs in
      g >= Tdo_util.Stats.minimum xs -. 1e-9 && g <= Tdo_util.Stats.maximum xs +. 1e-9)

let qcheck_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 20) (float_range (-100.) 100.)) (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
      QCheck.assume (xs <> []);
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Tdo_util.Stats.percentile xs ~p:lo <= Tdo_util.Stats.percentile xs ~p:hi +. 1e-9)

let suites =
  [
    ( "util.prng",
      [
        Alcotest.test_case "determinism" `Quick test_prng_determinism;
        Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
        Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
        Alcotest.test_case "float range" `Quick test_prng_float_range;
        Alcotest.test_case "gaussian moments" `Slow test_gaussian_moments;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_mean;
        Alcotest.test_case "geomean" `Quick test_geomean;
        Alcotest.test_case "geomean rejects non-positive" `Quick test_geomean_positive_only;
        Alcotest.test_case "mean rejects empty" `Quick test_mean_empty;
        Alcotest.test_case "stddev" `Quick test_stddev;
        Alcotest.test_case "min/max" `Quick test_minmax;
        Alcotest.test_case "percentile" `Quick test_percentile;
        QCheck_alcotest.to_alcotest qcheck_geomean_between_min_max;
        QCheck_alcotest.to_alcotest qcheck_percentile_monotone;
      ] );
    ( "util.pretty",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "arity check" `Quick test_table_arity;
        Alcotest.test_case "si formatting" `Quick test_si_float;
      ] );
  ]

let test_pretty_alignment () =
  let s =
    Tdo_util.Pretty.render
      ~columns:
        [ Tdo_util.Pretty.column "name"; Tdo_util.Pretty.column ~align:Tdo_util.Pretty.Right "v" ]
      ~rows:[ [ "a"; "1" ]; [ "bb"; "22" ] ]
  in
  let lines = String.split_on_char '\n' s in
  let row1 = List.nth lines 2 and row2 = List.nth lines 3 in
  Alcotest.(check bool) "left column padded right" true (String.length row1 = String.length row2);
  Alcotest.(check bool) "right column right-aligned" true
    (String.get row1 (String.length row1 - 1) = '1'
    && String.get row2 (String.length row2 - 1) = '2')

let alignment_suite =
  ("util.alignment", [ Alcotest.test_case "column alignment" `Quick test_pretty_alignment ])

(* ---------- Json: the hand-rolled parser behind reports and the tuning db ---------- *)

let test_json_parse () =
  match Json.parse {| {"a": [1, 2.5, -3e2], "b": "x\n\"y\"", "c": null, "d": true} |} with
  | Error m -> Alcotest.fail m
  | Ok j ->
      let mem k = match Json.member k j with Some v -> v | None -> Alcotest.failf "missing %s" k in
      let num v = match Json.to_float v with Some f -> f | None -> Alcotest.fail "not a number" in
      let a = Json.to_list (mem "a") in
      Alcotest.(check (float 1e-9)) "int" 1.0 (num (List.nth a 0));
      Alcotest.(check (float 1e-9)) "float" 2.5 (num (List.nth a 1));
      Alcotest.(check (float 1e-6)) "exponent" (-300.0) (num (List.nth a 2));
      (match Json.to_string_opt (mem "b") with
      | Some s -> Alcotest.(check string) "escapes" "x\n\"y\"" s
      | None -> Alcotest.fail "b not a string");
      Alcotest.(check bool) "null" true (mem "c" = Json.Null);
      Alcotest.(check bool) "bool" true (mem "d" = Json.Bool true)

let test_json_rejects_malformed () =
  List.iter
    (fun src ->
      match Json.parse src with
      | Ok _ -> Alcotest.failf "accepted malformed %S" src
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "{} trailing" ]

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("name", Json.Str "tune \"quoted\"\n");
        ("xs", Json.Arr [ Json.Num 1.0; Json.Num (-2.25); Json.Null; Json.Bool false ]);
        ("empty", Json.Arr []);
      ]
  in
  match Json.parse (Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "print/parse roundtrip" true (j = j')
  | Error m -> Alcotest.fail m

(* ---------- Bench_report.compare: report-vs-report deltas ---------- *)

let test_bench_report_compare () =
  let baseline_path = Filename.temp_file "tdo_bench_baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove baseline_path with Sys_error _ -> ())
    (fun () ->
      let sec ?(minor_words = 10.0) name wall_s =
        {
          Bench_report.name;
          wall_s;
          minor_words;
          major_words = 5.0;
          promoted_words = 1.0;
          domains = 2;
          seq_wall_s = Some (2.0 *. wall_s);
        }
      in
      Bench_report.write ~path:baseline_path ~extra:[ ("k", 3.5) ]
        ~sections:[ sec "fig6" 2.0; sec "fig5" 1.0; sec "gone" 4.0 ] ();
      (match Bench_report.load_sections ~path:baseline_path with
      | Error m -> Alcotest.fail m
      | Ok secs ->
          Alcotest.(check int) "sections round-trip" 3 (List.length secs);
          let s = List.find (fun (s : Bench_report.section) -> s.name = "fig6") secs in
          Alcotest.(check (float 1e-9)) "wall_s round-trips" 2.0 s.Bench_report.wall_s;
          Alcotest.(check (float 1e-9)) "major_words round-trips" 5.0 s.major_words;
          Alcotest.(check (float 1e-9)) "promoted_words round-trips" 1.0 s.promoted_words;
          Alcotest.(check int) "domains round-trips" 2 s.domains;
          Alcotest.(check bool) "seq_wall_s round-trips" true (s.seq_wall_s = Some 4.0));
      (match Json.of_file baseline_path with
      | Error m -> Alcotest.fail m
      | Ok json ->
          Alcotest.(check (option (float 1e-9))) "extra round-trips" (Some 3.5)
            (Option.bind (Json.member "k" json) Json.to_float));
      let current =
        [ sec "fig6" 1.0; sec ~minor_words:20.0 "fig5" 1.5; sec "new" 9.0 ]
      in
      match Bench_report.compare ~tolerance:0.10 ~baseline:baseline_path current with
      | Error m -> Alcotest.fail m
      | Ok deltas ->
          Alcotest.(check int) "only common sections compared" 2 (List.length deltas);
          let d name = List.find (fun (d : Bench_report.delta) -> d.name = name) deltas in
          let fig6 = d "fig6" in
          Alcotest.(check (float 1e-9)) "speedup" 2.0 fig6.Bench_report.speedup_vs_baseline;
          Alcotest.(check (float 1e-9)) "delta" (-1.0) fig6.Bench_report.delta_s;
          Alcotest.(check bool) "faster is not a regression" false fig6.Bench_report.regression;
          Alcotest.(check bool) "same allocation is not an alloc regression" false
            fig6.Bench_report.alloc_regression;
          let fig5 = d "fig5" in
          Alcotest.(check bool) "50% slower is a regression" true fig5.Bench_report.regression;
          Alcotest.(check bool) "2x allocation is an alloc regression" true
            fig5.Bench_report.alloc_regression;
          let fields = Bench_report.delta_fields deltas in
          Alcotest.(check (float 1e-9)) "flattened speedup" 2.0
            (List.assoc "fig6_speedup_vs_baseline" fields);
          Alcotest.(check (float 1e-9)) "flattened regression flag" 1.0
            (List.assoc "fig5_regression" fields))

let test_bench_report_compare_missing_baseline () =
  match Bench_report.compare ~baseline:"/nonexistent/bench.json" [] with
  | Ok _ -> Alcotest.fail "missing baseline accepted"
  | Error _ -> ()

(* Arrays and objects nest at most 256 deep; a document nested 100,000
   deep, well-formed but for that, is refused without walking it. *)
let test_json_nesting_bounded () =
  let nested ~depth ~opening ~closing ~leaf =
    String.concat "" [ String.concat "" (List.init depth (fun _ -> opening)); leaf;
                       String.make depth closing ]
  in
  let arrays depth = nested ~depth ~opening:"[" ~closing:']' ~leaf:"1" in
  let objects depth = nested ~depth ~opening:"{\"k\":" ~closing:'}' ~leaf:"1" in
  let accepted src = Result.is_ok (Json.parse src) in
  Alcotest.(check bool) "256 arrays" true (accepted (arrays 256));
  Alcotest.(check bool) "257 arrays" false (accepted (arrays 257));
  Alcotest.(check bool) "256 objects" true (accepted (objects 256));
  Alcotest.(check bool) "257 objects" false (accepted (objects 257));
  let deep = arrays 100_000 in
  let t0 = Unix.gettimeofday () in
  let result = Json.parse deep in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match result with
  | Ok _ -> Alcotest.fail "a 100,000-deep array was accepted"
  | Error msg ->
      Alcotest.(check string) "names the bound" "json: at byte 256: nested deeper than 256" msg);
  Alcotest.(check bool) (Printf.sprintf "refused in %.4f s" elapsed) true (elapsed < 0.05)

let json_suite =
  ( "util.json",
    [
      Alcotest.test_case "parse" `Quick test_json_parse;
      Alcotest.test_case "rejects malformed" `Quick test_json_rejects_malformed;
      Alcotest.test_case "print/parse roundtrip" `Quick test_json_roundtrip;
      Alcotest.test_case "nesting is bounded" `Quick test_json_nesting_bounded;
    ] )

let bench_report_suite =
  ( "util.bench_report",
    [
      Alcotest.test_case "compare against baseline report" `Quick test_bench_report_compare;
      Alcotest.test_case "missing baseline is an error" `Quick
        test_bench_report_compare_missing_baseline;
    ] )

let suites = suites @ [ alignment_suite; json_suite; bench_report_suite ]
