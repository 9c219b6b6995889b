(* Benchmark harness: one Bechamel test per paper artefact, plus the
   paper-style tables regenerated after the micro-benchmarks.

     dune exec bench/main.exe              (benchmarks + all tables)
     dune exec bench/main.exe -- tables    (tables only)
     dune exec bench/main.exe -- bench     (benchmarks only)

   BENCH_sim.json has one writer, `experiments bench-json`. *)

open Bechamel
open Toolkit
module Prng = Tdo_util.Prng
module Mat = Tdo_linalg.Mat
module Crossbar = Tdo_pcm.Crossbar
module Cell = Tdo_pcm.Cell
module Platform = Tdo_runtime.Platform
module Api = Tdo_runtime.Api
module Flow = Tdo_cim.Flow
module Experiments = Tdo_cim.Experiments
module Interp = Tdo_lang.Interp

(* ---------- Table I: the crossbar GEMV primitive ---------- *)

let test_table1 =
  let xbar = Crossbar.create () in
  let g = Prng.create ~seed:1 in
  let codes =
    Array.init 256 (fun _ -> Array.init 256 (fun _ -> Prng.int g ~bound:256 - 128))
  in
  Crossbar.program_codes xbar codes;
  let input = Array.init 256 (fun _ -> Prng.int g ~bound:256 - 128) in
  Test.make ~name:"table1/crossbar-gemv-256x256"
    (Staged.stage (fun () -> ignore (Crossbar.gemv_codes xbar input)))

(* ---------- Fig. 1: PCM cell programming ---------- *)

let test_fig1 =
  let config = { Cell.default_config with Cell.endurance = max_int } in
  let cell = Cell.create ~config () in
  let level = ref 0 in
  Test.make ~name:"fig1/pcm-cell-program"
    (Staged.stage (fun () ->
         level := (!level + 1) land 15;
         Cell.program cell ~level:!level))

(* ---------- Fig. 2(d): one register-level offload round trip ---------- *)

let test_fig2d =
  let platform = Platform.create () in
  let api = Api.init platform in
  let n = 8 in
  let g = Prng.create ~seed:2 in
  let alloc () = Result.get_ok (Api.malloc api ~bytes:(4 * n * n)) in
  let buf_a = alloc () and buf_b = alloc () and buf_c = alloc () in
  let va = Api.view ~ld:n buf_a and vb = Api.view ~ld:n buf_b and vc = Api.view ~ld:n buf_c in
  Api.host_to_dev api ~src:(Mat.random g ~rows:n ~cols:n ~lo:(-1.0) ~hi:1.0) ~dst:va;
  Api.host_to_dev api ~src:(Mat.random g ~rows:n ~cols:n ~lo:(-1.0) ~hi:1.0) ~dst:vb;
  Test.make ~name:"fig2d/offload-roundtrip-8x8"
    (Staged.stage (fun () ->
         match Api.sgemm api ~m:n ~n ~k:n ~alpha:1.0 ~a:va ~b:vb ~beta:0.0 ~c:vc () with
         | Ok () -> ()
         | Error e -> failwith e))

(* ---------- Fig. 5: fusion compile + lifetime model ---------- *)

let test_fig5 =
  let n = 16 in
  let source =
    Printf.sprintf
      {|
void listing2(float C[%d][%d], float D[%d][%d], float A[%d][%d], float B[%d][%d], float E[%d][%d]) {
  for (int i = 0; i < %d; i++)
    for (int j = 0; j < %d; j++)
      for (int k = 0; k < %d; k++)
        C[i][j] += A[i][k] * B[k][j];
  for (int i = 0; i < %d; i++)
    for (int j = 0; j < %d; j++)
      for (int k = 0; k < %d; k++)
        D[i][j] += A[i][k] * E[k][j];
}
|}
      n n n n n n n n n n n n n n n n
  in
  Test.make ~name:"fig5/fusion-compile+lifetime"
    (Staged.stage (fun () ->
         let _f, _report = Flow.compile ~options:Flow.o3_loop_tactics source in
         ignore
           (Tdo_pcm.Endurance.lifetime_years ~cell_endurance:2.5e7
              ~crossbar_bytes:(512 * 1024) ~write_bytes_per_second:4.2e6)))

(* ---------- Fig. 6: full-system kernel runs, host vs CIM ---------- *)

let fig6_gemm_source n =
  Printf.sprintf
    {|
void gemm(float alpha, float beta, float C[%d][%d], float A[%d][%d], float B[%d][%d]) {
  for (int i = 0; i < %d; i++)
    for (int j = 0; j < %d; j++) {
      C[i][j] *= beta;
      for (int k = 0; k < %d; k++)
        C[i][j] += alpha * A[i][k] * B[k][j];
    }
}
|}
    n n n n n n n n n

let fig6_args n seed =
  let g = Prng.create ~seed in
  let random () =
    let arr = Interp.make_array ~dims:[ n; n ] in
    Array.iteri
      (fun i _ -> arr.Interp.data.(i) <- Prng.float_range g ~lo:(-1.0) ~hi:1.0)
      arr.Interp.data;
    arr
  in
  [
    ("alpha", Interp.Vfloat 1.0);
    ("beta", Interp.Vfloat 1.0);
    ("C", Interp.Varray (random ()));
    ("A", Interp.Varray (random ()));
    ("B", Interp.Varray (random ()));
  ]

let test_fig6_host =
  let n = 16 in
  let source = fig6_gemm_source n in
  Test.make ~name:"fig6/gemm16-host"
    (Staged.stage (fun () ->
         ignore (Flow.run_source ~options:Flow.o3 source ~args:(fig6_args n 3))))

let test_fig6_cim =
  let n = 16 in
  let source = fig6_gemm_source n in
  Test.make ~name:"fig6/gemm16-host+cim"
    (Staged.stage (fun () ->
         ignore (Flow.run_source ~options:Flow.o3_loop_tactics source ~args:(fig6_args n 3))))

let tests =
  Test.make_grouped ~name:"tdo-cim"
    [ test_table1; test_fig1; test_fig2d; test_fig5; test_fig6_host; test_fig6_cim ]

let bench_rows () =
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let ns =
        match Analyze.OLS.estimates ols with Some (t :: _) -> t | Some [] | None -> nan
      in
      (name, ns) :: acc)
    results []
  |> List.sort compare

let run_benchmarks () =
  print_endline "=== micro-benchmarks (Bechamel, one per paper artefact) ===";
  let rows = bench_rows () in
  Tdo_util.Pretty.print
    ~columns:
      [
        Tdo_util.Pretty.column "benchmark";
        Tdo_util.Pretty.column ~align:Tdo_util.Pretty.Right "wall-clock / run";
      ]
    ~rows:
      (List.map
         (fun (name, ns) -> [ name; Tdo_util.Pretty.si_float (ns *. 1e-9) ^ "s" ])
         rows);
  print_newline ()

let print_tables () =
  print_endline "=== paper tables and figures (simulated platform) ===";
  print_newline ();
  Experiments.print_table1 ();
  print_newline ();
  Experiments.print_fig1 ();
  print_newline ();
  Experiments.print_fig2d ();
  print_newline ();
  Experiments.print_fig5 ();
  print_newline ();
  Experiments.print_fig6 ~dataset:Tdo_polybench.Dataset.Medium ()

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match mode with
  | "bench" -> run_benchmarks ()
  | "tables" -> print_tables ()
  | "all" ->
      run_benchmarks ();
      print_tables ()
  | other ->
      Printf.eprintf "unknown mode %S (bench|tables|all)\n" other;
      exit 1
