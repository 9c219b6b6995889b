module Flow = Tdo_cim.Flow
module Experiments = Tdo_cim.Experiments
module Kernels = Tdo_polybench.Kernels
module Dataset = Tdo_polybench.Dataset
module Interp = Tdo_lang.Interp
module Mat = Tdo_linalg.Mat
module Ir = Tdo_ir.Ir
module Timeline = Tdo_cimacc.Timeline

(* ---------- flow plumbing ---------- *)

let gemm16 =
  {|
void gemm(float alpha, float beta, float C[16][16], float A[16][16], float B[16][16]) {
  for (int i = 0; i < 16; i++)
    for (int j = 0; j < 16; j++) {
      C[i][j] *= beta;
      for (int k = 0; k < 16; k++)
        C[i][j] += alpha * A[i][k] * B[k][j];
    }
}
|}

let test_flow_compile_modes () =
  let host, host_report = Flow.compile ~options:Flow.o3 gemm16 in
  Alcotest.(check bool) "o3 has no cim calls" false (Ir.contains_cim_calls host);
  Alcotest.(check bool) "o3 runs no tactics" true (host_report = None);
  let cim, cim_report = Flow.compile ~options:Flow.o3_loop_tactics gemm16 in
  Alcotest.(check bool) "loop-tactics offloads" true (Ir.contains_cim_calls cim);
  Alcotest.(check bool) "report produced" true (cim_report <> None)

let test_flow_measurement_fields () =
  let b = Result.get_ok (Kernels.find "gemm") in
  let n = 16 in
  let args, _ = b.Kernels.make_args ~n ~seed:3 in
  let m, _ = Flow.run_source ~options:Flow.o3_loop_tactics (b.Kernels.source ~n) ~args in
  Alcotest.(check bool) "instructions counted" true (m.Flow.roi_instructions > 0);
  Alcotest.(check bool) "time positive" true (m.Flow.time_s > 0.0);
  Alcotest.(check bool) "energy positive" true (m.Flow.energy_j > 0.0);
  Alcotest.(check bool) "edp consistent" true
    (Float.abs (m.Flow.edp_js -. (m.Flow.energy_j *. m.Flow.time_s)) < 1e-18);
  Alcotest.(check bool) "cim used" true m.Flow.used_cim;
  Alcotest.(check bool) "macs recorded" true (m.Flow.cim_macs = n * n * n);
  Alcotest.(check bool) "writes recorded" true (m.Flow.cim_write_bytes = n * n)

let fill4 =
  {|
void fill(float v, float A[4][4]) {
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++)
      A[i][j] = v;
}
|}

let test_flow_platform_outlives_next_run () =
  let run v =
    let a = Interp.make_array ~dims:[ 4; 4 ] in
    let args = [ ("v", Interp.Vfloat v); ("A", Interp.Varray a) ] in
    snd (Flow.run_source ~options:Flow.o3 fill4 ~args)
  in
  let first = run 1.0 in
  ignore (run 2.0);
  (* the executor places the first array at its heap base *)
  let contents = Array.make 16 0.0 in
  Tdo_sim.Memory.read_f32s first.Tdo_runtime.Platform.memory 0x0100_0000 contents ~pos:0 ~len:16;
  Alcotest.(check (array (float 0.0)))
    "the first platform still holds the first run's data" (Array.make 16 1.0) contents

(* ---------- PolyBench validation: interp = host exec ~ cim exec ---------- *)

let relative_error ~reference ~candidate =
  List.fold_left2
    (fun acc r c -> Float.max acc (Mat.max_abs_diff r c /. (1.0 +. Mat.max_abs r)))
    0.0 reference candidate

let validate_kernel name =
  let b = Result.get_ok (Kernels.find name) in
  let n = 16 in
  let source = b.Kernels.source ~n in
  (* golden: reference interpreter *)
  let interp_out =
    let args, readback = b.Kernels.make_args ~n ~seed:23 in
    let ast = Tdo_lang.Parser.parse_func source in
    Tdo_lang.Typecheck.check_func ast;
    Interp.run ast ~args;
    readback ()
  in
  (* host path *)
  let host_out, host_m =
    let args, readback = b.Kernels.make_args ~n ~seed:23 in
    let m, _ = Flow.run_source ~options:Flow.o3 source ~args in
    (readback (), m)
  in
  (* cim path *)
  let cim_out, cim_m =
    let args, readback = b.Kernels.make_args ~n ~seed:23 in
    let m, _ = Flow.run_source ~options:Flow.o3_loop_tactics source ~args in
    (readback (), m)
  in
  Alcotest.(check bool)
    (name ^ ": host executor bit-matches the interpreter")
    true
    (List.for_all2 (fun a b -> Mat.max_abs_diff a b = 0.0) interp_out host_out);
  Alcotest.(check bool) (name ^ ": host run stays off the device") false host_m.Flow.used_cim;
  Alcotest.(check bool) (name ^ ": cim run uses the device") true cim_m.Flow.used_cim;
  let err = relative_error ~reference:host_out ~candidate:cim_out in
  if err > 0.05 then
    Alcotest.failf "%s: offloaded result deviates %.3f (rel) from the host" name err

let polybench_validation_cases =
  List.map
    (fun name -> Alcotest.test_case name `Quick (fun () -> validate_kernel name))
    Kernels.names

let test_macs_metadata_consistent () =
  (* the per-kernel MAC formulas must match what the device measures *)
  List.iter
    (fun (b : Kernels.benchmark) ->
      let n = 16 in
      let args, _ = b.Kernels.make_args ~n ~seed:29 in
      let m, _ = Flow.run_source ~options:Flow.o3_loop_tactics (b.Kernels.source ~n) ~args in
      Alcotest.(check int)
        (b.Kernels.name ^ ": offloaded MACs match the formula")
        (b.Kernels.macs ~n) m.Flow.cim_macs)
    Kernels.all

(* ---------- Table I ---------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let test_table1 () =
  let rows = Experiments.table1 () in
  Alcotest.(check bool) "has enough rows" true (List.length rows >= 10);
  let flat = String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) rows) in
  List.iter
    (fun needle -> Alcotest.(check bool) ("mentions " ^ needle) true (contains flat needle))
    [ "256x256"; "200.00f"; "200.00p"; "3.90n"; "5.40p"; "2.11p"; "128.00p"; "LPDDR3" ]

(* ---------- Fig. 1 ---------- *)

let test_fig1 () =
  let traces = Experiments.fig1 () in
  Alcotest.(check (list string)) "three pulses" [ "reset"; "set"; "read" ]
    (List.map fst traces);
  List.iter
    (fun (_, trace) -> Alcotest.(check bool) "non-empty trace" true (List.length trace >= 3))
    traces

(* ---------- Fig. 2(d) ---------- *)

let test_fig2d () =
  let events = Experiments.fig2d ~n:8 () in
  Alcotest.(check bool) "events recorded" true (List.length events > 5);
  (match events with
  | first :: _ ->
      Alcotest.(check bool) "starts with trigger" true (first.Timeline.phase = Timeline.Trigger)
  | [] -> Alcotest.fail "no events");
  let last = List.nth events (List.length events - 1) in
  Alcotest.(check bool) "ends result-ready" true (last.Timeline.phase = Timeline.Result_ready);
  List.iter
    (fun e ->
      Alcotest.(check bool) "no event after completion" true (e.Timeline.at <= last.Timeline.at))
    events

(* ---------- Fig. 5 ---------- *)

let test_fig5_shape () =
  let rows, meta = Experiments.fig5 ~n:32 () in
  Alcotest.(check int) "seven endurance points" 7 (List.length rows);
  (* smart mapping writes the shared A once; naive writes B and E *)
  Alcotest.(check int) "smart writes A once" (32 * 32) meta.Experiments.smart_write_bytes;
  Alcotest.(check int) "naive writes B and E" (2 * 32 * 32) meta.Experiments.naive_write_bytes;
  List.iter
    (fun r ->
      let ratio = r.Experiments.smart_years /. r.Experiments.naive_years in
      if ratio < 1.5 || ratio > 2.5 then
        Alcotest.failf "smart/naive lifetime ratio %.2f outside [1.5, 2.5]" ratio)
    rows;
  (* lifetime is linear in endurance *)
  let first = List.hd rows and last = List.nth rows (List.length rows - 1) in
  let expected =
    last.Experiments.endurance_millions /. first.Experiments.endurance_millions
  in
  let measured = last.Experiments.smart_years /. first.Experiments.smart_years in
  Alcotest.(check bool) "linear in endurance" true (Float.abs (measured -. expected) < 0.01)

(* ---------- Fig. 6 ---------- *)

let fig6_small = lazy (Experiments.fig6 ~dataset:Dataset.Small ())

let test_fig6_shape () =
  let rows, summary = Lazy.force fig6_small in
  Alcotest.(check (list string)) "paper kernel order"
    [ "2mm"; "3mm"; "gemm"; "conv"; "gesummv"; "bicg"; "mvt" ]
    (List.map (fun r -> r.Experiments.kernel) rows);
  List.iter
    (fun r ->
      match r.Experiments.kind with
      | Kernels.Gemm_like when r.Experiments.kernel <> "conv" ->
          if r.Experiments.energy_improvement <= 2.0 then
            Alcotest.failf "%s should clearly win energy (got %.2fx)" r.Experiments.kernel
              r.Experiments.energy_improvement
      | Kernels.Gemm_like -> ()
      | Kernels.Gemv_like ->
          if r.Experiments.energy_improvement >= 1.0 then
            Alcotest.failf "%s should lose on energy (got %.2fx)" r.Experiments.kernel
              r.Experiments.energy_improvement)
    rows;
  Alcotest.(check bool) "selective geomean beats plain geomean" true
    (summary.Experiments.selective_geomean_energy_improvement
    >= summary.Experiments.geomean_energy_improvement)

let test_fig6_intensity_story () =
  (* Fig. 6 left's second axis: compute intensity separates the two
     kernel classes *)
  let rows, _ = Lazy.force fig6_small in
  List.iter
    (fun r ->
      match r.Experiments.kind with
      | Kernels.Gemm_like ->
          if r.Experiments.macs_per_cim_write < 16.0 then
            Alcotest.failf "%s: expected high MACs/write, got %.1f" r.Experiments.kernel
              r.Experiments.macs_per_cim_write
      | Kernels.Gemv_like ->
          if r.Experiments.macs_per_cim_write > 2.0 then
            Alcotest.failf "%s: expected MACs/write near 1, got %.1f" r.Experiments.kernel
              r.Experiments.macs_per_cim_write)
    rows

let test_fig6_results_validated () =
  let rows, _ = Lazy.force fig6_small in
  List.iter
    (fun r ->
      if r.Experiments.max_abs_error > 10.0 then
        Alcotest.failf "%s: offloaded result error %.3f too large" r.Experiments.kernel
          r.Experiments.max_abs_error)
    rows

let test_fig6_edp_follows_energy () =
  (* "It follows the same trend as the energy plot" *)
  let rows, _ = Lazy.force fig6_small in
  List.iter
    (fun r ->
      let e = r.Experiments.energy_improvement > 1.0 in
      let d = r.Experiments.edp_improvement > 1.0 in
      if e <> d && Float.abs (r.Experiments.edp_improvement -. 1.0) > 0.5 then
        Alcotest.failf "%s: EDP and energy disagree (E %.2fx, EDP %.2fx)" r.Experiments.kernel
          r.Experiments.energy_improvement r.Experiments.edp_improvement)
    rows

let suites =
  [
    ( "core.flow",
      [
        Alcotest.test_case "compile modes" `Quick test_flow_compile_modes;
        Alcotest.test_case "measurement fields" `Quick test_flow_measurement_fields;
        Alcotest.test_case "platform outlives the next run" `Quick
          test_flow_platform_outlives_next_run;
      ] );
    ( "core.polybench",
      polybench_validation_cases
      @ [ Alcotest.test_case "macs metadata" `Quick test_macs_metadata_consistent ] );
    ( "core.experiments",
      [
        Alcotest.test_case "table1" `Quick test_table1;
        Alcotest.test_case "fig1 pulses" `Quick test_fig1;
        Alcotest.test_case "fig2d timeline" `Quick test_fig2d;
        Alcotest.test_case "fig5 endurance" `Quick test_fig5_shape;
        Alcotest.test_case "fig6 win/lose shape" `Slow test_fig6_shape;
        Alcotest.test_case "fig6 compute intensity" `Slow test_fig6_intensity_story;
        Alcotest.test_case "fig6 validated results" `Slow test_fig6_results_validated;
        Alcotest.test_case "fig6 EDP trend" `Slow test_fig6_edp_follows_energy;
      ] );
  ]
