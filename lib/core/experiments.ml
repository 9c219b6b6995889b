module Dataset = Tdo_polybench.Dataset
module Kernels = Tdo_polybench.Kernels
module Timeline = Tdo_cimacc.Timeline
module Pool = Tdo_util.Pool
module Pretty = Tdo_util.Pretty
module Stats = Tdo_util.Stats
module Mat = Tdo_linalg.Mat
module Cell = Tdo_pcm.Cell
module Endurance = Tdo_pcm.Endurance
module Platform = Tdo_runtime.Platform
module Offload = Tdo_tactics.Offload

(* ---------- Table I ---------- *)

let table1 () = Tdo_energy.Table1.rows Tdo_energy.Table1.ibm_pcm_a7

let print_table1 () =
  print_endline "Table I: CIM and host system configuration";
  Pretty.print
    ~columns:[ Pretty.column "Parameter"; Pretty.column "Value" ]
    ~rows:(List.map (fun (k, v) -> [ k; v ]) (table1 ()))

(* ---------- Fig. 1 ---------- *)

let fig1 () =
  [
    ("reset", Cell.pulse_profile Cell.Reset);
    ("set", Cell.pulse_profile Cell.Set);
    ("read", Cell.pulse_profile Cell.Read);
  ]

let print_fig1 () =
  print_endline "Fig. 1(b): PCM programming pulses (time ns, temperature K)";
  Printf.printf "  T_melt = %.0f K, T_crys = %.0f K, T_room = %.0f K\n"
    Cell.melt_temperature_k Cell.crystallisation_temperature_k Cell.room_temperature_k;
  List.iter
    (fun (name, trace) ->
      Printf.printf "  %-5s:" name;
      List.iter (fun (t, temp) -> Printf.printf " (%.0fns, %.0fK)" t temp) trace;
      print_newline ())
    (fig1 ())

(* ---------- Fig. 2(d) ---------- *)

let fig2d ?(n = 16) () =
  let args, _ = Workloads.gemm_args ~n ~seed:7 in
  let f, _report = Flow.compile (Workloads.gemm_source ~n) in
  let platform = Platform.create () in
  let timeline =
    Tdo_cimacc.Micro_engine.record_timeline (Tdo_cimacc.Accel.engine platform.Platform.accel)
  in
  ignore (Tdo_ir.Exec.run f ~platform ~args);
  Timeline.events timeline

let print_fig2d ?(n = 16) () =
  Printf.printf "Fig. 2(d): timeline of one transparent %dx%dx%d GEMM offload\n" n n n;
  let events = fig2d ~n () in
  let shown, rest =
    if List.length events <= 24 then (events, 0)
    else
      ( List.filteri (fun i _ -> i < 12) events
        @ List.filteri (fun i _ -> i >= List.length events - 6) events,
        List.length events - 18 )
  in
  List.iter (fun e -> Format.printf "  %a@." Timeline.pp_event e) shown;
  if rest > 0 then Printf.printf "  ... (%d events elided)\n" rest;
  print_newline ();
  print_string (Timeline.render_gantt events)

(* ---------- Fig. 5 ---------- *)

type fig5_row = {
  endurance_millions : float;
  naive_years : float;
  smart_years : float;
}

type fig5_meta = {
  naive_write_bytes : int;
  smart_write_bytes : int;
  naive_traffic_bytes_per_s : float;
  smart_traffic_bytes_per_s : float;
  crossbar_bytes : int;
}

let default_endurances = [ 10.0; 15.0; 20.0; 25.0; 30.0; 35.0; 40.0 ]

let fig5 ?(endurances_millions = default_endurances) ?(n = 64) ?(seed = 13) () =
  let measure naive_pin =
    let options =
      {
        Flow.enable_loop_tactics = true;
        tactics = { Offload.default_config with Offload.naive_pin };
      }
    in
    let args, _ = Workloads.listing2_args ~n ~seed in
    let m, _platform = Flow.run_source ~options (Workloads.listing2_source ~n) ~args in
    m
  in
  (* the two configurations are independent full runs *)
  let smart, naive =
    match Pool.parallel_map measure [ false; true ] with
    | [ smart; naive ] -> (smart, naive)
    | _ -> assert false
  in
  let crossbar_bytes = 512 * 1024 in
  let traffic (m : Flow.measurement) =
    Endurance.write_traffic_bytes_per_second ~bytes_written:m.Flow.cim_write_bytes
      ~elapsed_seconds:m.Flow.time_s
  in
  let naive_traffic = traffic naive and smart_traffic = traffic smart in
  let rows =
    List.map
      (fun millions ->
        let years traffic =
          Endurance.lifetime_years ~cell_endurance:(millions *. 1e6) ~crossbar_bytes
            ~write_bytes_per_second:traffic
        in
        {
          endurance_millions = millions;
          naive_years = years naive_traffic;
          smart_years = years smart_traffic;
        })
      endurances_millions
  in
  ( rows,
    {
      naive_write_bytes = naive.Flow.cim_write_bytes;
      smart_write_bytes = smart.Flow.cim_write_bytes;
      naive_traffic_bytes_per_s = naive_traffic;
      smart_traffic_bytes_per_s = smart_traffic;
      crossbar_bytes;
    } )

let print_fig5 ?(n = 64) () =
  let rows, meta = fig5 ~n () in
  Printf.printf
    "Fig. 5: system lifetime for the Listing-2 workload (%dx%d matrices, %d KB crossbar)\n" n n
    (meta.crossbar_bytes / 1024);
  Printf.printf "  crossbar writes: naive %d B, smart %d B (%.2fx reduction)\n"
    meta.naive_write_bytes meta.smart_write_bytes
    (float_of_int meta.naive_write_bytes /. float_of_int meta.smart_write_bytes);
  Pretty.print
    ~columns:
      [
        Pretty.column ~align:Pretty.Right "endurance (Mwrites)";
        Pretty.column ~align:Pretty.Right "naive (years)";
        Pretty.column ~align:Pretty.Right "smart (years)";
      ]
    ~rows:
      (List.map
         (fun r ->
           [
             Pretty.fixed ~digits:0 r.endurance_millions;
             Pretty.fixed ~digits:3 r.naive_years;
             Pretty.fixed ~digits:3 r.smart_years;
           ])
         rows)

(* ---------- Fig. 6 ---------- *)

type fig6_row = {
  kernel : string;
  kind : Kernels.kind;
  host : Flow.measurement;
  cim : Flow.measurement;
  energy_improvement : float;
  edp_improvement : float;
  perf_improvement : float;
  macs_per_cim_write : float;
  max_abs_error : float;
}

type fig6_summary = {
  geomean_energy_improvement : float;
  selective_geomean_energy_improvement : float;
  geomean_edp_improvement : float;
  max_edp_improvement : float;
}

let fig6_kernel ~n ~seed (b : Kernels.benchmark) =
  let source = b.Kernels.source ~n in
  let run options =
    let args, readback = b.Kernels.make_args ~n ~seed in
    let m, _platform = Flow.run_source ~options source ~args in
    (m, readback ())
  in
  let host, host_out = run Flow.o3 in
  let cim, cim_out = run Flow.o3_loop_tactics in
  let max_abs_error =
    List.fold_left2
      (fun acc a b -> Float.max acc (Mat.max_abs_diff a b))
      0.0 host_out cim_out
  in
  {
    kernel = b.Kernels.name;
    kind = b.Kernels.kind;
    host;
    cim;
    energy_improvement = host.Flow.energy_j /. cim.Flow.energy_j;
    edp_improvement = host.Flow.edp_js /. cim.Flow.edp_js;
    perf_improvement = host.Flow.time_s /. cim.Flow.time_s;
    macs_per_cim_write = cim.Flow.macs_per_cim_write;
    max_abs_error;
  }

let fig6 ?(dataset = Dataset.Medium) ?(seed = 17) () =
  let n = Dataset.n dataset in
  (* one task per kernel; each builds its own platforms and takes its
     PRNG seed explicitly, so the fan-out is bit-deterministic *)
  let rows = Pool.parallel_map (fig6_kernel ~n ~seed) Kernels.all in
  let energies = List.map (fun r -> r.energy_improvement) rows in
  let selective =
    List.map
      (fun r ->
        match r.kind with
        | Kernels.Gemm_like -> Float.max 1.0 r.energy_improvement
        | Kernels.Gemv_like -> 1.0)
      rows
  in
  let edps = List.map (fun r -> r.edp_improvement) rows in
  ( rows,
    {
      geomean_energy_improvement = Stats.geomean energies;
      selective_geomean_energy_improvement = Stats.geomean selective;
      geomean_edp_improvement = Stats.geomean edps;
      max_edp_improvement = Stats.maximum edps;
    } )

let print_fig6_breakdown rows =
  print_endline "Energy breakdown of the host+CIM runs (Table-I components):";
  let module L = Tdo_energy.Ledger in
  let columns =
    [
      Pretty.column "kernel";
      Pretty.column ~align:Pretty.Right "host side";
      Pretty.column ~align:Pretty.Right "xbar compute";
      Pretty.column ~align:Pretty.Right "xbar write";
      Pretty.column ~align:Pretty.Right "mixed signal";
      Pretty.column ~align:Pretty.Right "buffers";
      Pretty.column ~align:Pretty.Right "digital";
      Pretty.column ~align:Pretty.Right "dma+engine";
    ]
  in
  let si v = Pretty.si_float v ^ "J" in
  Pretty.print ~columns
    ~rows:
      (List.map
         (fun r ->
           let e = r.cim.Flow.energy in
           [
             r.kernel;
             si e.L.host_j;
             si e.L.crossbar_compute_j;
             si e.L.crossbar_write_j;
             si e.L.mixed_signal_j;
             si e.L.buffers_j;
             si e.L.digital_j;
             si e.L.dma_engine_j;
           ])
         rows)

let print_fig6_results ~n ?(breakdown = false) (rows, summary) =
  Printf.printf "Fig. 6: energy and EDP, host (Arm-A7) vs host+CIM, PolyBench at n=%d\n" n;
  let columns =
    [
      Pretty.column "kernel";
      Pretty.column "kind";
      Pretty.column ~align:Pretty.Right "host E";
      Pretty.column ~align:Pretty.Right "cim E";
      Pretty.column ~align:Pretty.Right "E gain";
      Pretty.column ~align:Pretty.Right "EDP gain";
      Pretty.column ~align:Pretty.Right "perf gain";
      Pretty.column ~align:Pretty.Right "MACs/write";
      Pretty.column ~align:Pretty.Right "max err";
    ]
  in
  let body =
    List.map
      (fun r ->
        [
          r.kernel;
          (match r.kind with Kernels.Gemm_like -> "gemm-like" | Kernels.Gemv_like -> "gemv-like");
          Pretty.si_float r.host.Flow.energy_j ^ "J";
          Pretty.si_float r.cim.Flow.energy_j ^ "J";
          Pretty.fixed ~digits:2 r.energy_improvement ^ "x";
          Pretty.fixed ~digits:2 r.edp_improvement ^ "x";
          Pretty.fixed ~digits:2 r.perf_improvement ^ "x";
          Pretty.fixed ~digits:0 r.macs_per_cim_write;
          Pretty.si_float r.max_abs_error;
        ])
      rows
  in
  Pretty.print ~columns ~rows:body;
  Printf.printf "Geomean energy improvement:           %.2fx (paper: 32.6x)\n"
    summary.geomean_energy_improvement;
  Printf.printf "Selective geomean energy improvement: %.2fx (paper: 3.2x selective plot)\n"
    summary.selective_geomean_energy_improvement;
  Printf.printf "Geomean EDP improvement:              %.2fx\n" summary.geomean_edp_improvement;
  Printf.printf "Max EDP improvement:                  %.2fx (paper: 612x)\n"
    summary.max_edp_improvement;
  if breakdown then begin
    print_newline ();
    print_fig6_breakdown rows
  end

let print_fig6 ?(dataset = Dataset.Medium) ?breakdown () =
  print_fig6_results ~n:(Dataset.n dataset) ?breakdown (fig6 ~dataset ())
