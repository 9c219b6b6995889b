(* tdo-reliab: fault-injection campaigns against the CIM serving stack.

   Sweeps a fault intensity (stuck cells per faulty device) over a
   PolyBench request trace. Each sweep point replays the trace twice —
   once on a pool with seed-derived faults planted, once pristine — and
   scores ABFT detection rate, silent-data-corruption rate and the
   virtual-time overhead of recovery (retry, quarantine, host
   degradation). Results land in BENCH_reliab.json. *)

open Cmdliner
module Campaign = Tdo_reliab.Campaign
module Telemetry = Tdo_serve.Telemetry
module Inject = Tdo_reliab.Inject
module Report = Tdo_util.Bench_report

let summarise stuck (r : Campaign.run) =
  let m = r.Campaign.metrics in
  let c = m.Campaign.counts in
  Printf.printf
    "stuck=%d: %d requests, %d faults on %d of %d devices | detected %d, SDC %d, detection \
     rate %.1f%%\n"
    stuck c.Telemetry.requests m.Campaign.injected_faults m.Campaign.faulty_devices
    r.Campaign.config.Campaign.devices c.Telemetry.detected_corruptions m.Campaign.sdc
    (100.0 *. m.Campaign.detection_rate);
  Printf.printf
    "  completed %d (%d after retry), recovered-host %d, cpu-fallback %d, rejected %d, \
     failed %d, quarantined [%s]\n"
    c.Telemetry.completed c.Telemetry.completed_after_retry c.Telemetry.recovered_host
    c.Telemetry.cpu_fallbacks c.Telemetry.rejected c.Telemetry.failed
    (String.concat "," (List.map string_of_int m.Campaign.quarantined));
  Printf.printf "  latency overhead x%.3f, makespan overhead x%.3f\n"
    m.Campaign.latency_overhead m.Campaign.makespan_overhead

let extras_of (stuck, (r : Campaign.run)) =
  let m = r.Campaign.metrics in
  let c = m.Campaign.counts in
  let p fmt = Printf.sprintf ("s%d_" ^^ fmt) stuck in
  [
    (p "injected_faults", float_of_int m.Campaign.injected_faults);
    (p "faulty_devices", float_of_int m.Campaign.faulty_devices);
    (p "detected", float_of_int c.Telemetry.detected_corruptions);
    (p "sdc", float_of_int m.Campaign.sdc);
    (p "detection_rate", m.Campaign.detection_rate);
    (p "sdc_rate", m.Campaign.sdc_rate);
    (p "completed", float_of_int c.Telemetry.completed);
    (p "completed_after_retry", float_of_int c.Telemetry.completed_after_retry);
    (p "recovered_host", float_of_int c.Telemetry.recovered_host);
    (p "cpu_fallbacks", float_of_int c.Telemetry.cpu_fallbacks);
    (p "quarantined_devices", float_of_int (List.length m.Campaign.quarantined));
    (p "latency_overhead", m.Campaign.latency_overhead);
    (p "makespan_overhead", m.Campaign.makespan_overhead);
  ]

let parse_int_list s =
  match
    String.split_on_char ',' s
    |> List.filter (fun x -> String.trim x <> "")
    |> List.map (fun x -> int_of_string (String.trim x))
  with
  | [] -> Error (Printf.sprintf "empty sweep '%s'" s)
  | xs -> Ok xs
  | exception Failure _ -> Error (Printf.sprintf "bad sweep '%s' (expected e.g. 0,1,2)" s)

let run kernels n requests mean_gap_us devices seed sweep worn flips flip_ops drift
    faulty_fraction no_abft out strict =
  let kernel_list =
    String.split_on_char ',' kernels
    |> List.filter (fun k -> String.trim k <> "")
    |> List.map (fun k -> (String.trim k, n))
  in
  match parse_int_list sweep with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok points ->
      let runs =
        List.map
          (fun stuck ->
            let spec =
              {
                Inject.seed;
                faulty_fraction;
                region_rows = n;
                region_cols = n;
                stuck_cells = stuck;
                worn_cells = worn;
                column_flips = flips;
                flip_ops;
                drift_offset = drift;
              }
            in
            let config =
              {
                Campaign.default_config with
                Campaign.kernels = kernel_list;
                requests;
                mean_gap_us;
                devices;
                seed;
                spec;
                abft = not no_abft;
              }
            in
            let r, section =
              Report.section
                ~name:(Printf.sprintf "campaign-stuck-%d" stuck)
                (fun () -> Campaign.run ~config ())
            in
            summarise stuck r;
            ((stuck, r), section))
          points
      in
      let results = List.map fst runs in
      let sections = List.map snd runs in
      let total f = List.fold_left (fun acc (_, r) -> acc + f r.Campaign.metrics) 0 results in
      let detected = total (fun m -> m.Campaign.counts.Telemetry.detected_corruptions) in
      let sdc = total (fun m -> m.Campaign.sdc) in
      let aggregate =
        [
          ("sweep_points", float_of_int (List.length results));
          ("total_detected", float_of_int detected);
          ("total_sdc", float_of_int sdc);
          ( "overall_detection_rate",
            if detected + sdc = 0 then 1.0
            else float_of_int detected /. float_of_int (detected + sdc) );
        ]
      in
      Report.write ~path:out
        ~extra:(aggregate @ List.concat_map extras_of results)
        ~notes:
          (Printf.sprintf
             "tdo-reliab campaign: kernels %s at n=%d, %d requests on %d devices, abft %b, \
              faulty fraction %g, sweep stuck=%s"
             kernels n requests devices (not no_abft) faulty_fraction sweep)
        ~sections ();
      Printf.printf "report written to %s\n" out;
      Printf.printf "total: detected %d, SDC %d\n" detected sdc;
      if strict && (not no_abft) && sdc > 0 then begin
        prerr_endline "FAIL: silent data corruption with the ABFT guard enabled";
        1
      end
      else 0

let cmd =
  let kernels_arg =
    Arg.(
      value
      & opt string "gemm,gesummv,mvt"
      & info [ "k"; "kernels" ] ~docv:"LIST"
          ~doc:"Comma-separated PolyBench kernels to mix into the trace.")
  in
  let n_arg =
    Arg.(
      value & opt int 16
      & info [ "n" ] ~docv:"N" ~doc:"Problem size (also bounds the fault region).")
  in
  let requests_arg =
    Arg.(value & opt int 60 & info [ "requests" ] ~docv:"N" ~doc:"Requests in the trace.")
  in
  let gap_arg =
    Arg.(
      value & opt float 60.0
      & info [ "mean-gap-us" ] ~docv:"US" ~doc:"Mean exponential inter-arrival gap.")
  in
  let devices_arg =
    Arg.(value & opt int 2 & info [ "devices" ] ~docv:"N" ~doc:"Devices in the pool.")
  in
  let seed_arg =
    Arg.(
      value & opt int 11
      & info [ "seed" ] ~doc:"Campaign seed: trace, device streams and fault placement.")
  in
  let sweep_arg =
    Arg.(
      value & opt string "0,1,2"
      & info [ "sweep" ] ~docv:"LIST"
          ~doc:"Comma-separated stuck-cell counts per faulty device, one campaign each.")
  in
  let worn_arg =
    Arg.(
      value & opt int 0
      & info [ "worn-cells" ] ~docv:"N" ~doc:"Wear-induced stuck cells per faulty device.")
  in
  let flips_arg =
    Arg.(
      value & opt int 0
      & info [ "column-flips" ] ~docv:"N"
          ~doc:"Transient column bit-flips armed per faulty device.")
  in
  let flip_ops_arg =
    Arg.(
      value & opt int 4
      & info [ "flip-ops" ] ~docv:"N" ~doc:"GEMV passes each transient affects.")
  in
  let drift_arg =
    Arg.(
      value & opt int 0
      & info [ "drift" ] ~docv:"LSB"
          ~doc:"Conductance-drift offset per column output on faulty devices.")
  in
  let fraction_arg =
    Arg.(
      value & opt float 0.5
      & info [ "faulty-fraction" ] ~docv:"P" ~doc:"Probability a device carries faults.")
  in
  let no_abft_arg =
    Arg.(
      value & flag
      & info [ "no-abft" ]
          ~doc:"Disable the checksum guard (measures the undefended SDC rate).")
  in
  let out_arg =
    Arg.(
      value & opt string "BENCH_reliab.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Benchmark report path.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Fail if any SDC slips through while the guard is enabled.")
  in
  Cmd.v
    (Cmd.info "tdo-reliab" ~doc:"Fault-injection and recovery campaigns for the CIM service.")
    Term.(
      const run $ kernels_arg $ n_arg $ requests_arg $ gap_arg $ devices_arg $ seed_arg
      $ sweep_arg $ worn_arg $ flips_arg $ flip_ops_arg $ drift_arg $ fraction_arg
      $ no_abft_arg $ out_arg $ strict_arg)

let () = exit (Cmd.eval' cmd)
