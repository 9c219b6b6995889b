(* Regenerates every table and figure of the paper. *)

open Cmdliner
module E = Tdo_cim.Experiments
module Dataset = Tdo_polybench.Dataset

let dataset_arg =
  let parse s = Result.map_error (fun e -> `Msg e) (Dataset.of_string s) in
  let print ppf d = Format.fprintf ppf "%s" (Dataset.to_string d) in
  Arg.(
    value
    & opt (conv (parse, print)) Dataset.Medium
    & info [ "d"; "dataset" ] ~docv:"SIZE" ~doc:"Problem size: mini, small, medium or large.")

let n_arg default =
  Arg.(value & opt int default & info [ "n" ] ~docv:"N" ~doc:"Square-matrix extent.")

let table1_cmd =
  Cmd.v (Cmd.info "table1" ~doc:"Print Table I (system configuration).")
    Term.(const E.print_table1 $ const ())

let fig1_cmd =
  Cmd.v (Cmd.info "fig1" ~doc:"Print Fig. 1 (PCM programming pulses).")
    Term.(const E.print_fig1 $ const ())

let fig2d_cmd =
  let run n = E.print_fig2d ~n () in
  Cmd.v (Cmd.info "fig2d" ~doc:"Print Fig. 2(d) (offload timeline).")
    Term.(const run $ n_arg 16)

let fig5_cmd =
  let run n = E.print_fig5 ~n () in
  Cmd.v
    (Cmd.info "fig5" ~doc:"Print Fig. 5 (lifetime vs endurance, naive vs smart mapping).")
    Term.(const run $ n_arg 64)

let breakdown_flag =
  Arg.(
    value & flag
    & info [ "breakdown" ] ~doc:"Also print the per-kernel energy split by Table-I component.")

let fig6_cmd =
  let run dataset breakdown = E.print_fig6 ~dataset ~breakdown () in
  Cmd.v (Cmd.info "fig6" ~doc:"Print Fig. 6 (energy and EDP across PolyBench).")
    Term.(const run $ dataset_arg $ breakdown_flag)

let ablations_cmd =
  Cmd.v
    (Cmd.info "ablations"
       ~doc:
         "Run the ablation studies: operand pinning, fusion, double buffering, selective \
          offload, crossbar geometry, analog noise.")
    Term.(const Tdo_cim.Ablations.print_all $ const ())

(* ---------- machine-readable benchmark report ---------- *)

let run_ablations () =
  let module A = Tdo_cim.Ablations in
  ignore (A.pinning ());
  ignore (A.fusion ());
  ignore (A.double_buffering ());
  ignore (A.selective ());
  ignore (A.geometry ());
  ignore (A.noise ());
  ignore (A.wear_leveling ());
  ignore (A.tiles ())

let bench_json dataset out baseline report_baseline =
  let module Pool = Tdo_util.Pool in
  let module Report = Tdo_util.Bench_report in
  (* more domains than the machine runs at once only time-share its
     cores, and make the parallel wall a measure of the scheduler *)
  let recommended = max 1 (Domain.recommended_domain_count ()) in
  if Pool.size () > recommended then Unix.putenv "TDO_DOMAINS" (string_of_int recommended);
  let median_by_wall ms =
    List.nth
      (List.sort (fun (a : Report.measure) b -> Float.compare a.elapsed_s b.elapsed_s) ms)
      (List.length ms / 2)
  in
  let section name f =
    (* the fan-out and the same work forced sequential, alternately,
       three times each; each mode's median run is recorded *)
    let runs =
      List.init 3 (fun _ ->
          Pool.set_sequential (Some false);
          let _, m = Report.timed f in
          Pool.set_sequential (Some true);
          let _, ms = Report.timed f in
          (m, ms))
    in
    Pool.set_sequential None;
    let m = median_by_wall (List.map fst runs) and ms = median_by_wall (List.map snd runs) in
    Printf.printf "%-18s %8.3f s parallel, %8.3f s sequential (medians of 3)\n%!" name
      m.Report.elapsed_s ms.Report.elapsed_s;
    Report.of_measure ~name ~seq_wall_s:ms.Report.elapsed_s m
  in
  let fig6_name = Printf.sprintf "fig6-%s" (Dataset.to_string dataset) in
  let fig6 = section fig6_name (fun () -> ignore (E.fig6 ~dataset ())) in
  let fig5 = section "fig5" (fun () -> ignore (E.fig5 ())) in
  let ablations = section "ablations" run_ablations in
  let sections = [ fig6; fig5; ablations ] in
  let extra =
    if baseline > 0.0 then
      [
        (fig6_name ^ "_seed_baseline_wall_s", baseline);
        (fig6_name ^ "_speedup_vs_seed_baseline", baseline /. fig6.Report.wall_s);
      ]
    else []
  in
  (* section-by-section comparison against a previously written report *)
  let extra =
    match report_baseline with
    | None -> extra
    | Some path -> (
        match Report.compare ~baseline:path sections with
        | Ok deltas ->
            List.iter
              (fun (d : Report.delta) ->
                Printf.printf "vs baseline %-18s %.3f s -> %.3f s (x%.2f%s)\n" d.Report.name
                  d.Report.baseline_wall_s d.Report.wall_s d.Report.speedup_vs_baseline
                  (if d.Report.regression then ", REGRESSION" else ""))
              deltas;
            extra @ Report.delta_fields deltas
        | Error msg ->
            Printf.eprintf "baseline %s: %s\n%!" path msg;
            extra)
  in
  Report.write ~path:out
    ~notes:
      "seed_baseline is the wall-clock of the same Fig. 6 sweep before the fast-engine \
       rework (functional Map event queue, assoc-list interpreter, sequential runner), \
       measured on the same machine; speedup_vs_sequential compares against this build \
       with the domain pool forced sequential. Built with the release profile \
       (dune-workspace) so cross-module inlining is on; before the scratch-arena rework \
       this machine measured fig6-medium at 76.3e6 minor words / 0.64 s, fig5 at 4.7e6 \
       and ablations at 214.2e6 / 1.72 s. Before the flush walked only the cache sets \
       filled since the previous flush (instead of all 33,280 L1D and L2 lines per \
       launch) and the launch path stopped boxing per element, it measured fig6-medium \
       at 6.77e6 minor words, fig5 at 1.45e6 and ablations at 27.6e6 (the figures the \
       baseline fields compare against). Before the caches kept their lines in flat \
       arrays indexed by shift and mask, the copy loops were charged a cache line at a \
       time and bus accounting stopped hashing the master name, it measured \
       fig6-medium at 3.14e6 minor words, fig5 at 0.70e6 and ablations at 14.5e6 / \
       0.96 s. Each section runs with the domain pool and forced sequential, \
       alternately, three times each, and records each mode's median run; the pool \
       runs at most the machine's recommended domain count (TDO_DOMAINS, when set, \
       only lowers it), 2 on the 2-CPU container this was measured on, so parallel \
       speedup is bounded at 2.0 and wall-clock is noisy; the allocation columns are \
       the load-bearing figures here."
    ~extra ~sections ();
  Printf.printf "wrote %s\n" out

let bench_json_cmd =
  let out_arg =
    Arg.(
      value & opt string "BENCH_sim.json"
      & info [ "o"; "out" ] ~docv:"PATH" ~doc:"Output path for the JSON report.")
  in
  let baseline_arg =
    Arg.(
      value & opt float 3.1
      & info [ "seed-baseline" ] ~docv:"SECONDS"
          ~doc:
            "Recorded wall-clock of the Fig. 6 sweep before the fast-engine rework, used \
             for the speedup-vs-seed figure; pass 0 to omit.")
  in
  let report_baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Previous BENCH_sim.json to compare against: sections are matched by name and \
             per-section delta/speedup/regression fields are added to the report.")
  in
  Cmd.v
    (Cmd.info "bench-json"
       ~doc:
         "Time the Fig. 5 / Fig. 6 / ablation sections (parallel and forced-sequential, \
          the median of three runs each, the pool capped at the recommended domain \
          count) and write BENCH_sim.json.")
    Term.(const bench_json $ dataset_arg $ out_arg $ baseline_arg $ report_baseline_arg)

(* ---------- regression gate against a committed report ---------- *)

let sim_bench dataset baseline smoke tolerance alloc_tolerance =
  let module Report = Tdo_util.Bench_report in
  (* wall-clock drifts with the host; allocation is deterministic for a
     fixed domain count, so it gets the tight default tolerance, and it
     is all the smoke gate judges: one fig5 run takes a few ms, within
     the spread of a busy host's scheduling *)
  let wall_tol = match tolerance with Some t -> t | None -> 1.0 in
  let alloc_tol =
    match alloc_tolerance with Some t -> t | None -> if smoke then 0.5 else 0.25
  in
  let sections =
    if smoke then begin
      (* timed warm, as [bench_json] times it (after the Fig. 6
         section): a fresh process's first run also pays one-off
         set-up that the committed figure does not contain *)
      ignore (E.fig5 ());
      [ snd (Report.section ~name:"fig5" (fun () -> ignore (E.fig5 ()))) ]
    end
    else begin
      let fig6_name = Printf.sprintf "fig6-%s" (Dataset.to_string dataset) in
      let _, fig6 =
        Report.section ~name:fig6_name (fun () -> ignore (E.fig6 ~dataset ()))
      in
      let _, fig5 = Report.section ~name:"fig5" (fun () -> ignore (E.fig5 ())) in
      let _, ablations = Report.section ~name:"ablations" run_ablations in
      [ fig6; fig5; ablations ]
    end
  in
  match Report.compare ~tolerance:wall_tol ~alloc_tolerance:alloc_tol ~baseline sections with
  | Error msg ->
      Printf.eprintf "sim-bench: baseline %s: %s\n%!" baseline msg;
      exit 2
  | Ok [] ->
      Printf.eprintf "sim-bench: no section of this run matches the baseline %s\n%!"
        baseline;
      exit 2
  | Ok deltas ->
      let wall_regression (d : Report.delta) = d.Report.regression && not smoke in
      List.iter
        (fun (d : Report.delta) ->
          Printf.printf
            "%-18s wall %8.3f s vs %8.3f s%s   minor %14.0f w vs %14.0f w%s\n" d.Report.name
            d.Report.wall_s d.Report.baseline_wall_s
            (if smoke then "  (not judged)" else if wall_regression d then "  WALL-REGRESSION" else "")
            d.Report.minor_words d.Report.baseline_minor_words
            (if d.Report.alloc_regression then "  ALLOC-REGRESSION" else ""))
        deltas;
      let bad =
        List.filter (fun (d : Report.delta) -> wall_regression d || d.Report.alloc_regression) deltas
      in
      if bad <> [] then begin
        Printf.eprintf "sim-bench: %d section(s) regressed against %s\n%!"
          (List.length bad) baseline;
        exit 1
      end;
      Printf.printf "sim-bench: ok (%d section(s) within tolerance)\n"
        (List.length deltas)

let sim_bench_cmd =
  let baseline_arg =
    Arg.(
      value & opt string "BENCH_sim.json"
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:"Committed report to gate against (sections matched by name).")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Fast variant for `dune runtest`: only the Fig. 5 section, measured on a second \
             run as $(b,bench-json) measures it, judged on its minor-heap allocation \
             alone (with a loose default tolerance); its wall-clock is printed, not judged.")
  in
  let tolerance_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "tolerance" ] ~docv:"FRACTION"
          ~doc:
            "Relative wall-clock slowdown that counts as a regression (default 1.0; not \
             used with $(b,--smoke) — wall-clock is noisy across hosts).")
  in
  let alloc_tolerance_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "alloc-tolerance" ] ~docv:"FRACTION"
          ~doc:
            "Relative minor-heap allocation growth that counts as a regression (default \
             0.25, or 0.5 with $(b,--smoke)). Allocation is deterministic for a fixed \
             TDO_DOMAINS, so this is the reliable half of the gate.")
  in
  Cmd.v
    (Cmd.info "sim-bench"
       ~doc:
         "Regression gate: re-run the benchmark sections and compare wall-clock and \
          allocation against a committed BENCH_sim.json. Exits 1 on regression, 2 on a \
          missing or disjoint baseline.")
    Term.(
      const sim_bench $ dataset_arg $ baseline_arg $ smoke_arg $ tolerance_arg
      $ alloc_tolerance_arg)

let all_cmd =
  let run dataset =
    E.print_table1 ();
    print_newline ();
    E.print_fig1 ();
    print_newline ();
    E.print_fig2d ();
    print_newline ();
    E.print_fig5 ();
    print_newline ();
    E.print_fig6 ~dataset ~breakdown:true ();
    print_newline ();
    Tdo_cim.Ablations.print_all ()
  in
  Cmd.v (Cmd.info "all" ~doc:"Regenerate every table and figure, plus the ablation studies.")
    Term.(const run $ dataset_arg)

let () =
  let info = Cmd.info "experiments" ~doc:"TDO-CIM paper experiment driver." in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            table1_cmd;
            fig1_cmd;
            fig2d_cmd;
            fig5_cmd;
            fig6_cmd;
            ablations_cmd;
            bench_json_cmd;
            sim_bench_cmd;
            all_cmd;
          ]))
