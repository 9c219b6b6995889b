(* Command line of the end-to-end benchmark.

     main.exe run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
     main.exe compare PARENT_DIR CHANGE_DIR

   [run --workload W] measures one workload in this process and ends
   with one JSON result line; without [--workload] it runs every
   workload, each in a fresh process. *)

open Cmdliner
open E2e_bench

let print_result (r : Results.result) =
  List.iter
    (fun (m : Results.metric) ->
      Printf.printf "%-40s %s %s\n" m.Results.name (Results.number m.Results.value)
        m.Results.unit_)
    r.Results.metrics;
  List.iter (fun (k, v) -> Printf.printf "  %-38s %s\n" k (Results.number v)) r.Results.info

let run_workload (benchmark : Results.benchmark) (w : Workloads.t) ~seed ~seconds ~traced ~smoke
    ~out =
  (* The traced run pins one domain, so that a layer's self time is
     well defined. *)
  Unix.putenv "TDO_DOMAINS"
    (string_of_int (if traced then 1 else min 2 (Domain.recommended_domain_count ())));
  let size =
    if smoke then Measure.smoke
    else
      let s = Measure.full w ~seconds in
      (* a traced chunk costs about three untraced ones *)
      if traced then { s with Measure.chunks = max 1 (s.Measure.chunks / 3) } else s
  in
  let r, listed, problems =
    if traced then begin
      let r, spans = Layers.run w size ~seed in
      let path = Results.out_path ~out ~seed (w.Workloads.name ^ ".spans.json") in
      Results.write_file path (Spans.to_chrome_json spans);
      Printf.printf "spans: %d written to %s\n" (Spans.length spans) path;
      (r, benchmark.Results.per_layer, Spans.nesting_errors spans)
    end
    else (Measure.run w size ~seed, benchmark.Results.end_to_end, [])
  in
  let problems = Results.check_names listed r.Results.metrics @ problems in
  Results.write_result
    (Results.out_path ~out ~seed
       (w.Workloads.name ^ if traced then ".layers.json" else ".json"))
    ~workload:w.Workloads.name ~seed r;
  Printf.printf "workload %s, seed %d, %s\n" w.Workloads.name seed
    (if traced then "per-layer metrics (traced run)" else "end-to-end metrics");
  print_result r;
  List.iter (fun p -> Printf.printf "FAIL: %s\n" p) problems;
  print_endline (Results.result_line r);
  if r.Results.correct && r.Results.failed = 0 && problems = [] then 0 else 1

(* Every workload in a fresh process, end-to-end and (with [--trace])
   traced. *)
let run_all ~seed ~seconds ~traced ~smoke ~out ~benchmark_path =
  let t0 = Unix.gettimeofday () in
  let modes = if traced && smoke then [ false; true ] else [ traced ] in
  let failures =
    List.concat_map
      (fun (w : Workloads.t) ->
        List.filter_map
          (fun tr ->
            let argv =
              [
                Sys.executable_name; "run"; "--workload"; w.Workloads.name;
                "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
                "--trace"; (if tr then "1" else "0"); "--out"; out;
                "--benchmark"; benchmark_path;
              ]
              @ if smoke then [ "--smoke" ] else []
            in
            flush_all ();
            let pid =
              Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin
                Unix.stdout Unix.stderr
            in
            match Unix.waitpid [] pid with
            | _, Unix.WEXITED 0 -> None
            | _ -> Some (w.Workloads.name ^ if tr then " (traced)" else ""))
          modes)
      Workloads.all
  in
  let wall = Unix.gettimeofday () -. t0 in
  let over_budget = smoke && wall > 60.0 in
  List.iter (fun f -> Printf.printf "FAIL: workload %s\n" f) failures;
  if over_budget then Printf.printf "FAIL: smoke run took %.1f s, over its 60 s budget\n" wall;
  Printf.printf "%d workloads, %.1f s: %s\n" (List.length Workloads.all) wall
    (if failures = [] && not over_budget then "ok" else "FAILED");
  if failures = [] && not over_budget then 0 else 1

let load_benchmark path =
  match Results.load_benchmark path with
  | Ok b -> b
  | Error msg ->
      prerr_endline msg;
      exit 2

let run workload seed seconds traced smoke out benchmark_path =
  let benchmark = load_benchmark benchmark_path in
  match workload with
  | None -> run_all ~seed ~seconds ~traced ~smoke ~out ~benchmark_path
  | Some name -> (
      match Workloads.find name with
      | Error msg ->
          prerr_endline msg;
          2
      | Ok w -> run_workload benchmark w ~seed ~seconds ~traced ~smoke ~out)

let compare parent change benchmark_path =
  let benchmark = load_benchmark benchmark_path in
  if Compare.run ~benchmark ~parent ~change = 0 then 0 else 1

let benchmark_arg =
  Arg.(
    value & opt string "BENCHMARK.json"
    & info [ "benchmark" ] ~docv:"FILE"
        ~doc:"The benchmark definition the metrics are listed in.")

let run_cmd =
  let workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:"Workload to run in this process: sustained, overload, graph or wide-mix. \
                Without it every workload runs, each in its own process.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.") in
  let seconds =
    Arg.(
      value & opt float 15.0
      & info [ "seconds" ] ~docv:"S"
          ~doc:"Host time the measured replays take on the reference machine; sets how many \
                requests a run replays.")
  in
  let trace =
    let bool01 = Arg.enum [ ("0", false); ("1", true); ("false", false); ("true", true) ] in
    Arg.(
      value & opt ~vopt:true bool01 false
      & info [ "trace" ] ~docv:"0|1"
          ~doc:"Traced run: per-layer metrics and a span file instead of the end-to-end \
                metrics.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"About 300 requests per workload with every served request golden-checked; \
                without --workload, fails over a 60 s wall budget.")
  in
  let out =
    Arg.(
      value & opt string "bench/e2e/out"
      & info [ "out" ] ~docv:"DIR" ~doc:"Results go to DIR/<seed>/<workload>.json.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run the benchmark workloads.")
    Term.(const run $ workload $ seed $ seconds $ trace $ smoke $ out $ benchmark_arg)

let compare_cmd =
  let dir n docv =
    Arg.(required & pos n (some dir) None & info [] ~docv ~doc:"Directory of run results.")
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Judge a change's results against its parent's, metric by metric, with the \
             BENCHMARK.json bounds. Exits 1 if any metric got worse.")
    Term.(const compare $ dir 0 "PARENT" $ dir 1 "CHANGE" $ benchmark_arg)

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "e2e" ~doc:"End-to-end serving benchmark.")
          [ run_cmd; compare_cmd ]))
