(* tdoc: the TDO-CIM compiler driver.

   Mirrors the paper's compile strings:
     tdoc -O3 file.c                        (host only)
     tdoc -O3 -enable-loop-tactics file.c   (detect + offload to CIM)
   with -emit-ir to inspect the generated (Listing-1 style) IR. *)

open Cmdliner
module Flow = Tdo_cim.Flow
module Offload = Tdo_tactics.Offload
module Pipeline = Tdo_tactics.Pipeline
module Diag = Tdo_analysis.Diag
module Lint = Tdo_analysis.Lint
module Platform = Tdo_runtime.Platform
module Search = Tdo_tune.Search
module Tune_db = Tdo_tune.Db

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Mini-C source file.")

let o3_flag =
  Arg.(value & flag & info [ "O3" ] ~doc:"Accepted for compatibility; optimisation is always on.")

let tactics_flag =
  Arg.(
    value & flag
    & info [ "enable-loop-tactics" ]
        ~doc:"Run Loop Tactics: detect GEMM/GEMV/conv kernels and offload them to the CIM device.")

let emit_ir_flag =
  Arg.(value & flag & info [ "emit-ir" ] ~doc:"Print the final IR to stdout.")

let report_flag =
  Arg.(value & flag & info [ "report" ] ~doc:"Print what the tactics pipeline did.")

let naive_pin_flag =
  Arg.(
    value & flag
    & info [ "naive-mapping" ]
        ~doc:"Ablation: stream the shared operand instead of pinning it (Fig. 5 naive mapping).")

let selective_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "min-intensity" ] ~docv:"MACS_PER_WRITE"
        ~doc:"Selective offload: keep kernels below this MACs-per-crossbar-write on the host.")

let run_flag =
  Arg.(
    value & flag
    & info [ "run" ]
        ~doc:
          "Execute the compiled function on the emulated platform with synthesised arguments \
           (random float arrays; alpha=1.5, beta=1.2) and print the measurement.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for --run data.")

let lint_flag =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Run the offload lint rules over the input IR: profitability (W001), crossbar overflow \
           (W002), endurance budget (W003), dead stores and unused arrays (W004/W005).")

let wall_flag =
  Arg.(
    value & flag
    & info [ "Wall" ] ~doc:"With $(b,--lint): also print the informational notes (N0xx).")

let werror_flag =
  Arg.(
    value & flag
    & info [ "Werror" ]
        ~doc:
          "Promote warnings to errors: if any lint warning is emitted, tdoc exits with code 2. \
           Implies $(b,--lint).")

let depgraph_flag =
  Arg.(
    value & flag
    & info [ "depgraph" ]
        ~doc:
          "Print the kernel dependence graph of the detected SCoP (RAW/WAR/WAW edges between \
           top-level events, from region-footprint overlap) as GraphViz DOT and exit.")

let verify_flag =
  Arg.(
    value & flag
    & info [ "verify-each" ]
        ~doc:
          "Verify the IR and schedule tree before the pipeline, validate every rewrite the \
           tactics pipeline commits to, and re-verify the generated IR. On a verification error \
           the host path is kept and tdoc exits non-zero.")

let explain_flag =
  Arg.(
    value & flag
    & info [ "explain-no-offload" ]
        ~doc:"When nothing was offloaded, explain why (SCoP obstruction or kernel shape).")

let tune_flag =
  Arg.(
    value & flag
    & info [ "tune" ]
        ~doc:
          "Autotune the offload configuration for this kernel before compiling: search the \
           design space with the cost model, re-rank by exact simulation and compile with the \
           measured winner. With $(b,--tune-db) the result is also saved to the database.")

let tune_db_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tune-db" ] ~docv:"FILE"
        ~doc:
          "Tuning database (written by tdo-tune or $(b,--tune)); when this kernel's \
           structural digest has an entry, compile with its configuration — clamped to the \
           platform's crossbar geometry.")

(* Synthesised arguments: deterministic random arrays, conventional
   scalar values for the usual BLAS parameter names. *)
let synthesise_args ~seed (params : Tdo_lang.Ast.param list) =
  let module Interp = Tdo_lang.Interp in
  let module Ast = Tdo_lang.Ast in
  let g = Tdo_util.Prng.create ~seed in
  List.map
    (fun (p : Ast.param) ->
      let value =
        match (p.Ast.dims, p.Ast.ptyp) with
        | [], Ast.Tfloat ->
            Interp.Vfloat
              (match p.Ast.pname with "alpha" -> 1.5 | "beta" -> 1.2 | _ -> 1.0)
        | [], (Ast.Tint | Ast.Tvoid) -> Interp.Vint 1
        | dims, _ ->
            let arr = Interp.make_array ~dims in
            Array.iteri
              (fun i _ ->
                let v = Tdo_util.Prng.float_range g ~lo:(-1.0) ~hi:1.0 in
                arr.Interp.data.(i) <- Int32.float_of_bits (Int32.bits_of_float v))
              arr.Interp.data;
            Interp.Varray arr
      in
      (p.Ast.pname, value))
    params

let execute ~seed f =
  let m, _platform = Flow.run f ~args:(synthesise_args ~seed f.Tdo_ir.Ir.params) in
  Printf.printf "ROI: %d instructions, %d cycles, %.3f ms\n" m.Flow.roi_instructions
    m.Flow.roi_cycles (m.Flow.time_s *. 1e3);
  Printf.printf "energy: %s (EDP %sJs)\n"
    (Tdo_util.Pretty.si_float m.Flow.energy_j ^ "J")
    (Tdo_util.Pretty.si_float m.Flow.edp_js);
  if m.Flow.used_cim then
    Printf.printf "CIM: %d launch(es), %d MACs, %d crossbar writes (%.1f MACs/write)\n"
      m.Flow.launches m.Flow.cim_macs m.Flow.cim_write_bytes m.Flow.macs_per_cim_write
  else print_endline "CIM: not used (host only)"

let run file o3 tactics emit_ir report naive_pin min_intensity do_run seed lint wall werror
    depgraph verify explain tune tune_db =
  ignore o3;
  let lint = lint || werror in
  let source = In_channel.with_open_text file In_channel.input_all in
  let tcfg = { Offload.default_config with Offload.naive_pin; min_intensity } in
  (* --tune / --tune-db only make sense with the tactics pipeline on *)
  let tactics = tactics || tune || tune_db <> None in
  let options = { Flow.enable_loop_tactics = tactics; tactics = tcfg } in
  let device_rows, device_cols =
    let xbar = Platform.default_config.Platform.engine.Tdo_cimacc.Micro_engine.xbar in
    (xbar.Tdo_pcm.Crossbar.rows, xbar.Tdo_pcm.Crossbar.cols)
  in
  let db =
    match tune_db with
    | None -> None
    | Some path -> (
        match Tune_db.load path with
        | Ok db -> Some db
        | Error msg ->
            Printf.eprintf "%s: %s\n" path msg;
            exit 1)
  in
  (* the configuration the compile actually used, for the lint pass *)
  let resolved = ref None in
  let resolve_config =
    if tune then
      Some
        (fun (ast : Tdo_lang.Ast.func) ->
          match
            Search.tune ~source
              ~args:(fun () -> synthesise_args ~seed ast.Tdo_lang.Ast.params)
              ()
          with
          | Error msg ->
              Printf.eprintf "%s: autotuning failed: %s\n" file msg;
              None
          | Ok r ->
              let cfg = r.Search.best.Search.point in
              resolved := Some cfg;
              Printf.printf "tuned: %s (x%.2f vs default, %d exact simulations)\n"
                (Tdo_tune.Space.describe cfg)
                (Search.improvement r) r.Search.simulated;
              (match (db, tune_db) with
              | Some d, Some path ->
                  Tune_db.save
                    (Tune_db.add d
                       (Tune_db.entry_of_result ~n:(Tdo_tune.Space.max_extent ast) r))
                    path;
                  Printf.printf "tuning database updated: %s\n" path
              | _ -> ());
              Some cfg)
    else
      Option.map
        (fun d (ast : Tdo_lang.Ast.func) ->
          match
            Tune_db.config_for ~device:(device_rows, device_cols) d
              (Tdo_lang.Ast.structural_digest ast)
          with
          | Some cfg ->
              resolved := Some cfg;
              Printf.printf "tune-db: compiling with %s\n" (Tdo_tune.Space.describe cfg);
              Some cfg
          | None -> None)
        db
  in
  match
    let ast = Tdo_lang.Parser.parse_func source in
    (ast, Flow.compile_checked ~options ?resolve_config ~verify ast)
  with
  | exception Tdo_lang.Lexer.Lex_error { line; message } ->
      Printf.eprintf "%s:%d: lexical error: %s\n" file line message;
      exit 1
  | exception Tdo_lang.Parser.Parse_error { line; message } ->
      Printf.eprintf "%s:%d: syntax error: %s\n" file line message;
      exit 1
  | exception Tdo_lang.Typecheck.Type_error message ->
      Printf.eprintf "%s: type error: %s\n" file message;
      exit 1
  | ast, compiled ->
      let f = compiled.Flow.func in
      if depgraph then begin
        let f0 = Tdo_ir.Lower.func ast in
        match Tdo_poly.Scop_detect.detect_func f0 with
        | Ok t ->
            print_string (Tdo_analysis.Depgraph.to_dot (Tdo_analysis.Depgraph.of_tree t));
            exit 0
        | Error msg ->
            Printf.eprintf "%s: no dependence graph: SCoP detection failed: %s\n" file msg;
            exit 1
      end;
      let rejected =
        match compiled.Flow.outcome with Some (Pipeline.Rejected _) -> true | _ -> false
      in
      if verify && compiled.Flow.diagnostics <> [] then
        Format.printf "%a@." Diag.pp_list
          (Diag.by_severity (Diag.canonical compiled.Flow.diagnostics));
      if rejected then
        Printf.eprintf "%s: verification rejected the rewrite; keeping the host path\n" file;
      let tactics_report =
        match compiled.Flow.outcome with Some (Pipeline.Offloaded r) -> Some r | _ -> None
      in
      let offloaded =
        match tactics_report with Some r -> r.Offload.kernels_offloaded > 0 | None -> false
      in
      let saw_warning = ref false in
      if lint || wall || (explain && not offloaded) then begin
        let f0 = Tdo_ir.Lower.func ast in
        let etcfg = match !resolved with Some c -> c | None -> tcfg in
        let lcfg =
          {
            Lint.default_config with
            Lint.xbar_rows = etcfg.Offload.xbar_rows;
            xbar_cols = etcfg.Offload.xbar_cols;
            enable_tiling = etcfg.Offload.enable_tiling;
            min_intensity =
              (match etcfg.Offload.min_intensity with
              | Some t -> t
              | None -> Lint.default_config.Lint.min_intensity);
            device_rows = Some device_rows;
            device_cols = Some device_cols;
          }
        in
        let ds =
          Lint.run ~config:lcfg f0
          @ if Tdo_ir.Ir.contains_cim_calls f then Lint.offload_ir f else []
        in
        let shown =
          List.filter
            (fun (d : Diag.t) ->
              match d.Diag.severity with
              | Diag.Error | Diag.Warning -> lint || wall || explain
              | Diag.Note -> wall || explain)
            (Diag.canonical ds)
        in
        if List.exists (fun (d : Diag.t) -> d.Diag.severity = Diag.Warning) shown then
          saw_warning := true;
        if shown <> [] then Format.printf "%a@." Diag.pp_list (Diag.by_severity shown)
        else if lint || wall then Printf.printf "lint: clean\n"
      end;
      if explain && offloaded then print_endline "loop-tactics: kernels were offloaded";
      if report then begin
        match tactics_report with
        | None ->
            if rejected then print_endline "loop-tactics: rewrite rejected by verification"
            else if tactics then
              print_endline "loop-tactics: function body is not a SCoP; host path"
            else print_endline "loop-tactics: disabled"
        | Some r ->
            Printf.printf
              "loop-tactics: %d kernels detected, %d offloaded, %d batched groups, %d tiled, %d kept on host\n"
              r.Offload.kernels_detected r.Offload.kernels_offloaded r.Offload.fused_groups
              r.Offload.tiled_kernels r.Offload.skipped_low_intensity
      end;
      if emit_ir then Format.printf "%a@." Tdo_ir.Ir.pp_func f;
      if do_run then execute ~seed f;
      if (not emit_ir) && (not report) && (not do_run) && not (lint || wall || verify || explain)
      then
        Printf.printf "compiled %s (%s)\n" file
          (if Tdo_ir.Ir.contains_cim_calls f then "with CIM offload" else "host only");
      if rejected || (verify && Diag.errors compiled.Flow.diagnostics <> []) then exit 1;
      if werror && !saw_warning then exit 2

let cmd =
  let exits =
    Cmd.Exit.info 1
      ~doc:
        "on errors: lexical, syntax or type errors in the source; verification rejecting the \
         rewrite; SCoP detection failing under $(b,--depgraph); or an unreadable tuning \
         database."
    :: Cmd.Exit.info 2 ~doc:"when $(b,--Werror) is set and at least one lint warning was emitted."
    :: Cmd.Exit.defaults
  in
  let info = Cmd.info "tdoc" ~doc:"TDO-CIM compiler driver." ~exits in
  Cmd.v info
    Term.(
      const run $ file_arg $ o3_flag $ tactics_flag $ emit_ir_flag $ report_flag
      $ naive_pin_flag $ selective_arg $ run_flag $ seed_arg $ lint_flag $ wall_flag
      $ werror_flag $ depgraph_flag $ verify_flag $ explain_flag $ tune_flag $ tune_db_arg)

let () = exit (Cmd.eval cmd)
