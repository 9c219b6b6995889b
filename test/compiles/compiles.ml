(* Compiles a fixed corpus and prints one line per program: an MD5
   digest of its IR compiled under [Flow.o3_loop_tactics], then its
   canonical diagnostics from [Lint.run] on the source IR,
   [Lint.offload_ir] on the compiled IR and
   [Pipeline.run_checked ~verify:true]. The dune rule diffs the output
   against [compiles.expected], so any change to what the compiler
   emits or what the analyses report shows up here.

   The corpus is every PolyBench kernel at n = 16 and n = 260 (past
   the 256-wide crossbar, so the tiled code path is covered), both
   standard graph models at n = 16, and the crafted lint examples
   named on the command line. *)

module Flow = Tdo_cim.Flow
module Ir = Tdo_ir.Ir
module Diag = Tdo_analysis.Diag
module Lint = Tdo_analysis.Lint
module Pipeline = Tdo_tactics.Pipeline
module Kernels = Tdo_polybench.Kernels
module Graph = Tdo_graph.Graph

let severity = function Diag.Error -> "error" | Diag.Warning -> "warning" | Diag.Note -> "note"

let diags label ds =
  Printf.sprintf "%s=[%s]" label
    (String.concat " | "
       (List.map
          (fun (d : Diag.t) -> Printf.sprintf "%s[%s] %s" (severity d.Diag.severity) d.Diag.code d.Diag.message)
          (Diag.canonical ds)))

let line name source =
  let f0 = Tdo_ir.Lower.func (Tdo_lang.Parser.parse_func source) in
  let compiled, _ = Flow.compile ~options:Flow.o3_loop_tactics source in
  let ir = Digest.to_hex (Digest.string (Format.asprintf "%a" Ir.pp_func compiled)) in
  let checked = Pipeline.run_checked ~verify:true f0 in
  Printf.printf "%s ir=%s %s %s %s\n" name ir
    (diags "lint" (Lint.run f0))
    (diags "offload_ir" (Lint.offload_ir compiled))
    (diags "verify" checked.Pipeline.diagnostics)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let () =
  List.iter
    (fun n ->
      List.iter
        (fun (b : Kernels.benchmark) ->
          line (Printf.sprintf "%s-%d" b.Kernels.name n) (b.Kernels.source ~n))
        Kernels.all)
    [ 16; 260 ];
  List.iter
    (fun g ->
      let b = Graph.benchmark g in
      line (Printf.sprintf "%s-16" b.Kernels.name) (b.Kernels.source ~n:16))
    Graph.standard;
  for i = 1 to Array.length Sys.argv - 1 do
    let path = Sys.argv.(i) in
    line (Filename.basename path) (read_file path)
  done
