module Scop_detect = Tdo_poly.Scop_detect
module Codegen = Tdo_poly.Codegen
module Ir = Tdo_ir.Ir
module Ast = Tdo_lang.Ast
module Diag = Tdo_analysis.Diag
module Verify = Tdo_analysis.Verify
module Legality = Tdo_analysis.Legality
module Bounds = Tdo_analysis.Bounds

type outcome =
  | Offloaded of Offload.report
  | Not_scop of string
  | Rejected of Diag.t list

type checked = { func : Ir.func; outcome : outcome; diagnostics : Diag.t list }

let run_checked ?(config = Offload.default_config) ?(verify = false) (f : Ir.func) =
  let diags = ref [] in
  let collect stage ds = diags := !diags @ List.map (Diag.prefixed stage) ds in
  if verify then begin
    collect "input-ir" (Verify.func f);
    collect "input-ir" (Bounds.func f)
  end;
  if verify && Diag.has_errors !diags then
    { func = f; outcome = Rejected (Diag.errors !diags); diagnostics = !diags }
  else
    match Scop_detect.detect_func f with
    | Error msg -> { func = f; outcome = Not_scop msg; diagnostics = !diags }
    | Ok tree ->
        let free = List.map (fun (p : Ast.param) -> p.Ast.pname) f.Ir.params in
        if verify then collect "scop" (Verify.tree ~free tree);
        let on_rewrite pass ~before ~after =
          if verify then begin
            collect pass (Verify.tree ~free after);
            collect pass (Legality.check_stmt_level ~before ~after)
          end
        in
        let shapes = List.map (fun (p : Ast.param) -> (p.Ast.pname, p.Ast.dims)) f.Ir.params in
        let tree', report = Offload.apply ~on_rewrite ~shapes config tree in
        if verify then begin
          collect "offload" (Verify.tree ~free tree');
          collect "offload" (Legality.check ~before:tree ~after:tree')
        end;
        let f' = Codegen.func_with_body f tree' in
        if verify then begin
          collect "output-ir" (Verify.func f');
          collect "output-ir" (Bounds.func f')
        end;
        if verify && Diag.has_errors !diags then
          (* fail safe: keep the host path rather than run a rewrite
             that did not validate *)
          { func = f; outcome = Rejected (Diag.errors !diags); diagnostics = !diags }
        else { func = f'; outcome = Offloaded report; diagnostics = !diags }

