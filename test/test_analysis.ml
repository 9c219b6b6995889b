open Tdo_analysis
module St = Tdo_poly.Schedule_tree
module Scop_detect = Tdo_poly.Scop_detect
module Affine = Tdo_poly.Affine
module Ast = Tdo_lang.Ast
module Parser = Tdo_lang.Parser
module Builder = Tdo_lang.Builder
module Lower = Tdo_ir.Lower
module Ir = Tdo_ir.Ir
module Pipeline = Tdo_tactics.Pipeline
module Offload = Tdo_tactics.Offload
module Flow = Tdo_cim.Flow
module Workloads = Tdo_cim.Workloads
module Kernels = Tdo_polybench.Kernels

let lower src = Lower.func (Parser.parse_func src)

let tree_of src =
  match Scop_detect.detect_func (lower src) with
  | Ok t -> t
  | Error e -> Alcotest.failf "detect: %s" e

let codes ds = List.sort_uniq compare (List.map (fun (d : Diag.t) -> d.Diag.code) ds)

let has_code c ds = List.exists (fun (d : Diag.t) -> String.equal d.Diag.code c) ds

let message_with c ds =
  match List.find_opt (fun (d : Diag.t) -> String.equal d.Diag.code c) ds with
  | Some d -> d.Diag.message
  | None -> Alcotest.failf "no %s diagnostic in [%s]" c (String.concat "; " (codes ds))

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let check_mentions what msg needles =
  List.iter
    (fun needle ->
      Alcotest.(check bool) (what ^ " mentions " ^ needle) true (contains msg needle))
    needles

let gemm_src n =
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

(* ---------- Verify: IR well-formedness ---------- *)

let test_verify_clean_gemm () =
  Alcotest.(check (list string)) "no diagnostics" [] (codes (Verify.func (lower (gemm_src 8))))

let test_verify_undefined_names () =
  let f =
    {
      Ir.name = "bad";
      params = [];
      body =
        [
          Ir.Assign
            {
              lhs = { Ast.base = "A"; indices = [ Ast.Var "i" ] };
              op = Ast.Set;
              rhs = Ast.Binop (Ast.Add, Ast.Var "x", Ast.Index ("B", [ Ast.Int_lit 0 ]));
            };
        ];
    }
  in
  let ds = Verify.func f in
  Alcotest.(check bool) "undefined lhs array" true (has_code "E001" ds);
  Alcotest.(check bool) "undefined rhs array" true (has_code "E002" ds)

let test_verify_structure () =
  let f =
    {
      Ir.name = "bad";
      params = [ { Ast.pname = "A"; ptyp = Ast.Tfloat; dims = [ 4 ] } ];
      body =
        [
          Ir.For
            {
              var = "i";
              lo = Ast.Int_lit 0;
              hi = Ast.Int_lit 4;
              step = 0;
              body =
                [
                  Ir.Roi_begin;
                  Ir.Assign
                    {
                      lhs = { Ast.base = "A"; indices = [ Ast.Var "i"; Ast.Var "i" ] };
                      op = Ast.Set;
                      rhs = Ast.Float_lit 0.0;
                    };
                ];
            };
        ];
    }
  in
  let ds = Verify.func f in
  Alcotest.(check bool) "non-positive step" true (has_code "E006" ds);
  Alcotest.(check bool) "roi in loop" true (has_code "E008" ds);
  Alcotest.(check bool) "rank mismatch" true (has_code "E003" ds)

let dummy_ref array rows cols =
  { Ir.array; row_off = Ast.Int_lit 0; col_off = Ast.Int_lit 0; rows; cols; trans = false }

let test_verify_call_signature () =
  let params =
    List.map
      (fun name -> { Ast.pname = name; ptyp = Ast.Tfloat; dims = [ 4; 4 ] })
      [ "A"; "B"; "C" ]
  in
  let gemm ~m ~n ~k a b c =
    Ir.Call
      (Ir.Cim_gemm
         { m; n; k; alpha = Ast.Float_lit 1.0; beta = Ast.Float_lit 0.0; a; b; c; pin = Ir.Pin_a })
  in
  let alloc arr = Ir.Call (Ir.Cim_alloc { array = arr }) in
  (* shape of B inconsistent with k x n *)
  let bad_shape =
    {
      Ir.name = "bad";
      params;
      body =
        [
          Ir.Call Ir.Cim_init;
          alloc "A";
          alloc "B";
          alloc "C";
          gemm ~m:4 ~n:4 ~k:4 (dummy_ref "A" 4 4) (dummy_ref "B" 2 4) (dummy_ref "C" 4 4);
        ];
    }
  in
  let ds = Verify.func bad_shape in
  Alcotest.(check bool) "operand shape" true (has_code "E009" ds);
  check_mentions "E009" (message_with "E009" ds) [ "polly_cimBlasSGemm"; "'B'"; "2x4"; "4x4" ]

let test_verify_device_state () =
  let params = [ { Ast.pname = "A"; ptyp = Ast.Tfloat; dims = [ 4; 4 ] } ] in
  let use_before_init =
    { Ir.name = "f"; params; body = [ Ir.Call (Ir.Cim_alloc { array = "A" }) ] }
  in
  Alcotest.(check bool) "alloc before init" true (has_code "E010" (Verify.func use_before_init));
  let use_after_free =
    {
      Ir.name = "f";
      params;
      body =
        [
          Ir.Call Ir.Cim_init;
          Ir.Call (Ir.Cim_alloc { array = "A" });
          Ir.Call (Ir.Cim_free { array = "A" });
          Ir.Call (Ir.Cim_h2d { array = "A" });
        ];
    }
  in
  let ds = Verify.func use_after_free in
  Alcotest.(check bool) "use after free" true (has_code "E010" ds);
  check_mentions "E010" (message_with "E010" ds) [ "'A'"; "polly_cimFree" ];
  let no_malloc =
    { Ir.name = "f"; params; body = [ Ir.Call Ir.Cim_init; Ir.Call (Ir.Cim_h2d { array = "A" }) ] }
  in
  Alcotest.(check bool) "transfer without malloc" true (has_code "E010" (Verify.func no_malloc))

let test_verify_tree_invariants () =
  let tree = tree_of (gemm_src 6) in
  Alcotest.(check (list string)) "gemm tree clean" []
    (codes (Verify.tree ~free:[ "alpha"; "beta" ] tree));
  (* duplicate a statement id by self-appending the top sequence *)
  let dup = match tree with St.Seq _ -> St.Seq [ tree; tree ] | t -> St.Seq [ t; t ] in
  Alcotest.(check bool) "duplicate sids" true
    (has_code "E053" (Verify.tree ~free:[ "alpha"; "beta" ] dup));
  (* alpha/beta unbound when not declared free *)
  Alcotest.(check bool) "unbound rhs var" true (has_code "E056" (Verify.tree tree))

(* ---------- Legality: statement level ---------- *)

let swap_outer_two = function
  | St.Band (b1, St.Band (b2, child)) -> St.Band (b2, St.Band (b1, child))
  | t -> Alcotest.failf "not a 2-deep nest: %a" St.pp t

let test_legality_accumulation_interchange_ok () =
  (* pure accumulation tolerates instance reordering *)
  let src =
    {|
void acc(float C[6][6], float A[6][6], float B[6][6]) {
  for (int i = 0; i < 6; i++)
    for (int k = 0; k < 6; k++)
      C[i][0] += A[i][k] * B[k][0];
}
|}
  in
  let before = tree_of src in
  let after = swap_outer_two before in
  Alcotest.(check (list string)) "no errors" []
    (codes (Legality.check_stmt_level ~before ~after))

let test_legality_illegal_interchange () =
  (* distance vector (1, -1): legal as written, reversed by the swap *)
  let src =
    {|
void wave(float A[8][8]) {
  for (int i = 1; i < 8; i++)
    for (int j = 0; j < 7; j++)
      A[i][j] = A[i-1][j+1];
}
|}
  in
  let before = tree_of src in
  let after = swap_outer_two before in
  let ds = Legality.check_stmt_level ~before ~after in
  Alcotest.(check bool) "E101 raised" true (has_code "E101" ds);
  check_mentions "E101" (message_with "E101" ds) [ "'A'" ]

let test_legality_dropped_and_reordered () =
  let src =
    {|
void two(float A[6], float B[6]) {
  for (int i = 0; i < 6; i++)
    A[i] = 1.0;
  for (int i = 0; i < 6; i++)
    B[i] = A[i] + 1.0;
}
|}
  in
  let before = tree_of src in
  match before with
  | St.Seq ([ producer; _consumer ] as children) ->
      let ds = Legality.check_stmt_level ~before ~after:producer in
      Alcotest.(check bool) "dropped statement" true (has_code "E103" ds);
      (* the second loop reads what the first writes: swapping them
         breaks the flow dependence on A *)
      let ds = Legality.check_stmt_level ~before ~after:(St.Seq (List.rev children)) in
      Alcotest.(check bool) "reordered dependents" true (has_code "E101" ds);
      check_mentions "E101" (message_with "E101" ds) [ "'A'" ]
  | t -> Alcotest.failf "expected a two-segment sequence: %a" St.pp t

(* ---------- Legality: dataflow level ---------- *)

(* every array of [src] with its dimensions, as the pipeline passes them *)
let shapes_of src =
  List.map (fun (p : Ast.param) -> (p.Ast.pname, p.Ast.dims)) (lower src).Ir.params

let test_legality_offload_rewrite_ok () =
  let before = tree_of (gemm_src 8) in
  let after, _report =
    Offload.apply ~shapes:(shapes_of (gemm_src 8)) Offload.default_config before
  in
  Alcotest.(check bool) "code emitted" true (St.contains_code after);
  Alcotest.(check (list string)) "dataflow preserved" []
    (codes (Diag.errors (Legality.check ~before ~after)))

let test_legality_lost_write () =
  let before = tree_of (gemm_src 8) in
  let ds = Legality.check ~before ~after:(St.Code [ Ir.Call Ir.Cim_init ]) in
  Alcotest.(check bool) "lost write to C" true (has_code "E106" ds);
  check_mentions "E106" (message_with "E106" ds) [ "'C'" ]

let test_legality_illegal_fusion () =
  (* D = C * E depends on C = A * B: batching both into one parallel
     launch is the paper's illegal-fusion case *)
  let src =
    {|
void chain(float C[8][8], float D[8][8], float A[8][8], float B[8][8], float E[8][8]) {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++) {
      C[i][j] = 0.0;
      for (int k = 0; k < 8; k++)
        C[i][j] += A[i][k] * B[k][j];
    }
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++) {
      D[i][j] = 0.0;
      for (int k = 0; k < 8; k++)
        D[i][j] += C[i][k] * E[k][j];
    }
}
|}
  in
  let before = tree_of src in
  let whole a = Ir.mat_ref_whole ~array:a ~rows:8 ~cols:8 () in
  let after =
    St.Code
      [
        Ir.Call Ir.Cim_init;
        Ir.Call
          (Ir.Cim_gemm_batched
             {
               m = 8;
               n = 8;
               k = 8;
               alpha = Ast.Float_lit 1.0;
               beta = Ast.Float_lit 0.0;
               batch = [ (whole "A", whole "B", whole "C"); (whole "C", whole "E", whole "D") ];
               pin = Ir.Pin_a;
             });
      ]
  in
  let ds = Legality.check ~before ~after in
  Alcotest.(check bool) "E102 raised" true (has_code "E102" ds);
  check_mentions "E102" (message_with "E102" ds) [ "'C'" ];
  (* and the real pipeline never emits that batch: the two kernels are
     dependent, so fusion must keep them as separate launches *)
  let legal, _ = Offload.apply ~shapes:(shapes_of src) Offload.default_config before in
  Alcotest.(check (list string)) "pipeline stays legal" []
    (codes (Diag.errors (Legality.check ~before ~after:legal)))

(* A read the nest itself fed is not a dropped read: conv's
   [out[i][j] += ...] reads only what [out[i][j] = 0.0] wrote, and the
   beta = 0 lowering that never reads [out] verifies clean. *)
let test_legality_conv_verifies_clean () =
  let src = (Result.get_ok (Kernels.find "conv")).Kernels.source ~n:16 in
  let checked = Pipeline.run_checked ~verify:true (lower src) in
  (match checked.Pipeline.outcome with
  | Pipeline.Offloaded r -> Alcotest.(check int) "offloaded" 1 r.Offload.kernels_offloaded
  | _ -> Alcotest.fail "conv was not offloaded");
  Alcotest.(check (list string)) "no diagnostics" [] (codes checked.Pipeline.diagnostics)

(* gemm's [C[i][j] *= beta] reads C's old value, so a rewrite of the
   8x8 gemm that never copies C in, launching with beta = 0 into [into]
   and copying [into] back, then running [after], draws W108 naming C
   and nothing else. *)
let check_drops_old_c ~into ~after =
  let whole a = Ir.mat_ref_whole ~array:a ~rows:8 ~cols:8 () in
  let calls =
    [ Ir.Cim_init ]
    @ List.map (fun a -> Ir.Cim_alloc { array = a }) [ "A"; "B"; into ]
    @ [
        Ir.Cim_h2d { array = "A" };
        Ir.Cim_h2d { array = "B" };
        Ir.Cim_gemm
          {
            m = 8;
            n = 8;
            k = 8;
            alpha = Ast.Var "alpha";
            beta = Ast.Float_lit 0.0;
            a = whole "A";
            b = whole "B";
            c = whole into;
            pin = Ir.Pin_b;
          };
        Ir.Cim_d2h { array = into };
      ]
  in
  let after = St.Code (List.map (fun c -> Ir.Call c) calls @ after) in
  let ds = Legality.check ~before:(tree_of (gemm_src 8)) ~after in
  Alcotest.(check (list string)) "warning only" [ "W108" ] (codes ds);
  check_mentions "W108" (message_with "W108" ds) [ "'C'" ]

(* Computing into a temporary T and copying T over C. *)
let test_legality_dropped_old_value_warns () =
  let v x = Ast.Var x and i n = Ast.Int_lit n in
  let copy_back =
    Ir.For
      {
        var = "i";
        lo = i 0;
        hi = i 8;
        step = 1;
        body =
          [
            Ir.For
              {
                var = "j";
                lo = i 0;
                hi = i 8;
                step = 1;
                body =
                  [
                    Ir.Assign
                      {
                        lhs = { Ast.base = "C"; indices = [ v "i"; v "j" ] };
                        op = Ast.Set;
                        rhs = Ast.Index ("T", [ v "i"; v "j" ]);
                      };
                  ];
              };
          ];
      }
  in
  check_drops_old_c ~into:"T" ~after:[ copy_back ]

(* Straight into C: allocating C on the device, launching into it,
   copying it back and freeing it read nothing of C. *)
let test_legality_dropped_old_value_no_temporary () =
  check_drops_old_c ~into:"C"
    ~after:(List.map (fun a -> Ir.Call (Ir.Cim_free { array = a })) [ "A"; "B"; "C" ])

(* ---------- Bounds ---------- *)

let test_bounds_overflow_witness () =
  let src =
    {|
void oob(float B[8][8], float A[8][8]) {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++)
      B[i][j] = A[i+1][j];
}
|}
  in
  let ds = Bounds.func (lower src) in
  Alcotest.(check bool) "E201 raised" true (has_code "E201" ds);
  check_mentions "E201" (message_with "E201" ds) [ "'A'"; "i = 7"; "reaches 8" ]

let test_bounds_underflow_witness () =
  let src =
    {|
void oob(float B[8], float A[8]) {
  for (int i = 0; i < 8; i++)
    B[i] = A[i-2];
}
|}
  in
  let ds = Bounds.func (lower src) in
  Alcotest.(check bool) "E202 raised" true (has_code "E202" ds);
  check_mentions "E202" (message_with "E202" ds) [ "'A'"; "i = 0"; "-2" ]

(* an inner loop that reuses an outer iterator's name with a
   parametric bound hides the outer range: nothing is provable *)
let test_bounds_shadowed_loop () =
  let src =
    {|
void f(float A[8], int n) {
  for (int i = 0; i < 4; i++)
    for (int i = 0; i < n; i++)
      A[i] = 1.0;
}
|}
  in
  Alcotest.(check (list string)) "not provable" [ "N203" ] (codes (Bounds.func (lower src)))

let test_bounds_clean_kernels () =
  Alcotest.(check (list string)) "gemm in bounds" [] (codes (Bounds.func (lower (gemm_src 8))));
  let f, _ = Flow.compile ~options:Flow.o3_loop_tactics (gemm_src 8) in
  Alcotest.(check (list string)) "offloaded gemm in bounds" [] (codes (Bounds.func f))

(* ---------- Lint ---------- *)

let gemv_src =
  {|
void gemv(float alpha, float y[40], float A[40][40], float x[40]) {
  for (int i = 0; i < 40; i++) {
    y[i] = 0.0;
    for (int j = 0; j < 40; j++)
      y[i] += alpha * A[i][j] * x[j];
  }
}
|}

let test_lint_low_intensity () =
  let ds = Lint.run (lower gemv_src) in
  Alcotest.(check bool) "W001 raised" true (has_code "W001" ds);
  check_mentions "W001" (message_with "W001" ds) [ "'y'"; "'A'" ];
  Alcotest.(check bool) "gemm not flagged" false (has_code "W001" (Lint.run (lower (gemm_src 24))))

let test_lint_dead_and_unused () =
  let src =
    {|
void f(float A[4], float unused_param[4]) {
  float dead[4];
  float never[4];
  for (int i = 0; i < 4; i++) {
    A[i] = 1.0;
    dead[i] = 2.0;
  }
}
|}
  in
  let ds = Lint.run (lower src) in
  Alcotest.(check bool) "dead store" true (has_code "W004" ds);
  check_mentions "W004" (message_with "W004" ds) [ "'dead'" ];
  Alcotest.(check bool) "unused arrays" true (has_code "W005" ds);
  (* the output parameter A is written: neither dead (observable) nor unused *)
  List.iter
    (fun (d : Diag.t) ->
      Alcotest.(check bool) ("no diagnostic names A: " ^ d.Diag.message) false
        (contains d.Diag.message "'A'"))
    ds

let test_lint_explains_scop_failure () =
  let src =
    {|
void f(float A[4][4], float s) {
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++)
      s = A[i][j];
}
|}
  in
  let ds = Lint.run (lower src) in
  Alcotest.(check bool) "N001 raised" true (has_code "N001" ds);
  check_mentions "N001" (message_with "N001" ds) [ "scalar write" ]

let test_lint_endurance_budget () =
  (* a crossbar-sized pinned operand re-programmed once per execution
     at 1 Hz exhausts a 1e7-write endurance budget within a year *)
  let ds = Lint.run (lower (Workloads.gemm_source ~n:512)) in
  Alcotest.(check bool) "W003 raised" true (has_code "W003" ds);
  check_mentions "W003" (message_with "W003" ds) [ "Eq. 1" ]

let test_lint_unguarded_faulty_offload () =
  let faulty = { Lint.default_config with Lint.fault_rate = 1e-3 } in
  let ds = Lint.run ~config:faulty (lower (gemm_src 24)) in
  Alcotest.(check bool) "W006 raised" true (has_code "W006" ds);
  check_mentions "W006" (message_with "W006" ds) [ "ABFT" ];
  let guarded = { faulty with Lint.abft_guard = true } in
  Alcotest.(check bool) "guard silences W006" false
    (has_code "W006" (Lint.run ~config:guarded (lower (gemm_src 24))));
  Alcotest.(check bool) "pristine device not flagged" false
    (has_code "W006" (Lint.run (lower (gemm_src 24))));
  (* no offload candidates -> nothing to guard, even on a faulty device *)
  let copy_src =
    {|
void copy(float A[8], float B[8]) {
  for (int i = 0; i < 8; i++)
    A[i] = B[i];
}
|}
  in
  Alcotest.(check bool) "no candidates, no warning" false
    (has_code "W006" (Lint.run ~config:faulty (lower copy_src)))

let test_lint_tile_exceeds_device () =
  (* a tuned configuration compiled for a 256-wide crossbar produces
     128x128 tiles of gemm-128's pinned operand; on a 64x64 device the
     runtime library must re-tile every launch *)
  let small_device =
    { Lint.default_config with Lint.device_rows = Some 64; device_cols = Some 64 }
  in
  let ds = Lint.run ~config:small_device (lower (gemm_src 128)) in
  Alcotest.(check bool) "W007 raised" true (has_code "W007" ds);
  check_mentions "W007" (message_with "W007" ds) [ "64x64"; "128x128" ];
  (* same geometry on both sides: the tile always fits the device *)
  Alcotest.(check bool) "matching device not flagged" false
    (has_code "W007" (Lint.run (lower (gemm_src 128))));
  (* a kernel smaller than the device cannot overflow it either *)
  let tiny_device =
    { Lint.default_config with Lint.device_rows = Some 32; device_cols = Some 32 }
  in
  Alcotest.(check bool) "small kernel fits small device" false
    (has_code "W007" (Lint.run ~config:tiny_device (lower (gemm_src 24))))

(* ---------- pipeline integration: verify-each ---------- *)

let compile_checked ?(config = Offload.default_config) src =
  Pipeline.run_checked ~config ~verify:true (lower src)

let test_pipeline_verify_clean () =
  let checked = compile_checked (gemm_src 8) in
  (match checked.Pipeline.outcome with
  | Pipeline.Offloaded r -> Alcotest.(check int) "offloaded" 1 r.Offload.kernels_offloaded
  | Pipeline.Not_scop m -> Alcotest.failf "not a scop: %s" m
  | Pipeline.Rejected ds -> Alcotest.failf "rejected: %s" (String.concat "; " (codes ds)));
  Alcotest.(check (list string)) "no errors" []
    (codes (Diag.errors checked.Pipeline.diagnostics))

let test_pipeline_rejects_oob () =
  let src =
    {|
void oob(float B[8][8], float A[8][8]) {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++)
      B[i][j] = A[i+1][j];
}
|}
  in
  let checked = compile_checked src in
  match checked.Pipeline.outcome with
  | Pipeline.Rejected ds ->
      Alcotest.(check bool) "bounds error surfaced" true (has_code "E201" ds);
      (* fail-safe: the returned function is the unmodified host path *)
      Alcotest.(check bool) "no cim calls" false (Ir.contains_cim_calls checked.Pipeline.func)
  | Pipeline.Offloaded _ | Pipeline.Not_scop _ -> Alcotest.fail "expected rejection"

let test_pipeline_verify_all_polybench () =
  List.iter
    (fun (b : Kernels.benchmark) ->
      let checked = compile_checked (b.Kernels.source ~n:16) in
      match checked.Pipeline.outcome with
      | Pipeline.Offloaded _ ->
          Alcotest.(check (list string))
            (b.Kernels.name ^ ": no verification errors")
            []
            (codes (Diag.errors checked.Pipeline.diagnostics))
      | Pipeline.Not_scop m -> Alcotest.failf "%s: not a scop: %s" b.Kernels.name m
      | Pipeline.Rejected ds ->
          Alcotest.failf "%s rejected: %s" b.Kernels.name (String.concat "; " (codes ds)))
    Kernels.all

let test_pipeline_verify_examples () =
  List.iter
    (fun (name, src) ->
      let checked = compile_checked src in
      match checked.Pipeline.outcome with
      | Pipeline.Offloaded _ ->
          Alcotest.(check (list string))
            (name ^ ": no verification errors")
            []
            (codes (Diag.errors checked.Pipeline.diagnostics))
      | Pipeline.Not_scop m -> Alcotest.failf "%s: not a scop: %s" name m
      | Pipeline.Rejected ds -> Alcotest.failf "%s rejected: %s" name (String.concat "; " (codes ds)))
    [
      ("gemm-listing1", Workloads.gemm_source ~n:24);
      ("fusion-listing2", Workloads.listing2_source ~n:24);
      ("tiling-listing3", Workloads.gemm_source ~n:512);
    ]

(* ---------- lint CI over the whole corpus ---------- *)

let test_lint_corpus_clean_and_selective () =
  let corpus =
    List.map (fun (b : Kernels.benchmark) -> (b.Kernels.name, b.Kernels.source ~n:16)) Kernels.all
    @ [
        ("gemm-listing1", Workloads.gemm_source ~n:24);
        ("fusion-listing2", Workloads.listing2_source ~n:24);
        ("tiling-listing3", Workloads.gemm_source ~n:512);
      ]
  in
  List.iter
    (fun (name, src) ->
      let f = lower src in
      let ds = Lint.run f @ Verify.func f @ Bounds.func f in
      Alcotest.(check (list string)) (name ^ ": no errors") [] (codes (Diag.errors ds)))
    corpus;
  (* the paper's selective-offload split: GEMV-class kernels are
     unprofitable, GEMM-class ones are not *)
  List.iter
    (fun (b : Kernels.benchmark) ->
      let flagged = has_code "W001" (Lint.run (lower (b.Kernels.source ~n:16))) in
      match b.Kernels.kind with
      | Kernels.Gemv_like ->
          Alcotest.(check bool) (b.Kernels.name ^ " flagged unprofitable") true flagged
      | Kernels.Gemm_like ->
          Alcotest.(check bool) (b.Kernels.name ^ " not flagged") false flagged)
    Kernels.all

(* ---------- dataflow solver ---------- *)

let mk_param name dims = { Ast.pname = name; ptyp = Ast.Tfloat; dims }
let whole name n = Ir.mat_ref_whole ~array:name ~rows:n ~cols:n ()

let loop var n body = Ir.For { var; lo = Ast.Int_lit 0; hi = Ast.Int_lit n; step = 1; body }

let gemm_call ?(pin = Ir.Pin_a) a b c n =
  Ir.Call
    (Ir.Cim_gemm
       {
         m = n;
         n;
         k = n;
         alpha = Ast.Float_lit 1.0;
         beta = Ast.Float_lit 1.0;
         a = whole a n;
         b = whole b n;
         c = whole c n;
         pin;
       })

let copy_stmt ~dst ~src =
  Ir.Assign
    {
      lhs = { Ast.base = dst; indices = [ Ast.Var "i"; Ast.Var "j" ] };
      op = Ast.Set;
      rhs = Ast.Index (src, [ Ast.Var "i"; Ast.Var "j" ]);
    }

(* C = A*B on the device, then S[i][j] = C[i][j] on the host; the d2h
   copy-back decides whether the host read sees a stale value *)
let device_then_host ~with_d2h =
  {
    Ir.name = "df";
    params = [ mk_param "C" [ 4; 4 ]; mk_param "S" [ 4; 4 ]; mk_param "A" [ 4; 4 ]; mk_param "B" [ 4; 4 ] ];
    body =
      [ gemm_call "A" "B" "C" 4 ]
      @ (if with_d2h then [ Ir.Call (Ir.Cim_d2h { array = "C" }) ] else [])
      @ [ loop "i" 4 [ loop "j" 4 [ copy_stmt ~dst:"S" ~src:"C" ] ] ];
  }

let stale_read_reaches f =
  let g, reach = Dataflow.reaching_definitions f in
  Array.exists
    (fun (nd : Dataflow.node) ->
      match nd.Dataflow.point with
      | Dataflow.Atom (Ir.Assign _) ->
          Dataflow.Defs.exists
            (fun (d : Dataflow.Def.t) -> d.Dataflow.Def.array = "C" && d.Dataflow.Def.on_device)
            reach.(nd.Dataflow.id)
      | _ -> false)
    (Dataflow.nodes g)

let test_dataflow_reaching_definitions () =
  Alcotest.(check bool) "device def reaches the host read" true
    (stale_read_reaches (device_then_host ~with_d2h:false));
  Alcotest.(check bool) "d2h retires the device def" false
    (stale_read_reaches (device_then_host ~with_d2h:true))

let test_dataflow_liveness () =
  let f = lower (gemm_src 8) in
  let _, live = Dataflow.live_arrays f in
  let ever_read = Array.fold_left Dataflow.Strings.union Dataflow.Strings.empty live in
  List.iter
    (fun a ->
      Alcotest.(check bool) (a ^ " live somewhere") true (Dataflow.Strings.mem a ever_read))
    [ "A"; "B"; "C" ]

(* ---------- regions ---------- *)

let test_regions_mat_ref () =
  let r =
    { Ir.array = "A"; row_off = Ast.Int_lit 0; col_off = Ast.Int_lit 2; rows = 4; cols = 6; trans = true }
  in
  (match Regions.mat_ref_region ~env:[] r with
  | Regions.Box box ->
      Alcotest.(check (list (pair int int)))
        "transposed window swaps extents"
        [ (0, 5); (2, 5) ]
        (Tdo_poly.Domain.box_bounds box)
  | Regions.Top -> Alcotest.fail "expected a box");
  Alcotest.(check int) "cells agree with the region cardinality" 24 (Regions.mat_ref_cells r)

let test_regions_overlap () =
  let window row_off rows =
    Regions.mat_ref_region ~env:[]
      { Ir.array = "A"; row_off = Ast.Int_lit row_off; col_off = Ast.Int_lit 0; rows; cols = 4; trans = false }
  in
  let top = Regions.mat_ref_region ~env:[ ("t", (0, 3)) ]
      { Ir.array = "A"; row_off = Ast.Binop (Ast.Mul, Ast.Var "u", Ast.Var "u"); col_off = Ast.Int_lit 0; rows = 4; cols = 4; trans = false }
  in
  Alcotest.(check bool) "disjoint tiles" false (Regions.overlap (window 0 4) (window 4 4));
  Alcotest.(check bool) "same tile" true (Regions.overlap (window 0 4) (window 0 4));
  Alcotest.(check bool) "top is conservative" true (Regions.overlap top (window 0 4))

(* ---------- dependence graph ---------- *)

let source_3mm n =
  match Kernels.find "3mm" with
  | Ok b -> b.Kernels.source ~n
  | Error e -> Alcotest.fail e

let test_depgraph_3mm () =
  let g = Depgraph.of_tree (tree_of (source_3mm 8)) in
  let independent i j =
    not
      (List.exists
         (fun (e : Depgraph.edge) ->
           (e.Depgraph.src = i && e.Depgraph.dst = j) || (e.Depgraph.src = j && e.Depgraph.dst = i))
         g.Depgraph.edges)
  in
  Alcotest.(check int) "three kernel events" 3 (List.length g.Depgraph.nodes);
  Alcotest.(check bool) "E and F kernels commute" true (independent 0 1);
  let raw src dst array =
    List.exists
      (fun (e : Depgraph.edge) ->
        e.Depgraph.src = src && e.Depgraph.dst = dst && e.Depgraph.kind = Depgraph.Raw
        && e.Depgraph.array = array)
      g.Depgraph.edges
  in
  Alcotest.(check bool) "E flows into G" true (raw 0 2 "E");
  Alcotest.(check bool) "F flows into G" true (raw 1 2 "F");
  Alcotest.(check bool) "G depends on its producers" false (independent 0 2);
  let dot = Depgraph.to_dot g in
  check_mentions "dot export" dot [ "digraph"; "RAW E"; "RAW F"; "->" ]

let test_depgraph_listing2_independent () =
  match tree_of (Workloads.listing2_source ~n:8) with
  | St.Seq [ k1; k2 ] ->
      Alcotest.(check bool) "listing 2 kernels commute" true (Depgraph.independent_trees k1 k2)
  | _ -> Alcotest.fail "expected two top-level events"

(* ---------- deterministic diagnostics ---------- *)

let test_diag_canonical () =
  let w1 = Diag.warningf "W001" "b" in
  let w1a = Diag.warningf "W001" "a" in
  let e1 = Diag.errorf "E101" ~hint:"h" "x" in
  let shuffled = [ w1; e1; w1a; w1; e1 ] in
  let golden = "error[E101]: x\n  hint: h\nwarning[W001]: a\nwarning[W001]: b" in
  let render ds = Format.asprintf "%a" Diag.pp_list (Diag.canonical ds) in
  Alcotest.(check string) "sorted and deduplicated" golden (render shuffled);
  Alcotest.(check string) "byte-stable under input order" (render shuffled)
    (render (List.rev shuffled))

(* ---------- degenerate loop bounds (E204) ---------- *)

let degenerate_src =
  {|
void deg(float A[8][8]) {
  for (int i = 0; i < 8; i++)
    for (int j = 8; j < 8; j++)
      A[i][j] += 1.0;
}
|}

let test_bounds_degenerate_loop () =
  let ds = Bounds.func (lower degenerate_src) in
  Alcotest.(check (list string)) "one dedicated diagnostic" [ "E204" ] (codes ds);
  check_mentions "E204" (message_with "E204" ds) [ "for (j = 8; j < 8)"; "trip count 0" ];
  match (compile_checked degenerate_src).Pipeline.outcome with
  | Pipeline.Rejected ds -> Alcotest.(check bool) "pipeline rejects" true (has_code "E204" ds)
  | Pipeline.Offloaded _ | Pipeline.Not_scop _ -> Alcotest.fail "expected rejection"

(* ---------- W008 / W009 / W010 ---------- *)

let w008_src ~aba =
  (* three GEMM kernels; in ABA order the third re-pins A after the
     D-kernel evicted it, in ABA-reordered (A, A, D) adjacent kernels
     share the pin *)
  let k1 = ("C1", "A", "B", 8, 8) and k2 = ("C2", "D", "E", 12, 12) and k3 = ("C3", "A", "B2", 8, 8) in
  let order = if aba then [ k1; k2; k3 ] else [ k1; k3; k2 ] in
  let nest (c, a, b, nj, nk) =
    Printf.sprintf
      {|  for (int i = 0; i < 8; i++)
    for (int j = 0; j < %d; j++)
      for (int k = 0; k < %d; k++)
        %s[i][j] += %s[i][k] * %s[k][j];
|}
      nj nk c a b
  in
  Printf.sprintf
    {|
void w008(float C1[8][8], float C2[8][12], float C3[8][8],
          float A[8][8], float B[8][8], float D[8][12], float E[12][12], float B2[8][8]) {
%s}
|}
    (String.concat "" (List.map nest order))

let w009_src =
  {|
void w009(float C[16][16], float S[16][16], float A[16][16], float B[16][16]) {
  for (int i = 0; i < 16; i++)
    for (int j = 0; j < 16; j++)
      for (int k = 0; k < 16; k++)
        C[i][j] += A[i][k] * B[k][j];
  for (int i = 0; i < 16; i++)
    for (int j = 0; j < 16; j++)
      S[i][j] = C[i][j];
}
|}

let w010_src =
  {|
void w010(float C[8][8], float A[8][8], float B[8][8]) {
  for (int t = 0; t < 4; t++)
    for (int i = 0; i < 8; i++)
      for (int j = 0; j < 8; j++)
        for (int k = 0; k < 8; k++)
          C[i][j] += A[i][k] * B[k][j];
}
|}

let warning_codes ds =
  List.sort_uniq compare
    (List.filter_map
       (fun (d : Diag.t) -> if d.Diag.severity = Diag.Warning then Some d.Diag.code else None)
       ds)

let test_lint_redundant_reprogram () =
  let ds = Lint.run (lower (w008_src ~aba:true)) in
  Alcotest.(check bool) "ABA order flagged" true (has_code "W008" ds);
  check_mentions "W008" (message_with "W008" ds) [ "'A'"; "S0" ];
  Alcotest.(check (list string)) "reordered program is clean" []
    (warning_codes (Lint.run (lower (w008_src ~aba:false))))

let test_lint_stale_host_read () =
  let ds = Lint.run (lower w009_src) in
  Alcotest.(check bool) "host copy of the device result flagged" true (has_code "W009" ds);
  check_mentions "W009" (message_with "W009" ds) [ "'C'"; "S0" ]

let test_lint_loop_invariant_offload () =
  let ds = Lint.run (lower w010_src) in
  Alcotest.(check bool) "invariant iterator flagged" true (has_code "W010" ds);
  check_mentions "W010" (message_with "W010" ds) [ "'t'"; "'C'" ];
  List.iter
    (fun w ->
      Alcotest.(check bool) ("gemm has no " ^ w) false (has_code w (Lint.run (lower (gemm_src 16)))))
    [ "W008"; "W009"; "W010" ]

let test_lint_offload_ir () =
  (* explicit runtime calls: the IR-mode rules see the same hazards *)
  Alcotest.(check bool) "missing d2h flagged" true
    (has_code "W009" (Lint.offload_ir (device_then_host ~with_d2h:false)));
  (* the copy-back fixes the read, but C still lives... no: d2h retires
     the device def entirely, so the function is clean *)
  Alcotest.(check (list string)) "with d2h clean" []
    (codes (Lint.offload_ir (device_then_host ~with_d2h:true)));
  let aba_calls =
    {
      Ir.name = "aba";
      params =
        [ mk_param "C1" [ 4; 4 ]; mk_param "C2" [ 4; 4 ]; mk_param "C3" [ 4; 4 ];
          mk_param "A" [ 4; 4 ]; mk_param "D" [ 4; 4 ]; mk_param "B" [ 4; 4 ] ];
      body =
        [
          gemm_call "A" "B" "C1" 4;
          gemm_call "D" "B" "C2" 4;
          gemm_call "A" "B" "C3" 4;
          Ir.Call (Ir.Cim_d2h { array = "C1" });
          Ir.Call (Ir.Cim_d2h { array = "C2" });
          Ir.Call (Ir.Cim_d2h { array = "C3" });
        ];
    }
  in
  Alcotest.(check bool) "call-level ABA flagged" true
    (has_code "W008" (Lint.offload_ir aba_calls));
  let invariant_loop =
    {
      Ir.name = "inv";
      params = [ mk_param "C" [ 4; 4 ]; mk_param "A" [ 4; 4 ]; mk_param "B" [ 4; 4 ] ];
      body = [ loop "t" 4 [ gemm_call "A" "B" "C" 4 ]; Ir.Call (Ir.Cim_d2h { array = "C" }) ];
    }
  in
  let ds = Lint.offload_ir invariant_loop in
  Alcotest.(check bool) "loop-invariant call flagged" true (has_code "W010" ds);
  Alcotest.(check bool) "adjacent re-pin is reuse, not W008" false (has_code "W008" ds)

(* A read in a scalar initializer is a read like any other: the local
   array below is observed through [t], and the device result in C is
   read on the host before its copy-back. *)
let test_lint_scalar_initializer_read_w004 () =
  let src =
    {|
void f(float A[4], float B[4]) {
  float tmp[4];
  for (int i = 0; i < 4; i++) {
    tmp[i] = B[i];
    float t = tmp[i];
    A[i] = t;
  }
}
|}
  in
  Alcotest.(check bool) "tmp is read, not dead" false (has_code "W004" (Lint.run (lower src)))

let test_lint_scalar_initializer_read_w009 () =
  let c_ij = Ast.Index ("C", [ Ast.Var "i"; Ast.Var "j" ]) in
  let f =
    {
      Ir.name = "init_read";
      params = [ mk_param "C" [ 4; 4 ]; mk_param "S" [ 4; 4 ]; mk_param "A" [ 4; 4 ]; mk_param "B" [ 4; 4 ] ];
      body =
        [
          gemm_call "A" "B" "C" 4;
          loop "i" 4
            [
              loop "j" 4
                [
                  Ir.Decl_scalar { name = "t"; typ = Ast.Tfloat; init = Some c_ij };
                  Ir.Assign
                    {
                      lhs = { Ast.base = "S"; indices = [ Ast.Var "i"; Ast.Var "j" ] };
                      op = Ast.Set;
                      rhs = Ast.Var "t";
                    };
                ];
            ];
          Ir.Call (Ir.Cim_d2h { array = "C" });
        ];
    }
  in
  let ds = Lint.offload_ir f in
  Alcotest.(check bool) "stale read in the initializer flagged" true (has_code "W009" ds);
  check_mentions "W009" (message_with "W009" ds) [ "'C'" ]

(* ---------- census / tuner agreement ---------- *)

let test_cost_model_write_bytes () =
  let compiled src = (compile_checked src).Pipeline.func in
  let wb src =
    Tdo_tune.Cost_model.predict_write_bytes (Offload.plan Offload.default_config (compiled src))
  in
  let aba = wb (w008_src ~aba:true) and reordered = wb (w008_src ~aba:false) in
  (* A (64) + D (96) + A again (64): the W008 re-program is priced *)
  Alcotest.(check int) "ABA order programs 224 cells" 224 aba;
  Alcotest.(check bool) "reordering is strictly cheaper" true (reordered < aba)

(* ---------- properties ---------- *)

let random_gemm_func seed =
  let m = 2 + (seed mod 7) and n = 2 + (seed / 7 mod 7) and k = 2 + (seed / 49 mod 7) in
  let open Builder in
  func "gen"
    [
      scalar Ast.Tfloat "alpha";
      array "C" [ m; n ];
      array "A" [ m; k ];
      array "B" [ k; n ];
    ]
    [
      for_ "i" (int m)
        [
          for_ "j" (int n)
            [
              assign "C" [ var "i"; var "j" ] (float 0.0);
              for_ "k" (int k)
                [
                  add_assign "C" [ var "i"; var "j" ]
                    (var "alpha" * idx "A" [ var "i"; var "k" ] * idx "B" [ var "k"; var "j" ]);
                ];
            ];
        ];
    ]

let qcheck_builder_programs_verify =
  QCheck.Test.make ~name:"random builder kernels verify and validate end to end" ~count:30
    QCheck.small_int (fun seed ->
      let f = Lower.func (random_gemm_func seed) in
      let checked = Pipeline.run_checked ~verify:true f in
      Verify.func f = []
      && Bounds.func f = []
      && (match checked.Pipeline.outcome with Pipeline.Offloaded _ -> true | _ -> false)
      && not (Diag.has_errors checked.Pipeline.diagnostics))

(* Random two-kernel programs over a small array pool: whenever the
   dependence graph proves the kernels independent, executing them in
   either order must produce bitwise-identical results. Also pins a
   precision floor: two nests that share no array either of them
   writes are independent. *)
let pool = [| "C"; "D"; "A"; "B"; "E" |]

(* array [i] of nest [s]: 0 is the written one, 1 and 2 the operands *)
let pick s i = pool.(s / int_of_float (5. ** float_of_int i) mod 5)

let two_kernel_source (s1, s2) =
  let nest s =
    Printf.sprintf
      {|  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++)
      for (int k = 0; k < 4; k++)
        %s[i][j] += %s[i][k] * %s[k][j];
|}
      (pick s 0) (pick s 1) (pick s 2)
  in
  ( Printf.sprintf
      {|
void prog(float C[4][4], float D[4][4], float A[4][4], float B[4][4], float E[4][4]) {
%s%s}
|}
      (nest s1) (nest s2),
    Printf.sprintf
      {|
void prog(float C[4][4], float D[4][4], float A[4][4], float B[4][4], float E[4][4]) {
%s%s}
|}
      (nest s2) (nest s1) )

let interp_results src =
  let module Interp = Tdo_lang.Interp in
  let arrs =
    Array.to_list pool
    |> List.mapi
         (fun ai name ->
           let arr = Interp.make_array ~dims:[ 4; 4 ] in
           Array.iteri
             (fun i _ -> arr.Interp.data.(i) <- float_of_int (((ai * 31) + (i * 7)) mod 13) /. 8.0)
             arr.Interp.data;
           (name, arr))
  in
  Interp.run (Parser.parse_func src)
    ~args:(List.map (fun (n, a) -> (n, Interp.Varray a)) arrs);
  List.map (fun (_, (a : Interp.arr)) -> Array.to_list a.Interp.data) arrs

let qcheck_depgraph_independence =
  QCheck.Test.make ~name:"depgraph independence implies order-insensitive execution" ~count:80
    QCheck.(pair (int_bound 124) (int_bound 124))
    (fun ((s1, s2) as seeds) ->
      let src12, src21 = two_kernel_source seeds in
      match tree_of src12 with
      | St.Seq [ k1; k2 ] ->
          let touches s a = List.exists (fun i -> String.equal (pick s i) a) [ 0; 1; 2 ] in
          let unshared = (not (touches s2 (pick s1 0))) && not (touches s1 (pick s2 0)) in
          let graph_independent = Depgraph.independent_trees k1 k2 in
          ((not unshared) || graph_independent)
          && ((not graph_independent) || interp_results src12 = interp_results src21)
      | _ -> QCheck.assume_fail ())

let qcheck_mutated_trees_rejected =
  QCheck.Test.make ~name:"dropping any statement from a tree is caught by legality" ~count:20
    QCheck.small_int (fun seed ->
      let before = tree_of (gemm_src (4 + (seed mod 5))) in
      match before with
      | St.Seq children when List.length children > 1 ->
          let victim = seed mod List.length children in
          let after = St.Seq (List.filteri (fun i _ -> i <> victim) children) in
          has_code "E103" (Legality.check_stmt_level ~before ~after)
      | t ->
          (* single-segment tree: drop it entirely *)
          has_code "E103"
            (Legality.check_stmt_level ~before:t ~after:(St.Code [])))

let suites =
  [
    ( "analysis.verify",
      [
        Alcotest.test_case "clean gemm" `Quick test_verify_clean_gemm;
        Alcotest.test_case "undefined names" `Quick test_verify_undefined_names;
        Alcotest.test_case "structure" `Quick test_verify_structure;
        Alcotest.test_case "call signatures" `Quick test_verify_call_signature;
        Alcotest.test_case "device state" `Quick test_verify_device_state;
        Alcotest.test_case "tree invariants" `Quick test_verify_tree_invariants;
      ] );
    ( "analysis.legality",
      [
        Alcotest.test_case "accumulation interchange" `Quick
          test_legality_accumulation_interchange_ok;
        Alcotest.test_case "illegal interchange" `Quick test_legality_illegal_interchange;
        Alcotest.test_case "dropped / reordered" `Quick test_legality_dropped_and_reordered;
        Alcotest.test_case "offload rewrite ok" `Quick test_legality_offload_rewrite_ok;
        Alcotest.test_case "lost write" `Quick test_legality_lost_write;
        Alcotest.test_case "illegal fusion" `Quick test_legality_illegal_fusion;
        Alcotest.test_case "conv verifies clean" `Quick test_legality_conv_verifies_clean;
        Alcotest.test_case "dropped old value warns" `Quick test_legality_dropped_old_value_warns;
        Alcotest.test_case "dropped old value warns without a temporary" `Quick
          test_legality_dropped_old_value_no_temporary;
        QCheck_alcotest.to_alcotest qcheck_mutated_trees_rejected;
      ] );
    ( "analysis.bounds",
      [
        Alcotest.test_case "overflow witness" `Quick test_bounds_overflow_witness;
        Alcotest.test_case "underflow witness" `Quick test_bounds_underflow_witness;
        Alcotest.test_case "clean kernels" `Quick test_bounds_clean_kernels;
        Alcotest.test_case "degenerate loop (E204)" `Quick test_bounds_degenerate_loop;
        Alcotest.test_case "shadowed loop (N203)" `Quick test_bounds_shadowed_loop;
      ] );
    ( "analysis.dataflow",
      [
        Alcotest.test_case "reaching definitions" `Quick test_dataflow_reaching_definitions;
        Alcotest.test_case "array liveness" `Quick test_dataflow_liveness;
        Alcotest.test_case "diag canonical order" `Quick test_diag_canonical;
      ] );
    ( "analysis.regions",
      [
        Alcotest.test_case "mat_ref windows" `Quick test_regions_mat_ref;
        Alcotest.test_case "overlap" `Quick test_regions_overlap;
      ] );
    ( "analysis.depgraph",
      [
        Alcotest.test_case "3mm kernel graph" `Quick test_depgraph_3mm;
        Alcotest.test_case "listing 2 independence" `Quick test_depgraph_listing2_independent;
        QCheck_alcotest.to_alcotest qcheck_depgraph_independence;
      ] );
    ( "analysis.lint",
      [
        Alcotest.test_case "low intensity" `Quick test_lint_low_intensity;
        Alcotest.test_case "dead / unused arrays" `Quick test_lint_dead_and_unused;
        Alcotest.test_case "explain scop failure" `Quick test_lint_explains_scop_failure;
        Alcotest.test_case "endurance budget" `Quick test_lint_endurance_budget;
        Alcotest.test_case "unguarded faulty offload" `Quick test_lint_unguarded_faulty_offload;
        Alcotest.test_case "tile exceeds device crossbar" `Quick test_lint_tile_exceeds_device;
        Alcotest.test_case "redundant re-program (W008)" `Quick test_lint_redundant_reprogram;
        Alcotest.test_case "stale host read (W009)" `Quick test_lint_stale_host_read;
        Alcotest.test_case "loop-invariant offload (W010)" `Quick test_lint_loop_invariant_offload;
        Alcotest.test_case "IR-mode rules" `Quick test_lint_offload_ir;
        Alcotest.test_case "scalar-init read (W004)" `Quick test_lint_scalar_initializer_read_w004;
        Alcotest.test_case "scalar-init read (W009)" `Quick test_lint_scalar_initializer_read_w009;
        Alcotest.test_case "census / write-bytes agreement" `Quick test_cost_model_write_bytes;
      ] );
    ( "analysis.pipeline",
      [
        Alcotest.test_case "verify clean gemm" `Quick test_pipeline_verify_clean;
        Alcotest.test_case "rejects out-of-bounds" `Quick test_pipeline_rejects_oob;
        Alcotest.test_case "polybench corpus" `Quick test_pipeline_verify_all_polybench;
        Alcotest.test_case "paper examples" `Quick test_pipeline_verify_examples;
        Alcotest.test_case "lint CI corpus" `Quick test_lint_corpus_clean_and_selective;
        QCheck_alcotest.to_alcotest qcheck_builder_programs_verify;
      ] );
  ]
