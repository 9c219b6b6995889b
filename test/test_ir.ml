open Tdo_ir
module Ast = Tdo_lang.Ast
module Parser = Tdo_lang.Parser
module Interp = Tdo_lang.Interp
module Platform = Tdo_runtime.Platform
module Sim = Tdo_sim
module Mat = Tdo_linalg.Mat
module Blas_ref = Tdo_linalg.Blas_ref
module Prng = Tdo_util.Prng

let gemm_src m n k =
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
    m n m k k n m n k

let small_platform () =
  let engine =
    {
      Tdo_cimacc.Micro_engine.default_config with
      Tdo_cimacc.Micro_engine.xbar =
        { Tdo_pcm.Crossbar.default_config with Tdo_pcm.Crossbar.rows = 64; cols = 64 };
    }
  in
  Platform.create ~config:{ Platform.default_config with Platform.engine } ()

let test_lower_roi_markers () =
  let f = Lower.func (Parser.parse_func (gemm_src 4 4 4)) in
  (match f.Ir.body with
  | Ir.Roi_begin :: _ -> ()
  | _ -> Alcotest.fail "ROI begin missing");
  (match List.rev f.Ir.body with
  | Ir.Roi_end :: _ -> ()
  | _ -> Alcotest.fail "ROI end missing");
  Alcotest.(check bool) "no cim calls before tactics" false (Ir.contains_cim_calls f)

let test_lower_rejects_ill_typed () =
  let f = Parser.parse_func "void f() { x = 1.0; }" in
  Alcotest.(check bool) "type error propagates" true
    (try
       ignore (Lower.func f);
       false
     with Tdo_lang.Typecheck.Type_error _ -> true)

let run_gemm_exec ~m ~n ~k ~alpha ~beta ~seed =
  let src = gemm_src m n k in
  let ast = Parser.parse_func src in
  let f = Lower.func ast in
  let g = Prng.create ~seed in
  let a = Mat.random g ~rows:m ~cols:k ~lo:(-1.0) ~hi:1.0 in
  let b = Mat.random g ~rows:k ~cols:n ~lo:(-1.0) ~hi:1.0 in
  let c = Mat.random g ~rows:m ~cols:n ~lo:(-1.0) ~hi:1.0 in
  let arr_c_exec = Interp.arr_of_mat c in
  let platform = small_platform () in
  let args mk_c =
    [
      ("alpha", Interp.Vfloat alpha);
      ("beta", Interp.Vfloat beta);
      ("C", Interp.Varray mk_c);
      ("A", Interp.Varray (Interp.arr_of_mat a));
      ("B", Interp.Varray (Interp.arr_of_mat b));
    ]
  in
  let metrics = Exec.run f ~platform ~args:(args arr_c_exec) in
  (* golden model *)
  let arr_c_interp = Interp.arr_of_mat c in
  Interp.run ast ~args:(args arr_c_interp);
  (platform, metrics, arr_c_exec, arr_c_interp)

let test_exec_matches_interpreter_bitexact () =
  let _, metrics, c_exec, c_interp = run_gemm_exec ~m:6 ~n:5 ~k:7 ~alpha:1.5 ~beta:0.5 ~seed:71 in
  Alcotest.(check (float 0.0)) "bit-exact against the interpreter" 0.0
    (Mat.max_abs_diff (Interp.mat_of_arr c_exec) (Interp.mat_of_arr c_interp));
  Alcotest.(check bool) "host-only" false metrics.Exec.used_cim

let test_exec_instruction_accounting () =
  let platform, metrics, _, _ = run_gemm_exec ~m:6 ~n:5 ~k:7 ~alpha:1.0 ~beta:1.0 ~seed:72 in
  let cpu = Platform.cpu platform in
  Alcotest.(check int) "one MAC per inner iteration" (6 * 5 * 7)
    (Sim.Cpu.class_count cpu Sim.Cpu.Fp_mac);
  Alcotest.(check bool) "instructions dominated by the nest" true
    (metrics.Exec.roi_instructions > 6 * 5 * 7 * 5);
  Alcotest.(check bool) "cycles accumulated" true (metrics.Exec.roi_cycles > 0);
  Alcotest.(check bool) "time accumulated" true (metrics.Exec.roi_time_ps > 0)

let test_exec_cache_locality_visible () =
  (* summing B row-major vs column-major: the strided version must be
     slower on the same platform model *)
  let run src =
    let f = Lower.func (Parser.parse_func src) in
    let platform = small_platform () in
    let b = Interp.make_array ~dims:[ 128; 128 ] in
    let s = Interp.make_array ~dims:[ 1 ] in
    let m =
      Exec.run f ~platform ~args:[ ("B", Interp.Varray b); ("s", Interp.Varray s) ]
    in
    m.Exec.roi_time_ps
  in
  let row_major =
    run
      {|
void sum(float B[128][128], float s[1]) {
  for (int i = 0; i < 128; i++)
    for (int j = 0; j < 128; j++)
      s[0] += B[i][j];
}
|}
  in
  let col_major =
    run
      {|
void sum(float B[128][128], float s[1]) {
  for (int j = 0; j < 128; j++)
    for (int i = 0; i < 128; i++)
      s[0] += B[i][j];
}
|}
  in
  Alcotest.(check bool) "column-major traversal slower" true (col_major > row_major)

(* hand-written offloaded IR, the Listing-1 shape *)
let offloaded_gemm ~m ~n ~k =
  let open Ir in
  let ref_whole array rows cols = mat_ref_whole ~array ~rows ~cols () in
  {
    name = "gemm_cim";
    params =
      [
        { Ast.pname = "alpha"; ptyp = Ast.Tfloat; dims = [] };
        { Ast.pname = "beta"; ptyp = Ast.Tfloat; dims = [] };
        { Ast.pname = "C"; ptyp = Ast.Tfloat; dims = [ m; n ] };
        { Ast.pname = "A"; ptyp = Ast.Tfloat; dims = [ m; k ] };
        { Ast.pname = "B"; ptyp = Ast.Tfloat; dims = [ k; n ] };
      ];
    body =
      [
        Roi_begin;
        Call Cim_init;
        Call (Cim_alloc { array = "A" });
        Call (Cim_alloc { array = "B" });
        Call (Cim_alloc { array = "C" });
        Call (Cim_h2d { array = "A" });
        Call (Cim_h2d { array = "B" });
        Call (Cim_h2d { array = "C" });
        Call
          (Cim_gemm
             {
               m;
               n;
               k;
               alpha = Ast.Var "alpha";
               beta = Ast.Var "beta";
               a = ref_whole "A" m k;
               b = ref_whole "B" k n;
               c = ref_whole "C" m n;
               pin = Pin_a;
             });
        Call (Cim_d2h { array = "C" });
        Call (Cim_free { array = "A" });
        Call (Cim_free { array = "B" });
        Call (Cim_free { array = "C" });
        Roi_end;
      ];
  }

let test_exec_offloaded_gemm () =
  let m = 12 and n = 10 and k = 9 in
  let f = offloaded_gemm ~m ~n ~k in
  let g = Prng.create ~seed:73 in
  let a = Mat.random g ~rows:m ~cols:k ~lo:(-1.0) ~hi:1.0 in
  let b = Mat.random g ~rows:k ~cols:n ~lo:(-1.0) ~hi:1.0 in
  let c = Mat.random g ~rows:m ~cols:n ~lo:(-1.0) ~hi:1.0 in
  let arr_c = Interp.arr_of_mat c in
  let platform = small_platform () in
  let metrics =
    Exec.run f ~platform
      ~args:
        [
          ("alpha", Interp.Vfloat 1.0);
          ("beta", Interp.Vfloat 0.5);
          ("C", Interp.Varray arr_c);
          ("A", Interp.Varray (Interp.arr_of_mat a));
          ("B", Interp.Varray (Interp.arr_of_mat b));
        ]
  in
  Alcotest.(check bool) "used cim" true metrics.Exec.used_cim;
  Alcotest.(check int) "one launch" 1 metrics.Exec.cim_launches;
  let expected = Mat.copy c in
  Blas_ref.gemm ~alpha:1.0 ~beta:0.5 ~a ~b ~c:expected ();
  Alcotest.(check bool) "offloaded result close" true
    (Mat.max_abs_diff expected (Interp.mat_of_arr arr_c) < 0.3)

let test_exec_offload_needs_malloc () =
  let f =
    {
      Ir.name = "bad";
      params = [ { Ast.pname = "A"; ptyp = Ast.Tfloat; dims = [ 4; 4 ] } ];
      body = [ Ir.Call Ir.Cim_init; Ir.Call (Ir.Cim_h2d { array = "A" }) ];
    }
  in
  let platform = small_platform () in
  Alcotest.(check bool) "missing malloc raises" true
    (try
       ignore
         (Exec.run f ~platform ~args:[ ("A", Interp.Varray (Interp.make_array ~dims:[ 4; 4 ])) ]);
       false
     with Exec.Exec_error _ -> true)

let test_exec_offload_needs_init () =
  let f =
    {
      Ir.name = "bad";
      params = [ { Ast.pname = "A"; ptyp = Ast.Tfloat; dims = [ 4; 4 ] } ];
      body = [ Ir.Call (Ir.Cim_alloc { array = "A" }) ];
    }
  in
  let platform = small_platform () in
  Alcotest.(check bool) "missing init raises" true
    (try
       ignore
         (Exec.run f ~platform ~args:[ ("A", Interp.Varray (Interp.make_array ~dims:[ 4; 4 ])) ]);
       false
     with Exec.Exec_error _ -> true)

let test_ir_pp_listing1_shape () =
  let f = offloaded_gemm ~m:8 ~n:8 ~k:8 in
  let printed = Format.asprintf "%a" Ir.pp_func f in
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " printed") true (contains printed needle))
    [ "polly_cimInit"; "polly_cimMalloc"; "polly_cimBlasSGemm"; "polly_cimDevToHost" ]

let qcheck_exec_interp_equivalence =
  QCheck.Test.make ~name:"executor is semantics-preserving vs the interpreter" ~count:10
    QCheck.small_int (fun seed ->
      let _, _, c_exec, c_interp =
        run_gemm_exec ~m:(3 + (seed mod 4)) ~n:(2 + (seed mod 5)) ~k:(2 + (seed mod 6))
          ~alpha:1.0 ~beta:1.0 ~seed:(seed + 900)
      in
      Mat.max_abs_diff (Interp.mat_of_arr c_exec) (Interp.mat_of_arr c_interp) = 0.0)

let suites =
  [
    ( "ir.lower",
      [
        Alcotest.test_case "roi markers" `Quick test_lower_roi_markers;
        Alcotest.test_case "rejects ill-typed" `Quick test_lower_rejects_ill_typed;
      ] );
    ( "ir.exec",
      [
        Alcotest.test_case "matches interpreter" `Quick test_exec_matches_interpreter_bitexact;
        Alcotest.test_case "instruction accounting" `Quick test_exec_instruction_accounting;
        Alcotest.test_case "cache locality" `Quick test_exec_cache_locality_visible;
        Alcotest.test_case "offloaded gemm" `Quick test_exec_offloaded_gemm;
        Alcotest.test_case "offload needs malloc" `Quick test_exec_offload_needs_malloc;
        Alcotest.test_case "offload needs init" `Quick test_exec_offload_needs_init;
        Alcotest.test_case "Listing-1 printing" `Quick test_ir_pp_listing1_shape;
        QCheck_alcotest.to_alcotest qcheck_exec_interp_equivalence;
      ] );
  ]

(* ---------- executor edge cases ---------- *)

let exec_src src args =
  let f = Lower.func (Parser.parse_func src) in
  let platform = small_platform () in
  ignore (Exec.run f ~platform ~args)

let test_exec_loop_step () =
  let a = Interp.make_array ~dims:[ 16 ] in
  exec_src "void f(float A[16]) { for (int i = 0; i < 16; i += 4) A[i] = 1.0; }"
    [ ("A", Interp.Varray a) ];
  Alcotest.(check (float 0.0)) "step hits 0" 1.0 a.Interp.data.(0);
  Alcotest.(check (float 0.0)) "step hits 12" 1.0 a.Interp.data.(12);
  Alcotest.(check (float 0.0)) "step skips 2" 0.0 a.Interp.data.(2)

let test_exec_empty_loop () =
  let a = Interp.make_array ~dims:[ 4 ] in
  exec_src "void f(float A[4]) { for (int i = 4; i < 4; i++) A[0] = 9.0; }"
    [ ("A", Interp.Varray a) ];
  Alcotest.(check (float 0.0)) "zero-trip loop runs nothing" 0.0 a.Interp.data.(0)

let test_exec_neg_and_div () =
  let a = Interp.make_array ~dims:[ 1 ] in
  a.Interp.data.(0) <- 8.0;
  exec_src "void f(float A[1]) { A[0] = -A[0] / 4.0; }" [ ("A", Interp.Varray a) ];
  Alcotest.(check (float 1e-7)) "negation and division" (-2.0) a.Interp.data.(0)

let test_exec_scalar_param_types () =
  let a = Interp.make_array ~dims:[ 4 ] in
  exec_src "void f(float A[4], int off, float v) { A[off] = v; }"
    [ ("A", Interp.Varray a); ("off", Interp.Vint 2); ("v", Interp.Vfloat 7.5) ];
  Alcotest.(check (float 0.0)) "int and float scalars bound" 7.5 a.Interp.data.(2)

let test_exec_out_of_bounds () =
  Alcotest.(check bool) "runtime bounds check" true
    (try
       exec_src "void f(float A[4]) { for (int i = 0; i < 8; i++) A[i] = 0.0; }"
         [ ("A", Interp.Varray (Interp.make_array ~dims:[ 4 ])) ];
       false
     with Exec.Exec_error _ -> true)

let test_exec_dims_mismatch () =
  Alcotest.(check bool) "argument shape checked" true
    (try
       exec_src "void f(float A[4]) { A[0] = 1.0; }"
         [ ("A", Interp.Varray (Interp.make_array ~dims:[ 8 ])) ];
       false
     with Exec.Exec_error _ -> true)

let test_exec_scalar_kind_checked () =
  Alcotest.(check bool) "an int for a float parameter is rejected" true
    (try
       exec_src "void f(float A[4], float v) { A[0] = v; }"
         [ ("A", Interp.Varray (Interp.make_array ~dims:[ 4 ])); ("v", Interp.Vint 1) ];
       false
     with Exec.Exec_error _ -> true)

let test_exec_rejected_program () =
  (* [prepare] rejects this function (an unbound name) but still
     returns, and every run raises its error *)
  let f =
    {
      Ir.name = "bad";
      params = [ { Ast.pname = "A"; ptyp = Ast.Tfloat; dims = [ 4 ] } ];
      body =
        [
          Ir.Assign
            { lhs = { Ast.base = "A"; indices = [ Ast.Int_lit 0 ] }; op = Ast.Set; rhs = Ast.Var "x" };
        ];
    }
  in
  let program = Exec.prepare f in
  let run () =
    try
      ignore
        (Exec.exec program ~platform:(small_platform ())
           ~args:[ ("A", Interp.Varray (Interp.make_array ~dims:[ 4 ])) ]);
      "ran"
    with Exec.Exec_error msg -> msg
  in
  Alcotest.(check string) "first run" "unbound identifier 'x'" (run ());
  Alcotest.(check string) "every run" "unbound identifier 'x'" (run ())

let exec_edge_suite =
  ( "ir.exec_edges",
    [
      Alcotest.test_case "loop step" `Quick test_exec_loop_step;
      Alcotest.test_case "zero-trip loop" `Quick test_exec_empty_loop;
      Alcotest.test_case "neg / div" `Quick test_exec_neg_and_div;
      Alcotest.test_case "scalar params" `Quick test_exec_scalar_param_types;
      Alcotest.test_case "out of bounds" `Quick test_exec_out_of_bounds;
      Alcotest.test_case "dims mismatch" `Quick test_exec_dims_mismatch;
      Alcotest.test_case "scalar kind" `Quick test_exec_scalar_kind_checked;
      Alcotest.test_case "rejected program" `Quick test_exec_rejected_program;
    ] )

let suites = suites @ [ exec_edge_suite ]

(* ---------- executor numbers pinned ----------

   Every simulated number the executor produces for the PolyBench
   kernels, on the host (o3) and offloaded (o3 + loop tactics): ROI
   totals, the per-class instruction counts, L1D and L2 statistics, the
   core's clock at each accelerator launch and a digest of the outputs.
   The expected rows were recorded with an evaluator that issued one
   timing-model call per instruction; batching the charges must
   reproduce them exactly. *)

module Flow = Tdo_cim.Flow
module Kernels = Tdo_polybench.Kernels

let all_classes =
  Sim.Cpu.
    [ Int_alu; Int_mul; Fp_add; Fp_mul; Fp_mac; Fp_div; Load; Store; Branch; Call; Ret ]

let cache_row c =
  let s = Sim.Cache.stats c in
  Sim.Cache.(
    Printf.sprintf "%d/%d/%d/%d/%d/%d" s.hits s.misses s.evictions s.writebacks s.flushes
      s.flushed_bytes)

let outputs_digest mats =
  let b = Buffer.create 256 in
  List.iter
    (fun m -> Array.iter (fun x -> Buffer.add_string b (Printf.sprintf "%h;" x)) (Mat.data m))
    mats;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* When the host started each accelerator job: the core's clock as the
   runtime read it, so host instructions charged late or early show. *)
let launch_times platform =
  Tdo_cimacc.(Micro_engine.timeline (Accel.engine platform.Platform.accel))
  |> Tdo_cimacc.Timeline.events
  |> List.filter_map (fun (e : Tdo_cimacc.Timeline.event) ->
         if e.Tdo_cimacc.Timeline.phase = Tdo_cimacc.Timeline.Trigger then
           Some (string_of_int e.Tdo_cimacc.Timeline.at)
         else None)
  |> String.concat ","

(* One pinned row: [label roi=insts/cycles/ps cls=… l1d=… l2=… launch=… out=…]. *)
let numbers_row label platform (m : Exec.metrics) mats =
  let cpu = Platform.cpu platform in
  Printf.sprintf "%s roi=%d/%d/%d cls=%s l1d=%s l2=%s launch=%s out=%s" label
    m.Exec.roi_instructions m.Exec.roi_cycles m.Exec.roi_time_ps
    (String.concat "," (List.map (fun c -> string_of_int (Sim.Cpu.class_count cpu c)) all_classes))
    (cache_row platform.Platform.l1d) (cache_row platform.Platform.l2) (launch_times platform)
    (outputs_digest mats)

let polybench_row (b : Kernels.benchmark) ~tactics ~n =
  let options = if tactics then Flow.o3_loop_tactics else Flow.o3 in
  let f, _ = Flow.compile ~options (b.Kernels.source ~n) in
  let args, readback = b.Kernels.make_args ~n ~seed:5 in
  let platform = Platform.create () in
  let m = Exec.run f ~platform ~args in
  numbers_row
    (Printf.sprintf "%s/%s/%d" b.Kernels.name (if tactics then "tactics" else "o3") n)
    platform m (readback ())

let polybench_rows () =
  List.concat_map
    (fun b ->
      List.concat_map
        (fun tactics -> List.map (fun n -> polybench_row b ~tactics ~n) [ 8; 13 ])
        [ false; true ])
    Kernels.all

(* Runtime calls inside a host loop, with host statements between
   them: the path where instructions counted before a call must be
   retired before the call reads the core's clock. Two row tiles of
   C = A * B + C, each launch preceded by a host reduction over the
   tile's first row of A and scalar updates in the loop body. *)
let tiled_calls_func () =
  let open Ir in
  let v x = Ast.Var x and i n = Ast.Int_lit n in
  let ( *: ) a b = Ast.Binop (Ast.Mul, a, b) and ( +: ) a b = Ast.Binop (Ast.Add, a, b) in
  let tile arr =
    { array = arr; row_off = v "t" *: i 4; col_off = i 0; rows = 4; cols = 8; trans = false }
  in
  let whole arr = mat_ref_whole ~array:arr ~rows:8 ~cols:8 () in
  let arr name dims = { Ast.pname = name; ptyp = Ast.Tfloat; dims } in
  {
    name = "tiled_calls";
    params = [ arr "C" [ 8; 8 ]; arr "A" [ 8; 8 ]; arr "B" [ 8; 8 ]; arr "s" [ 2 ] ];
    body =
      [
        Roi_begin;
        Call Cim_init;
        Call (Cim_alloc { array = "A" });
        Call (Cim_alloc { array = "B" });
        Call (Cim_alloc { array = "C" });
        Call (Cim_h2d { array = "A" });
        Call (Cim_h2d { array = "B" });
        Call (Cim_h2d { array = "C" });
        For
          {
            var = "t";
            lo = i 0;
            hi = i 2;
            step = 1;
            body =
              [
                Decl_scalar { name = "acc"; typ = Ast.Tfloat; init = Some (Ast.Float_lit 0.0) };
                Decl_scalar { name = "q"; typ = Ast.Tint; init = Some (v "t" *: i 2) };
                For
                  {
                    var = "j";
                    lo = i 0;
                    hi = i 8;
                    step = 1;
                    body =
                      [
                        Assign
                          {
                            lhs = { Ast.base = "acc"; indices = [] };
                            op = Ast.Add_assign;
                            rhs = Ast.Index ("A", [ v "t" *: i 4; v "j" ]) *: Ast.Float_lit 2.0;
                          };
                      ];
                  };
                Assign { lhs = { Ast.base = "q"; indices = [] }; op = Ast.Add_assign; rhs = i 1 };
                Assign
                  {
                    lhs = { Ast.base = "s"; indices = [ v "q" +: Ast.Neg (v "t") +: i (-1) ] };
                    op = Ast.Sub_assign;
                    rhs = Ast.Neg (v "acc");
                  };
                Call
                  (Cim_gemm
                     {
                       m = 4;
                       n = 8;
                       k = 8;
                       alpha = Ast.Float_lit 1.0;
                       beta = Ast.Float_lit 1.0;
                       a = tile "A";
                       b = whole "B";
                       c = tile "C";
                       pin = Pin_b;
                     });
              ];
          };
        Call (Cim_d2h { array = "C" });
        Call (Cim_free { array = "A" });
        Call (Cim_free { array = "B" });
        Call (Cim_free { array = "C" });
        Roi_end;
      ];
  }

let tiled_calls_args ~seed =
  let g = Prng.create ~seed in
  let mat () = Interp.arr_of_mat (Mat.random g ~rows:8 ~cols:8 ~lo:(-1.0) ~hi:1.0) in
  let c = mat () and a = mat () and b = mat () and s = Interp.make_array ~dims:[ 2 ] in
  ( [
      ("C", Interp.Varray c); ("A", Interp.Varray a); ("B", Interp.Varray b);
      ("s", Interp.Varray s);
    ],
    fun () -> [ Interp.mat_of_arr c; Kernels.mat_of_vec s ] )

let tiled_calls_row () =
  let args, readback = tiled_calls_args ~seed:5 in
  let platform = Platform.create () in
  let m = Exec.run (tiled_calls_func ()) ~platform ~args in
  numbers_row "tiled_calls" platform m (readback ())

let pinned_polybench_rows =
  [
    "2mm/o3/8 roi=14624/38584/32140472 cls=7568,0,64,512,1024,0,3136,1152,1168,0,0 l1d=4268/20/0/0/0/0 l2=0/20/0/0/0/0 launch= out=2523f504bb72439c83f91cd22f9e6ec9";
    "2mm/o3/13 roi=61399/159554/132908482 cls=31798,0,169,2197,4394,0,13351,4732,4758,0,0 l1d=18028/55/0/0/0/0 l2=0/55/0/0/0/0 launch= out=3caafd8e5699b6c4a1c7814233636f2e";
    "2mm/tactics/8 roi=149286/156478/167338386 cls=148518,0,0,0,0,0,384,384,0,0,0 l1d=720/48/0/16/2/1024 l2=4/60/0/8/2/512 launch=59647699,141691220 out=4bd110daf9eaf2945a5553353bd2be66";
    "2mm/tactics/13 roi=160302/179828/211744756 cls=158274,0,0,0,0,0,1014,1014,0,0,0 l1d=1896/132/0/44/2/2816 l2=11/165/0/22/2/1408 launch=65249407,167725848 out=adef43ce163edf35f205beed0beca227";
    "3mm/o3/8 roi=20976/53816/44828728 cls=11352,0,0,0,1536,0,4608,1728,1752,0,0 l1d=6308/28/0/0/0/0 l2=0/28/0/0/0/0 launch= out=7882ba11339d6baaae54a541aefb7348";
    "3mm/o3/13 roi=88296/223516/186188828 cls=47697,0,0,0,6591,0,19773,7098,7137,0,0 l1d=26794/77/0/0/0/0 l2=0/77/0/0/0/0 launch= out=278c64f88c187274d45c290c1c18ce65";
    "3mm/tactics/8 roi=155825/164801/190736940 cls=154923,0,0,0,0,0,448,454,0,0,0 l1d=845/57/0/17/2/1088 l2=0/74/0/17/2/1088 launch=63136342,164864734 out=3e4488588a45fb589c216ba242905c53";
    "3mm/tactics/13 roi=171085/195251/251759634 cls=168713,0,0,0,0,0,1183,1189,0,0,0 l1d=2217/155/0/45/2/2880 l2=0/200/0/45/2/2880 launch=74339758,205730574 out=8f41c42540a68f352a915408b2f8a119";
    "gemm/o3/8 roi=7632/20792/17319736 cls=3784,0,64,512,512,0,1600,576,584,0,0 l1d=2164/12/0/0/0/0 l2=0/12/0/0/0/0 launch= out=0849cd2ddfe20d148f8277035092ef9c";
    "gemm/o3/13 roi=31967/85452/71181516 cls=15899,0,169,2197,2197,0,6760,2366,2379,0,0 l1d=9093/33/0/0/0/0 l2=0/33/0/0/0/0 launch= out=7ec822d995d218258dd8bbf828649eed";
    "gemm/tactics/8 roi=75307/79971/85662513 cls=74795,0,0,0,0,0,256,256,0,0,0 l1d=480/32/0/12/1/768 l2=4/40/0/0/1/0 launch=61281507 out=a68edbd443d04965d45eca6442372091";
    "gemm/tactics/13 roi=81371/94029/110279347 cls=80019,0,0,0,0,0,676,676,0,0,0 l1d=1264/88/0/33/1/2112 l2=11/110/0/0/1/0 launch=69684069 out=65b8daf0677f73127c15b7ba6a1f0c32";
    "conv/o3/8 roi=9360/21816/18172728 cls=5576,0,0,0,576,0,1728,640,840,0,0 l1d=2356/12/0/0/0/0 l2=0/12/0/0/0/0 launch= out=261fd48f6c383ef0777ef2206fc625c5";
    "conv/o3/13 roi=24700/57076/47544308 cls=14716,0,0,0,1521,0,4563,1690,2210,0,0 l1d=6226/27/0/0/0/0 l2=0/27/0/0/0/0 launch= out=f8d3eef27ee921c5112a92d7bca91f1e";
    "conv/tactics/8 roi=77822/82488/94306691 cls=77246,0,0,0,0,0,246,246,84,0,0 l1d=463/29/0/9/1/576 l2=0/38/0/0/1/0 launch=61854718 out=477e5121181ea5e6fd23340dec22a103";
    "conv/tactics/13 roi=82937/93683/115050908 cls=81581,0,0,0,0,0,581,581,194,0,0 l1d=1096/66/0/17/1/1088 l2=0/83/0/0/1/0 launch=67685750 out=f78c149cb4685f0c4f28fba0c2484122";
    "gesummv/o3/8 roi=1560/5394/4493202 cls=704,0,8,16,128,0,400,152,152,0,0 l1d=541/11/0/0/0/0 l2=0/11/0/0/0/0 launch= out=ec99587917421fb9446b8f7da681fdc7";
    "gesummv/o3/13 roi=3965/13449/11203017 cls=1794,0,13,26,338,0,1040,377,377,0,0 l1d=1392/25/0/0/0/0 l2=0/25/0/0/0/0 launch= out=8086f694895dae1906caa4e89409f86f";
    "gesummv/tactics/8 roi=80510/84114/102709601 cls=80144,0,8,16,0,0,168,166,8,0,0 l1d=311/23/0/10/1/640 l2=0/33/0/0/1/0 launch=60210538 out=04b6313394c484edaea0b58ad85f5af6";
    "gesummv/tactics/13 roi=89073/97197/133892034 cls=88222,0,13,26,0,0,403,396,13,0,0 l1d=748/51/0/24/1/1536 l2=0/75/0/0/1/0 launch=65853896 out=969caef42d9ed47c59caba6964ae91f8";
    "bicg/o3/8 roi=1472/4832/4025056 cls=672,0,0,0,128,0,384,144,144,0,0 l1d=520/8/0/0/0/0 l2=0/8/0/0/0/0 launch= out=b28f182a09cdd36e12a04337400303cc";
    "bicg/o3/13 roi=3822/11972/9972676 cls=1742,0,0,0,338,0,1014,364,364,0,0 l1d=1363/15/0/0/0/0 l2=0/15/0/0/0/0 launch= out=d57a53761421c269ec1e694fd6bb5679";
    "bicg/tactics/8 roi=146982/149318/157318212 cls=146790,0,0,0,0,0,96,96,0,0,0 l1d=176/16/0/6/2/384 l2=0/22/0/5/2/320 launch=58355703,135986185 out=033a13813266f955e599802a53832bc3";
    "bicg/tactics/13 roi=155082/159708/186194040 cls=154640,0,0,0,0,0,221,221,0,0,0 l1d=412/30/0/13/2/832 l2=0/43/0/12/2/768 launch=61198207,152111218 out=1857bb8a04114bf1bacd3dee21548d36";
    "mvt/o3/8 roi=1440/4752/3958416 cls=656,0,0,0,128,0,384,128,144,0,0 l1d=504/8/0/0/0/0 l2=0/8/0/0/0/0 launch= out=790f9bfdb3e960ed2724a6f798f54fae";
    "mvt/o3/13 roi=3770/11842/9864386 cls=1716,0,0,0,338,0,1014,338,364,0,0 l1d=1337/15/0/0/0/0 l2=0/15/0/0/0/0 launch= out=ff15a9dc3bf9e622d0a2342360bebec4";
    "mvt/tactics/8 roi=147142/149916/158344028 cls=146918,0,0,0,0,0,112,112,0,0,0 l1d=204/20/0/8/2/512 l2=1/27/0/6/2/384 launch=58697515,136922678 out=52319da58293d3e505f02e60b79e98d2";
    "mvt/tactics/13 roi=155298/160422/187316850 cls=154804,0,0,0,0,0,247,247,0,0,0 l1d=460/34/0/15/2/960 l2=1/48/0/13/2/832 launch=61581669,153137858 out=f754757c0c17652e60d60b30de488e6d";
  ]

let pinned_tiled_calls_row =
  "tiled_calls roi=142138/147594/143167639 cls=141552,0,20,16,0,0,274,258,18,0,0 l1d=497/35/0/14/2/896 l2=1/48/0/13/2/832 launch=61598329,140593007 out=c41aba3727bf7812d210d1e2dce2d3d0"

(* A rank-3 array read and written with computed subscripts: the
   general case of the address computation, which no PolyBench kernel
   reaches. *)
let rank3_src =
  {|
void rank3(float T[3][4][5], float S[4][5], float alpha) {
  for (int p = 0; p < 3; p++)
    for (int i = 0; i < 4; i++)
      for (int j = 0; j < 5; j++)
        S[i][j] += alpha * T[p][i][j];
  for (int i = 1; i < 4; i++)
    for (int j = 0; j < 5; j++)
      T[2][i][4 - j] -= S[i - 1][j];
}
|}

let rank3_args ~seed =
  let g = Prng.create ~seed in
  let t = Kernels.random_arr g ~dims:[ 3; 4; 5 ] in
  let s = Kernels.random_arr g ~dims:[ 4; 5 ] in
  ( [ ("T", Interp.Varray t); ("S", Interp.Varray s); ("alpha", Interp.Vfloat 0.5) ],
    fun () -> [ Mat.of_data ~rows:12 ~cols:5 (Array.copy t.Interp.data); Interp.mat_of_arr s ] )

let pinned_rank3_row =
  "rank3 roi=891/2691/2241603 cls=498,0,15,0,60,0,150,75,93,0,0 l1d=219/6/0/0/0/0 l2=0/6/0/0/0/0 launch= out=0759e23672a0536164198653b18b5cf3"

let test_exec_pinned_rank3 () =
  let f, _ = Flow.compile ~options:Flow.o3 rank3_src in
  let args, readback = rank3_args ~seed:5 in
  let platform = Platform.create () in
  let m = Exec.run f ~platform ~args in
  Alcotest.(check string) "pinned executor numbers" pinned_rank3_row
    (numbers_row "rank3" platform m (readback ()))

(* A run that fails while it holds device buffers gives them back to
   the platform's CMA region, which outlives every run. The failing
   variant of [tiled_calls] runs a third row tile, whose host reduction
   reads past [A] after two launches, with all three buffers still
   allocated; the region holds one run's buffers, not two. *)
let test_exec_failed_run_frees_buffers () =
  let cma = { Tdo_runtime.Cma.default_config with Tdo_runtime.Cma.size = 1024 } in
  let platform = Platform.create ~config:{ Platform.default_config with Platform.cma } () in
  let f = tiled_calls_func () in
  let overrun =
    {
      f with
      Ir.body =
        List.map
          (function
            | Ir.For l when l.var = "t" -> Ir.For { l with hi = Ast.Int_lit 3 } | s -> s)
          f.Ir.body;
    }
  in
  let program = Exec.prepare overrun in
  for _ = 1 to 3 do
    let args, _ = tiled_calls_args ~seed:5 in
    match Exec.exec program ~platform ~args with
    | _ -> Alcotest.fail "the overrun completed"
    | exception Exec.Exec_error msg ->
        Alcotest.(check string) "fails at the overrun" "index 8 out of bound 8" msg
  done;
  Alcotest.(check int) "no device memory held" 0
    (Tdo_runtime.Cma.allocated_bytes platform.Platform.cma);
  let args, readback = tiled_calls_args ~seed:5 in
  ignore (Exec.run f ~platform ~args);
  Alcotest.(check string) "the next run completes" "c41aba3727bf7812d210d1e2dce2d3d0"
    (outputs_digest (readback ()))

let test_exec_pinned_polybench () =
  List.iter2
    (fun expected got -> Alcotest.(check string) "pinned executor numbers" expected got)
    pinned_polybench_rows (polybench_rows ())

let test_exec_pinned_calls_in_loop () =
  Alcotest.(check string) "pinned executor numbers" pinned_tiled_calls_row (tiled_calls_row ())

(* One prepared program serves many runs: on fresh platforms, with
   fresh arguments, several at once on the domain pool — as the
   serving layer's workers share one kernel-cache entry — and each run
   matches a one-shot [Exec.run] of the same function. *)
let qcheck_prepared_program_reuse =
  let cases =
    ("tiled_calls", tiled_calls_func (), tiled_calls_args)
    :: List.concat_map
         (fun (b : Kernels.benchmark) ->
           List.map
             (fun (label, options) ->
               let f, _ = Flow.compile ~options (b.Kernels.source ~n:6) in
               (b.Kernels.name ^ "/" ^ label, f, b.Kernels.make_args ~n:6))
             [ ("o3", Flow.o3); ("tactics", Flow.o3_loop_tactics) ])
         Kernels.all
  in
  QCheck.Test.make ~name:"a prepared program reused across platforms and domains" ~count:8
    QCheck.(pair (int_bound (List.length cases - 1)) (list_of_size (Gen.int_range 2 5) small_nat))
    (fun (case, seeds) ->
      let label, f, make_args = List.nth cases case in
      let program = Exec.prepare f in
      let one exec seed =
        let args, readback = make_args ~seed in
        let platform = Platform.create () in
        numbers_row label platform (exec ~platform ~args) (readback ())
      in
      Tdo_util.Pool.parallel_map (one (Exec.exec program)) seeds
      = List.map (one (Exec.run f)) seeds)

let suites =
  suites
  @ [
      ( "ir.exec_pinned",
        [
          Alcotest.test_case "polybench o3 and tactics" `Quick test_exec_pinned_polybench;
          Alcotest.test_case "calls inside a loop" `Quick test_exec_pinned_calls_in_loop;
          Alcotest.test_case "rank-3 arrays" `Quick test_exec_pinned_rank3;
          Alcotest.test_case "a failed run releases its device buffers" `Quick
            test_exec_failed_run_frees_buffers;
          QCheck_alcotest.to_alcotest qcheck_prepared_program_reuse;
        ] );
    ]
