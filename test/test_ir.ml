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
  let _, metrics, _, _ = run_gemm_exec ~m:6 ~n:5 ~k:7 ~alpha:1.0 ~beta:1.0 ~seed:72 in
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

(* A fresh platform whose engine has an event log attached, so a row
   can show when each launch started. *)
let logged_platform () =
  let platform = Platform.create () in
  (platform, Tdo_cimacc.(Micro_engine.record_timeline (Accel.engine platform.Platform.accel)))

(* When the host started each accelerator job: the core's clock as the
   runtime read it, so host instructions charged late or early show. *)
let launch_times timeline =
  Tdo_cimacc.Timeline.events timeline
  |> List.filter_map (fun (e : Tdo_cimacc.Timeline.event) ->
         if e.Tdo_cimacc.Timeline.phase = Tdo_cimacc.Timeline.Trigger then
           Some (string_of_int e.Tdo_cimacc.Timeline.at)
         else None)
  |> String.concat ","

(* One pinned row: [label roi=insts/cycles/ps l1d=… l2=… launch=… out=…]. *)
let numbers_row label (platform, timeline) (m : Exec.metrics) mats =
  Printf.sprintf "%s roi=%d/%d/%d l1d=%s l2=%s launch=%s out=%s" label
    m.Exec.roi_instructions m.Exec.roi_cycles m.Exec.roi_time_ps
    (cache_row platform.Platform.l1d) (cache_row platform.Platform.l2) (launch_times timeline)
    (outputs_digest mats)

let polybench_row (b : Kernels.benchmark) ~tactics ~n =
  let options = if tactics then Flow.o3_loop_tactics else Flow.o3 in
  let f, _ = Flow.compile ~options (b.Kernels.source ~n) in
  let args, readback = b.Kernels.make_args ~n ~seed:5 in
  let ((platform, _) as logged) = logged_platform () in
  let m = Exec.run f ~platform ~args in
  numbers_row
    (Printf.sprintf "%s/%s/%d" b.Kernels.name (if tactics then "tactics" else "o3") n)
    logged m (readback ())

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
  let ((platform, _) as logged) = logged_platform () in
  let m = Exec.run (tiled_calls_func ()) ~platform ~args in
  numbers_row "tiled_calls" logged m (readback ())

let pinned_polybench_rows =
  [
    "2mm/o3/8 roi=14624/38584/32140472 l1d=4268/20/0/0/0/0 l2=0/20/0/0/0/0 launch= out=2523f504bb72439c83f91cd22f9e6ec9";
    "2mm/o3/13 roi=61399/159554/132908482 l1d=18028/55/0/0/0/0 l2=0/55/0/0/0/0 launch= out=3caafd8e5699b6c4a1c7814233636f2e";
    "2mm/tactics/8 roi=149286/156478/167338386 l1d=720/48/0/16/2/1024 l2=4/60/0/8/2/512 launch=59647699,141691220 out=4bd110daf9eaf2945a5553353bd2be66";
    "2mm/tactics/13 roi=160302/179828/211744756 l1d=1896/132/0/44/2/2816 l2=11/165/0/22/2/1408 launch=65249407,167725848 out=adef43ce163edf35f205beed0beca227";
    "3mm/o3/8 roi=20976/53816/44828728 l1d=6308/28/0/0/0/0 l2=0/28/0/0/0/0 launch= out=7882ba11339d6baaae54a541aefb7348";
    "3mm/o3/13 roi=88296/223516/186188828 l1d=26794/77/0/0/0/0 l2=0/77/0/0/0/0 launch= out=278c64f88c187274d45c290c1c18ce65";
    "3mm/tactics/8 roi=155825/164801/190736940 l1d=845/57/0/17/2/1088 l2=0/74/0/17/2/1088 launch=63136342,164864734 out=3e4488588a45fb589c216ba242905c53";
    "3mm/tactics/13 roi=171085/195251/251759634 l1d=2217/155/0/45/2/2880 l2=0/200/0/45/2/2880 launch=74339758,205730574 out=8f41c42540a68f352a915408b2f8a119";
    "gemm/o3/8 roi=7632/20792/17319736 l1d=2164/12/0/0/0/0 l2=0/12/0/0/0/0 launch= out=0849cd2ddfe20d148f8277035092ef9c";
    "gemm/o3/13 roi=31967/85452/71181516 l1d=9093/33/0/0/0/0 l2=0/33/0/0/0/0 launch= out=7ec822d995d218258dd8bbf828649eed";
    "gemm/tactics/8 roi=75307/79971/85662513 l1d=480/32/0/12/1/768 l2=4/40/0/0/1/0 launch=61281507 out=a68edbd443d04965d45eca6442372091";
    "gemm/tactics/13 roi=81371/94029/110279347 l1d=1264/88/0/33/1/2112 l2=11/110/0/0/1/0 launch=69684069 out=65b8daf0677f73127c15b7ba6a1f0c32";
    "conv/o3/8 roi=9360/21816/18172728 l1d=2356/12/0/0/0/0 l2=0/12/0/0/0/0 launch= out=261fd48f6c383ef0777ef2206fc625c5";
    "conv/o3/13 roi=24700/57076/47544308 l1d=6226/27/0/0/0/0 l2=0/27/0/0/0/0 launch= out=f8d3eef27ee921c5112a92d7bca91f1e";
    "conv/tactics/8 roi=77822/82488/94306691 l1d=463/29/0/9/1/576 l2=0/38/0/0/1/0 launch=61854718 out=477e5121181ea5e6fd23340dec22a103";
    "conv/tactics/13 roi=82937/93683/115050908 l1d=1096/66/0/17/1/1088 l2=0/83/0/0/1/0 launch=67685750 out=f78c149cb4685f0c4f28fba0c2484122";
    "gesummv/o3/8 roi=1560/5394/4493202 l1d=541/11/0/0/0/0 l2=0/11/0/0/0/0 launch= out=ec99587917421fb9446b8f7da681fdc7";
    "gesummv/o3/13 roi=3965/13449/11203017 l1d=1392/25/0/0/0/0 l2=0/25/0/0/0/0 launch= out=8086f694895dae1906caa4e89409f86f";
    "gesummv/tactics/8 roi=80510/84114/102709601 l1d=311/23/0/10/1/640 l2=0/33/0/0/1/0 launch=60210538 out=04b6313394c484edaea0b58ad85f5af6";
    "gesummv/tactics/13 roi=89073/97197/133892034 l1d=748/51/0/24/1/1536 l2=0/75/0/0/1/0 launch=65853896 out=969caef42d9ed47c59caba6964ae91f8";
    "bicg/o3/8 roi=1472/4832/4025056 l1d=520/8/0/0/0/0 l2=0/8/0/0/0/0 launch= out=b28f182a09cdd36e12a04337400303cc";
    "bicg/o3/13 roi=3822/11972/9972676 l1d=1363/15/0/0/0/0 l2=0/15/0/0/0/0 launch= out=d57a53761421c269ec1e694fd6bb5679";
    "bicg/tactics/8 roi=146982/149318/157318212 l1d=176/16/0/6/2/384 l2=0/22/0/5/2/320 launch=58355703,135986185 out=033a13813266f955e599802a53832bc3";
    "bicg/tactics/13 roi=155082/159708/186194040 l1d=412/30/0/13/2/832 l2=0/43/0/12/2/768 launch=61198207,152111218 out=1857bb8a04114bf1bacd3dee21548d36";
    "mvt/o3/8 roi=1440/4752/3958416 l1d=504/8/0/0/0/0 l2=0/8/0/0/0/0 launch= out=790f9bfdb3e960ed2724a6f798f54fae";
    "mvt/o3/13 roi=3770/11842/9864386 l1d=1337/15/0/0/0/0 l2=0/15/0/0/0/0 launch= out=ff15a9dc3bf9e622d0a2342360bebec4";
    "mvt/tactics/8 roi=147142/149916/158344028 l1d=204/20/0/8/2/512 l2=1/27/0/6/2/384 launch=58697515,136922678 out=52319da58293d3e505f02e60b79e98d2";
    "mvt/tactics/13 roi=155298/160422/187316850 l1d=460/34/0/15/2/960 l2=1/48/0/13/2/832 launch=61581669,153137858 out=f754757c0c17652e60d60b30de488e6d";
  ]

(* Host runs whose operands overflow the 32 KB L1D, so that lines are
   evicted and written back and misses cost more than a cold fill. *)
let pinned_evicting_rows =
  [
    "gemm/o3/64 roi=3698816/9588864/7987523712 l1d=1056000/768/256/128/0/0 l2=128/768/0/0/0/0 launch= out=f390f42ec9bc75b728026ba7b2779285";
    "mvt/o3/128 roi=360960/1297952/1081194016 l1d=113504/17568/17056/8/0/0 l2=16520/1056/0/0/0/0 launch= out=ce150a075cf5d2b44782ee9fd43bed78";
  ]

let pinned_tiled_calls_row =
  "tiled_calls roi=142138/147594/143167639 l1d=497/35/0/14/2/896 l2=1/48/0/13/2/832 launch=61598329,140593007 out=c41aba3727bf7812d210d1e2dce2d3d0"

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
  "rank3 roi=891/2691/2241603 l1d=219/6/0/0/0/0 l2=0/6/0/0/0/0 launch= out=0759e23672a0536164198653b18b5cf3"

let test_exec_pinned_rank3 () =
  let f, _ = Flow.compile ~options:Flow.o3 rank3_src in
  let args, readback = rank3_args ~seed:5 in
  let ((platform, _) as logged) = logged_platform () in
  let m = Exec.run f ~platform ~args in
  Alcotest.(check string) "pinned executor numbers" pinned_rank3_row
    (numbers_row "rank3" logged m (readback ()))

(* A read-modify-write past the end of simulated memory: [Memory]
   rejects the load, which is charged alone, as when the load and the
   store were separate accesses, and the store never happens. *)
let test_exec_update_outside_memory () =
  let f, _ =
    Flow.compile ~options:Flow.o3
      {|
void big(float x[4]) {
  float T[30000][30000];
  for (int i = 0; i < 4; i++)
    x[i] += 1.0;
  T[29999][29999] += x[0];
}
|}
  in
  let platform = Platform.create () in
  let x = Interp.make_array ~dims:[ 4 ] in
  (match Exec.run f ~platform ~args:[ ("x", Interp.Varray x) ] with
  | _ -> Alcotest.fail "the access past memory completed"
  | exception Invalid_argument _ -> ());
  let cpu = Platform.cpu platform in
  Alcotest.(check string) "the core and L1D after the failure"
    "core=22/272/226576 l1d=8/2/0/0/0/0"
    (Printf.sprintf "core=%d/%d/%d l1d=%s" (Sim.Cpu.instructions cpu) (Sim.Cpu.cycles cpu)
       (Sim.Cpu.time_ps cpu) (cache_row platform.Platform.l1d))

(* A run that fails while it holds device buffers gives them back to
   the platform's CMA region, which outlives every run. One failing
   variant of [tiled_calls] runs a third row tile, whose host reduction
   reads past [A] after two launches; the other reads one column past
   [A] in the first tile's reduction, with that row's eight loads not
   yet retired. Both fail with all three buffers still allocated; the
   region holds one run's buffers, not two. *)
let test_exec_failed_run_frees_buffers () =
  let cma = { Tdo_runtime.Cma.default_config with Tdo_runtime.Cma.size = 1024 } in
  let platform = Platform.create ~config:{ Platform.default_config with Platform.cma } () in
  let f = tiled_calls_func () in
  let overrun ~tiles ~cols =
    let rec patch = function
      | Ir.For l when l.var = "t" ->
          Ir.For { l with hi = Ast.Int_lit tiles; body = List.map patch l.body }
      | Ir.For l when l.var = "j" -> Ir.For { l with hi = Ast.Int_lit cols }
      | s -> s
    in
    Exec.prepare { f with Ir.body = List.map patch f.Ir.body }
  in
  let rows_past = overrun ~tiles:3 ~cols:8 and cols_past = overrun ~tiles:2 ~cols:9 in
  for _ = 1 to 3 do
    List.iter
      (fun program ->
        let args, _ = tiled_calls_args ~seed:5 in
        match Exec.exec program ~platform ~args with
        | _ -> Alcotest.fail "the overrun completed"
        | exception Exec.Exec_error msg ->
            Alcotest.(check string) "fails at the overrun" "index 8 out of bound 8" msg)
      [ rows_past; cols_past ]
  done;
  (* what the failed runs charged, the accesses before each failure
     included *)
  let cpu = Platform.cpu platform in
  Alcotest.(check string) "the core and caches after the failures"
    "core=417036/435584/393291461 l1d=2283/105/0/42/6/2688 l2=5/142/0/41/6/2624"
    (Printf.sprintf "core=%d/%d/%d l1d=%s l2=%s" (Sim.Cpu.instructions cpu) (Sim.Cpu.cycles cpu)
       (Sim.Cpu.time_ps cpu) (cache_row platform.Platform.l1d) (cache_row platform.Platform.l2));
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

let test_exec_pinned_evicting () =
  List.iter2
    (fun expected (name, n) ->
      let b = Result.get_ok (Kernels.find name) in
      Alcotest.(check string) "pinned executor numbers" expected (polybench_row b ~tactics:false ~n))
    pinned_evicting_rows
    [ ("gemm", 64); ("mvt", 128) ]

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
        let ((platform, _) as logged) = logged_platform () in
        numbers_row label logged (exec ~platform ~args) (readback ())
      in
      Tdo_util.Pool.parallel_map (one (Exec.exec program)) seeds
      = List.map (one (Exec.run f)) seeds)

let suites =
  suites
  @ [
      ( "ir.exec_pinned",
        [
          Alcotest.test_case "polybench o3 and tactics" `Quick test_exec_pinned_polybench;
          Alcotest.test_case "o3 operands beyond the L1D" `Quick test_exec_pinned_evicting;
          Alcotest.test_case "calls inside a loop" `Quick test_exec_pinned_calls_in_loop;
          Alcotest.test_case "rank-3 arrays" `Quick test_exec_pinned_rank3;
          Alcotest.test_case "a failed run releases its device buffers" `Quick
            test_exec_failed_run_frees_buffers;
          Alcotest.test_case "an update past simulated memory" `Quick
            test_exec_update_outside_memory;
          QCheck_alcotest.to_alcotest qcheck_prepared_program_reuse;
        ] );
    ]

(* ---------- loop kernels against the per-iteration path ----------

   Random innermost loops whose subscripts are affine in the loop
   variable, inside an outer loop whose variable is a loop-invariant
   term, run once with loop kernels ([Exec.prepare]) and once one
   closure per iteration ([Exec.prepare_reference]), each twice on a
   fresh platform of its own. Arrays [A] and [B] are parameters behind
   a padding array sized to put them across a 64 KB chunk boundary;
   [C] is a local array, which simulated memory may end inside. The
   caches are the Table I ones or a small pair that evicts: a 2-way
   L1D of two sets, where a kernel of more than two sites runs per
   iteration, or a 4-way one of four, so the order of the probes shows
   in the statistics. A
   kernel skips the hits on a line its site touched one iteration
   before and writes their stamps later, so after each run a fixed
   sweep through [Cpu.issue_at] fills a line in every set and then
   reads every line of [A], [B] and [C]: a stamp written early, late
   or not at all changes which lines the fills evict, and so the
   sweep's latencies. Everything a run and its sweep leave must match:
   its outcome (ROI numbers or error text), the core's counters, both
   caches' statistics and dirty lines, the sweep's latencies, the
   arguments' bits and the bytes of every array in memory. Only a loop
   of one statement can run as a kernel, so four loops in five hold
   one; the others hold two or three and run per iteration. Targets
   of stride 0, which a kernel keeps in a register, get extra weight,
   two in three of them with a load of their own array that reads them
   at some iteration or passes them by. *)

type kernel_caches = Table_i | Two_way | Four_way

type kernel_case = {
  pad : int;  (** elements of the padding array in front of [A] *)
  shapes : int list array;  (** dims of [A], [B] and [C] *)
  alpha : float;
  outer : int;
  lo : int;
  hi : int;
  step : int;
  stmts : Ir.stmt list;
  memory : int option;  (** bytes of simulated memory past [C]'s base, when it ends there *)
  caches : kernel_caches;
  seed : int;
}

let kernel_array_names = [| "A"; "B"; "C" |]

let kernel_case_gen =
  let open QCheck.Gen in
  let v x = Ast.Var x and lit n = Ast.Int_lit n in
  let ( +: ) a b = Ast.Binop (Ast.Add, a, b) and ( *: ) a b = Ast.Binop (Ast.Mul, a, b) in
  int_range 1 3 >>= fun outer ->
  int_range (-1) 2 >>= fun lo ->
  int_range (-1) 7 >>= fun trips ->
  frequency [ (4, return 1); (1, return 2); (1, return 3) ] >>= fun step ->
  (* [c * i + o + off], with [off] most often keeping it in [0, extent)
     over the loop, and otherwise leaving it at some iteration *)
  let subscript extent =
    let span c with_outer =
      let last = lo + (Int.max 0 (trips - 1) * step) in
      let low = Int.min (c * lo) (c * last) and high = Int.max (c * lo) (c * last) in
      (low, if with_outer then high + outer - 1 else high)
    in
    let fits (c, with_outer) =
      let low, high = span c with_outer in
      -low <= extent - 1 - high
    in
    pair
      (frequency [ (4, return 0); (8, return 1); (1, return (-1)); (1, return 2); (1, return (-2)) ])
      (frequency [ (3, return false); (1, return true) ])
    >>= fun term ->
    (if fits term then return term else frequency [ (3, return (0, false)); (1, return term) ])
    >>= fun ((c, with_outer) as term) ->
    let low, high = span c with_outer in
    let leaves = int_range (Int.min (-low - 2) (extent + 1 - high)) (-low + 2) in
    (if fits term then frequency [ (29, int_range (-low) (extent - 1 - high)); (1, leaves) ]
     else leaves)
    >|= fun off ->
    let var = match c with 0 -> [] | 1 -> [ v "i" ] | c -> [ lit c *: v "i" ] in
    let terms = var @ (if with_outer then [ v "o" ] else []) @ [ lit off ] in
    List.fold_left ( +: ) (List.hd terms) (List.tl terms)
  in
  let access shapes =
    int_bound 2 >>= fun a ->
    flatten_l (List.map subscript shapes.(a)) >|= fun subs -> (kernel_array_names.(a), subs)
  in
  (* an element the loop does not move: [o + off] or [off] in each
     dimension *)
  let fixed_access shapes =
    let fixed extent =
      bool >>= fun with_outer ->
      let top = if with_outer then extent - outer else extent - 1 in
      (if top < 0 then return 0 else int_range 0 top) >|= fun off ->
      if with_outer && top >= 0 then Ast.Binop (Ast.Add, v "o", lit off) else lit off
    in
    int_bound 2 >>= fun a ->
    flatten_l (List.map fixed shapes.(a)) >|= fun subs -> (a, subs)
  in
  let factor shapes =
    frequency
      [
        (5, access shapes >|= fun (a, subs) -> Ast.Index (a, subs));
        (1, return (v "alpha"));
        (1, oneofl [ Ast.Float_lit 0.5; Ast.Float_lit (-1.25); Ast.Float_lit 0.1 ]);
      ]
  in
  let product fs = List.fold_left ( *: ) (List.hd fs) (List.tl fs) in
  let stmt shapes =
    let assign (a, subs) op rhs = Ir.Assign { lhs = { Ast.base = a; indices = subs }; op; rhs } in
    (* a stride-0 target; in two cases of three one factor loads its
       array, moving in one dimension, so that it reads the target at
       some iteration or passes it by *)
    let accumulate =
      fixed_access shapes >>= fun (a, subs) ->
      frequency [ (1, return false); (2, return true) ] >>= fun alias ->
      list_size (int_range 1 (if alias then 2 else 3)) (factor shapes) >>= fun fs ->
      (if alias then
         int_bound (List.length subs - 1) >>= fun d ->
         subscript (List.nth shapes.(a) d) >>= fun moving ->
         int_bound (List.length fs) >|= fun at ->
         let load = Ast.Index (kernel_array_names.(a), List.mapi (fun k e -> if k = d then moving else e) subs) in
         List.filteri (fun k _ -> k < at) fs @ [ load ] @ List.filteri (fun k _ -> k >= at) fs
       else return fs)
      >>= fun fs ->
      oneofl Ast.[ Add_assign; Add_assign; Sub_assign; Mul_assign; Set ] >|= fun op ->
      assign (kernel_array_names.(a), subs) op (product fs)
    in
    frequency
      [
        (4, accumulate);
        (* multiply-accumulate *)
        ( 4,
          map3
            (fun target op fs -> assign target op (product fs))
            (access shapes)
            (oneofl Ast.[ Add_assign; Add_assign; Sub_assign; Mul_assign; Set ])
            (list_size (int_range 2 3) (factor shapes)) );
        (* store and scale *)
        (2, map2 (fun target f -> assign target Ast.Set f) (access shapes) (factor shapes));
        (2, map2 (fun target f -> assign target Ast.Mul_assign f) (access shapes) (factor shapes));
        (* shapes that run one closure per iteration *)
        ( 1,
          map3
            (fun target a b -> assign target Ast.Add_assign (Ast.Binop (Ast.Add, a, b)))
            (access shapes) (factor shapes) (factor shapes) );
        ( 1,
          map2
            (fun a b ->
              Ir.Assign { lhs = { Ast.base = "acc"; indices = [] }; op = Ast.Add_assign; rhs = a *: b })
            (factor shapes) (factor shapes) );
      ]
  in
  let shape = int_range 1 3 >>= fun rank -> list_repeat rank (int_range 1 16) in
  array_repeat 3 shape >>= fun shapes ->
  list_size (frequency [ (8, return 1); (1, return 2); (1, return 3) ]) (stmt shapes)
  >>= fun stmts ->
  int_range 0 6 >>= fun below ->
  frequency [ (3, return None); (1, map Option.some (int_bound 300)) ] >>= fun memory ->
  frequency [ (1, return Table_i); (2, return Two_way); (2, return Four_way) ] >>= fun caches ->
  oneofl [ 1.5; 1.1; -0.75 ] >>= fun alpha ->
  int_bound 1000 >|= fun seed ->
  {
    pad = (65536 - (64 * below)) / 4;
    shapes;
    alpha;
    outer;
    lo;
    hi = lo + (trips * step) - (if trips > 0 then step - 1 else 0);
    step;
    stmts;
    memory;
    caches;
    seed;
  }

let kernel_case_func c =
  let v x = Ast.Var x and lit n = Ast.Int_lit n in
  let param name dims = { Ast.pname = name; ptyp = Ast.Tfloat; dims } in
  let origin a = List.map (fun _ -> lit 0) c.shapes.(a) in
  {
    Ir.name = "kernel_case";
    params =
      [
        param "pad" [ c.pad ];
        param "A" c.shapes.(0);
        param "B" c.shapes.(1);
        { Ast.pname = "alpha"; ptyp = Ast.Tfloat; dims = [] };
      ];
    body =
      [
        Ir.Roi_begin;
        Ir.Decl_scalar { name = "acc"; typ = Ast.Tfloat; init = Some (Ast.Float_lit 0.25) };
        Ir.Decl_array { name = "C"; dims = c.shapes.(2) };
        Ir.For
          {
            var = "o";
            lo = lit 0;
            hi = lit c.outer;
            step = 1;
            body = [ Ir.For { var = "i"; lo = lit c.lo; hi = lit c.hi; step = c.step; body = c.stmts } ];
          };
        Ir.Assign { lhs = { Ast.base = "A"; indices = origin 0 }; op = Ast.Add_assign; rhs = v "acc" };
        Ir.Roi_end;
      ];
  }

(* Where [exec] places each array: from the heap base, in declaration
   order, 64-byte aligned. *)
let kernel_case_layout c =
  let bytes dims = 4 * List.fold_left ( * ) 1 dims in
  let next at dims = (at + bytes dims + 63) / 64 * 64 in
  let a = next 0x0100_0000 [ c.pad ] in
  let b = next a c.shapes.(0) in
  let local = next b c.shapes.(1) in
  (a, local, next local c.shapes.(2))

let kernel_case_platform c =
  let _, local, _ = kernel_case_layout c in
  let memory =
    match c.memory with
    | None -> Sim.Memory.default_config
    | Some past -> { Sim.Memory.default_config with Sim.Memory.size_bytes = local + (4 * past) }
  in
  let config = { Platform.default_config with Platform.memory } in
  let small ~l1d ~ways ~l2 =
    {
      config with
      Platform.l1d = { Sim.Cache.l1d_arm_a7 with Sim.Cache.size_bytes = l1d; ways };
      l2 = { Sim.Cache.l2_arm_a7 with Sim.Cache.size_bytes = l2; ways = 4 };
    }
  in
  let config =
    match c.caches with
    | Table_i -> config
    | Two_way -> small ~l1d:256 ~ways:2 ~l2:1024
    | Four_way -> small ~l1d:1024 ~ways:4 ~l2:4096
  in
  Platform.create ~config ()

let kernel_case_args c =
  let g = Prng.create ~seed:c.seed in
  [
    ("pad", Interp.Varray (Interp.make_array ~dims:[ c.pad ]));
    ("A", Interp.Varray (Kernels.random_arr g ~dims:c.shapes.(0)));
    ("B", Interp.Varray (Kernels.random_arr g ~dims:c.shapes.(1)));
    ("alpha", Interp.Vfloat c.alpha);
  ]

(* The sweep after a run: one load in each L1D set, from the padding
   array at the heap's base, which no loop touches, then one load of every line from [A]
   to the end of [C] or of memory; each access's cycles. *)
let kernel_case_sweep c platform =
  let cpu = Platform.cpu platform in
  let l1d = Sim.Cache.config platform.Platform.l1d in
  let line = l1d.Sim.Cache.line_bytes in
  let sets = l1d.Sim.Cache.size_bytes / line / l1d.Sim.Cache.ways in
  let a, _, past_c = kernel_case_layout c in
  let size = (Sim.Memory.config platform.Platform.memory).Sim.Memory.size_bytes in
  let cycles addr =
    let before = Sim.Cpu.cycles cpu in
    Sim.Cpu.issue_at cpu ~addr Sim.Cpu.Load;
    Sim.Cpu.cycles cpu - before
  in
  let fills = List.init sets (fun k -> cycles (0x0100_0000 + (k * line))) in
  let reads = List.init ((Int.min past_c size - a + line - 1) / line) (fun k -> cycles (a + (k * line))) in
  String.concat "," (List.map string_of_int (fills @ reads))

(* Everything two runs of the case leave behind, as text. *)
let kernel_case_outcome c program =
  let platform = kernel_case_platform c in
  let run () =
    let args = kernel_case_args c in
    let outcome =
      match Exec.exec program ~platform ~args with
      | m -> Printf.sprintf "roi=%d/%d/%d" m.Exec.roi_instructions m.Exec.roi_cycles m.Exec.roi_time_ps
      | exception Exec.Exec_error msg -> "exec error: " ^ msg
      | exception Invalid_argument msg -> "invalid argument: " ^ msg
    in
    let cpu = Platform.cpu platform in
    let bits =
      List.concat_map
        (function
          | ("A" | "B") as name, Interp.Varray arr ->
              name :: List.map (Printf.sprintf "%h") (Array.to_list arr.Interp.data)
          | _ -> [])
        args
    in
    let a, _, past_c = kernel_case_layout c in
    let size = (Sim.Memory.config platform.Platform.memory).Sim.Memory.size_bytes in
    let memory = Sim.Memory.read_bytes platform.Platform.memory a (Int.min past_c size - a) in
    let caches () =
      Printf.sprintf "l1d=%s/%d l2=%s/%d"
        (cache_row platform.Platform.l1d)
        (Sim.Cache.dirty_lines platform.Platform.l1d)
        (cache_row platform.Platform.l2)
        (Sim.Cache.dirty_lines platform.Platform.l2)
    in
    let core =
      Printf.sprintf "core=%d/%d/%d %s" (Sim.Cpu.instructions cpu) (Sim.Cpu.cycles cpu)
        (Sim.Cpu.time_ps cpu) (caches ())
    in
    let sweep = kernel_case_sweep c platform in
    Printf.sprintf "%s %s args=%s memory=%s sweep=%s %s" outcome core (String.concat "," bits)
      (Digest.to_hex (Digest.bytes memory))
      sweep (caches ())
  in
  let first = run () in
  first ^ "\n" ^ run ()

let print_kernel_case c =
  Format.asprintf "pad=%d memory=%s caches=%s seed=%d alpha=%h@.%a" c.pad
    (match c.memory with None -> "2 GB" | Some past -> Printf.sprintf "C + %d floats" past)
    (match c.caches with Table_i -> "Table I" | Two_way -> "2-way" | Four_way -> "4-way")
    c.seed c.alpha Ir.pp_func (kernel_case_func c)

let qcheck_loop_kernels_exact =
  QCheck.Test.make ~name:"loop kernels equal the per-iteration executor" ~count:1000
    (QCheck.make ~print:print_kernel_case kernel_case_gen)
    (fun c ->
      let f = kernel_case_func c in
      let kernels = kernel_case_outcome c (Exec.prepare f) in
      let reference = kernel_case_outcome c (Exec.prepare_reference f) in
      if kernels <> reference then
        QCheck.Test.fail_reportf "kernels:@.%s@.reference:@.%s" kernels reference;
      true)

(* [exec] copies back only the arrays the program may write: an input
   it never writes keeps a value that binary32 cannot hold. *)
let test_exec_writes_back_only_written () =
  let f =
    Lower.func
      (Parser.parse_func
         "void f(float x[2], float y[2]) { for (int i = 0; i < 2; i++) y[i] = x[i] * 2.0; }")
  in
  let x = Interp.make_array ~dims:[ 2 ] and y = Interp.make_array ~dims:[ 2 ] in
  x.Interp.data.(0) <- 0.1;
  x.Interp.data.(1) <- -1.0 /. 3.0;
  ignore
    (Exec.run f ~platform:(Platform.create ()) ~args:[ ("x", Interp.Varray x); ("y", Interp.Varray y) ]);
  Alcotest.(check (array (float 0.0))) "the input keeps its doubles" [| 0.1; -1.0 /. 3.0 |] x.Interp.data;
  let f32 v = Int32.float_of_bits (Int32.bits_of_float v) in
  Alcotest.(check (array (float 0.0))) "the output is written back"
    [| f32 (f32 0.1 *. 2.0); f32 (f32 (-1.0 /. 3.0) *. 2.0) |]
    y.Interp.data

(* Every multiply-accumulate, store and scale loop of the PolyBench
   kernels runs as a loop kernel under [Flow.o3]: the iterations
   [exec] ran as kernels are exactly those of the innermost loops of
   that shape. gesummv's [y[i] = alpha * tmp[i] + beta * y[i]] is a
   sum, so its loop runs one closure per iteration and counts nothing.
   Without kernels nothing counts. *)
let test_polybench_loops_run_as_kernels () =
  let n = 8 in
  let platform = Platform.create () in
  List.iter
    (fun (name, expected) ->
      let b = Result.get_ok (Kernels.find name) in
      let f, _ = Flow.compile ~options:Flow.o3 (b.Kernels.source ~n) in
      let iterations prepare =
        let args, _ = b.Kernels.make_args ~n ~seed:5 in
        (Exec.exec (prepare f) ~platform ~args).Exec.kernel_iterations
      in
      Alcotest.(check int) (name ^ ": kernel iterations") expected (iterations Exec.prepare);
      Alcotest.(check int) (name ^ ": per-iteration reference") 0
        (iterations Exec.prepare_reference))
    [
      ("gemm", n * n * n);
      ("2mm", 2 * n * n * n);
      ("3mm", 3 * n * n * n);
      ("conv", 9 * n * n);
      ("gesummv", 2 * n * n);
      ("bicg", 2 * n * n);
      ("mvt", 2 * n * n);
    ]

let suites =
  suites
  @ [
      ( "ir.loop_kernels",
        [
          QCheck_alcotest.to_alcotest qcheck_loop_kernels_exact;
          Alcotest.test_case "write-back of written arrays only" `Quick
            test_exec_writes_back_only_written;
          Alcotest.test_case "PolyBench loops run as kernels" `Quick
            test_polybench_loops_run_as_kernels;
        ] );
    ]
