open Tdo_cimacc
module Sim = Tdo_sim
module Mat = Tdo_linalg.Mat
module Blas_ref = Tdo_linalg.Blas_ref
module Prng = Tdo_util.Prng

(* ---------- helpers: a minimal system ---------- *)

type system = {
  now : Sim.Time_base.ps ref;  (** the host clock the accelerator reads *)
  memory : Sim.Memory.t;
  bus : Sim.Bus.t;
  accel : Accel.t;
}

let small_xbar =
  { Tdo_pcm.Crossbar.default_config with Tdo_pcm.Crossbar.rows = 32; cols = 32 }

let make_system ?(engine_config = { Micro_engine.default_config with Micro_engine.xbar = small_xbar })
    () =
  let now = ref 0 in
  let memory = Sim.Memory.create () in
  let bus = Sim.Bus.create () in
  let accel = Accel.create ~engine_config ~clock:(fun () -> !now) ~bus ~memory () in
  { now; memory; bus; accel }

let write_matrix memory ~addr ~ld m =
  Mat.iteri ~f:(fun i j v -> Sim.Memory.write_f32 memory (addr + (4 * ((i * ld) + j))) v) m

let read_matrix memory ~addr ~ld ~rows ~cols =
  Mat.init ~rows ~cols ~f:(fun i j -> Sim.Memory.read_f32 memory (addr + (4 * ((i * ld) + j))))

let a_addr = 0x1000
let b_addr = 0x8000
let c_addr = 0x10000
let desc_addr = 0x20000

let base_job ~m ~n ~k =
  {
    Context_regs.op = Context_regs.Gemm;
    m;
    n;
    k;
    trans_a = false;
    trans_b = false;
    alpha = 1.0;
    beta = 0.0;
    a_addr;
    b_addr;
    c_addr;
    lda = k;
    ldb = n;
    ldc = n;
    batch_count = 0;
    batch_desc_addr = 0;
    pin = Context_regs.Pin_a;
    generation = 0;
  }

(* Worst-case absolute error of the quantised GEMM against the float
   reference: k products, each with half-ulp error on both operands. *)
let gemm_tolerance ~k ~a ~b =
  let sa = Tdo_linalg.Quant.scheme_for ~bits:8 ~max_abs:(Mat.max_abs a) in
  let sb = Tdo_linalg.Quant.scheme_for ~bits:8 ~max_abs:(Mat.max_abs b) in
  let ea = sa.Tdo_linalg.Quant.scale /. 2.0 and eb = sb.Tdo_linalg.Quant.scale /. 2.0 in
  float_of_int k *. ((ea *. (Mat.max_abs b +. eb)) +. (eb *. Mat.max_abs a)) *. 1.5 +. 1e-4

let run_gemm ?(sys = make_system ()) ?(job_patch = fun j -> j) ~m ~n ~k ~alpha ~beta ~seed () =
  let g = Prng.create ~seed in
  let a = Mat.random g ~rows:m ~cols:k ~lo:(-1.0) ~hi:1.0 in
  let b = Mat.random g ~rows:k ~cols:n ~lo:(-1.0) ~hi:1.0 in
  let c0 = Mat.random g ~rows:m ~cols:n ~lo:(-1.0) ~hi:1.0 in
  write_matrix sys.memory ~addr:a_addr ~ld:k a;
  write_matrix sys.memory ~addr:b_addr ~ld:n b;
  write_matrix sys.memory ~addr:c_addr ~ld:n c0;
  let job = job_patch { (base_job ~m ~n ~k) with Context_regs.alpha; beta } in
  let engine = Accel.engine sys.accel in
  let result = Micro_engine.run_job engine job ~start:0 in
  let expected = Mat.copy c0 in
  Blas_ref.gemm ~alpha ~beta ~a ~b ~c:expected ();
  (sys, a, b, expected, result)

let check_gemm_close ~what ~k ~a ~b ~expected sys =
  let actual =
    read_matrix sys.memory ~addr:c_addr ~ld:(Mat.cols expected) ~rows:(Mat.rows expected)
      ~cols:(Mat.cols expected)
  in
  let tol = gemm_tolerance ~k ~a ~b in
  let err = Mat.max_abs_diff expected actual in
  if err > tol then
    Alcotest.failf "%s: error %.6f exceeds tolerance %.6f" what err tol

(* ---------- Context registers ---------- *)

(* A binary32's bits as a register word. *)
let float_word v = Int32.to_int (Int32.bits_of_float v) land 0xFFFF_FFFF

let test_regs_decode_roundtrip () =
  let regs = Context_regs.create () in
  let h = Context_regs.handler regs in
  let wr reg v = h.Sim.Mmio.write ~offset:(4 * reg) v in
  wr Context_regs.reg_op 1;
  wr Context_regs.reg_m 8;
  wr Context_regs.reg_n 4;
  wr Context_regs.reg_k 6;
  wr Context_regs.reg_alpha (float_word 2.5);
  wr Context_regs.reg_beta (float_word 0.5);
  wr Context_regs.reg_a_addr 0x100;
  wr Context_regs.reg_b_addr 0x200;
  wr Context_regs.reg_c_addr 0x300;
  wr Context_regs.reg_lda 6;
  wr Context_regs.reg_ldb 4;
  wr Context_regs.reg_ldc 4;
  wr Context_regs.reg_trans 2;
  wr Context_regs.reg_pin 1;
  wr Context_regs.reg_generation 7;
  match Context_regs.decode_job regs with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok job ->
      Alcotest.(check bool) "op" true (job.Context_regs.op = Context_regs.Gemm);
      Alcotest.(check int) "m" 8 job.Context_regs.m;
      Alcotest.(check (float 1e-7)) "alpha (f32 bits)" 2.5 job.Context_regs.alpha;
      Alcotest.(check bool) "trans_b" true job.Context_regs.trans_b;
      Alcotest.(check bool) "trans_a" false job.Context_regs.trans_a;
      Alcotest.(check bool) "pin b" true (job.Context_regs.pin = Context_regs.Pin_b);
      Alcotest.(check int) "generation" 7 job.Context_regs.generation

let test_regs_trigger_and_status () =
  let regs = Context_regs.create () in
  let triggered = ref None in
  Context_regs.set_on_trigger regs (fun job -> triggered := Some job);
  let h = Context_regs.handler regs in
  let wr reg v = h.Sim.Mmio.write ~offset:(4 * reg) v in
  wr Context_regs.reg_op 1;
  wr Context_regs.reg_m 2;
  wr Context_regs.reg_n 2;
  wr Context_regs.reg_k 2;
  Alcotest.(check bool) "no trigger before command" true (!triggered = None);
  wr Context_regs.reg_command 1;
  Alcotest.(check bool) "triggered" true (!triggered <> None);
  Alcotest.(check int) "trigger count" 1 (Context_regs.triggers regs);
  (* device-owned status: host writes must be ignored *)
  Context_regs.set_status regs Context_regs.Done;
  wr Context_regs.reg_status 0;
  Alcotest.(check bool) "status write ignored" true
    (Context_regs.status regs = Context_regs.Done);
  Alcotest.(check int) "status readable" 2
    (h.Sim.Mmio.read ~offset:(4 * Context_regs.reg_status))

let test_regs_bad_job_sets_error () =
  let regs = Context_regs.create () in
  Context_regs.set_on_trigger regs (fun _ -> ());
  let h = Context_regs.handler regs in
  let wr reg v = h.Sim.Mmio.write ~offset:(4 * reg) v in
  wr Context_regs.reg_op 9;
  wr Context_regs.reg_command 1;
  Alcotest.(check bool) "error status" true (Context_regs.status regs = Context_regs.Error)

let test_regs_unaligned () =
  let regs = Context_regs.create () in
  let h = Context_regs.handler regs in
  Alcotest.(check bool) "unaligned raises" true
    (try
       ignore (h.Sim.Mmio.read ~offset:2);
       false
     with Invalid_argument _ -> true)

(* ---------- Digital logic ---------- *)

let test_digital_postprocess () =
  let d = Digital_logic.create () in
  let out = Array.make 2 0.0 in
  Digital_logic.postprocess_into d ~alpha:2.0 ~beta:0.5 ~scales:[| 0.1 |] ~raw:[| 10; -20 |]
    ~c_old:(Some [| 1.0; 2.0 |]) ~out ~passes:1 ~len:2 ~slice_stride:2 ~elem_stride:1;
  Alcotest.(check (array (float 1e-9))) "epilogue" [| 2.5; -3.0 |] out;
  let c = Digital_logic.counters d in
  Alcotest.(check int) "one weighted sum" 1 c.Digital_logic.weighted_sums;
  Alcotest.(check int) "alu ops" 8 c.Digital_logic.alu_ops

let test_digital_beta_needs_c () =
  let d = Digital_logic.create () in
  Alcotest.(check bool) "beta without c_old raises" true
    (try
       Digital_logic.postprocess_into d ~alpha:1.0 ~beta:1.0 ~scales:[| 1.0 |] ~raw:[| 1 |]
         ~c_old:None ~out:[| 0.0 |] ~passes:1 ~len:1 ~slice_stride:1 ~elem_stride:1;
       false
     with Invalid_argument _ -> true)

(* ---------- Micro-engine ---------- *)

let test_engine_gemm_correct () =
  let sys, a, b, expected, result = run_gemm ~m:8 ~n:6 ~k:7 ~alpha:1.0 ~beta:0.0 ~seed:31 () in
  (match result with Error e -> Alcotest.failf "job rejected: %s" e | Ok _ -> ());
  check_gemm_close ~what:"plain gemm" ~k:7 ~a ~b ~expected sys

let test_engine_alpha_beta () =
  let sys, a, b, expected, result = run_gemm ~m:5 ~n:5 ~k:5 ~alpha:1.5 ~beta:0.75 ~seed:32 () in
  (match result with Error e -> Alcotest.failf "job rejected: %s" e | Ok _ -> ());
  check_gemm_close ~what:"alpha/beta gemm" ~k:5 ~a ~b ~expected sys

let test_engine_pin_b () =
  let patch j = { j with Context_regs.pin = Context_regs.Pin_b } in
  let sys, a, b, expected, result =
    run_gemm ~job_patch:patch ~m:6 ~n:9 ~k:4 ~alpha:1.0 ~beta:0.0 ~seed:33 ()
  in
  (match result with Error e -> Alcotest.failf "job rejected: %s" e | Ok _ -> ());
  check_gemm_close ~what:"pin-B gemm" ~k:4 ~a ~b ~expected sys

let test_engine_gemv () =
  let patch j = { j with Context_regs.op = Context_regs.Gemv } in
  let sys, a, b, expected, result =
    run_gemm ~job_patch:patch ~m:12 ~n:1 ~k:9 ~alpha:1.0 ~beta:0.0 ~seed:34 ()
  in
  (match result with Error e -> Alcotest.failf "job rejected: %s" e | Ok _ -> ());
  check_gemm_close ~what:"gemv" ~k:9 ~a ~b ~expected sys;
  let c = Micro_engine.counters (Accel.engine sys.accel) in
  Alcotest.(check int) "counted as gemv" 1 c.Micro_engine.gemv_jobs

let test_engine_transposes () =
  (* trans_a: physical A is k x m; trans_b: physical B is n x k. *)
  let sys = make_system () in
  let g = Prng.create ~seed:35 in
  let m = 5 and n = 4 and k = 6 in
  let a_phys = Mat.random g ~rows:k ~cols:m ~lo:(-1.0) ~hi:1.0 in
  let b_phys = Mat.random g ~rows:n ~cols:k ~lo:(-1.0) ~hi:1.0 in
  write_matrix sys.memory ~addr:a_addr ~ld:m a_phys;
  write_matrix sys.memory ~addr:b_addr ~ld:k b_phys;
  let job =
    {
      (base_job ~m ~n ~k) with
      Context_regs.trans_a = true;
      trans_b = true;
      lda = m;
      ldb = k;
    }
  in
  (match Micro_engine.run_job (Accel.engine sys.accel) job ~start:0 with
  | Error e -> Alcotest.failf "job rejected: %s" e
  | Ok _ -> ());
  let a = Mat.transpose a_phys and b = Mat.transpose b_phys in
  let expected = Mat.create ~rows:m ~cols:n in
  Blas_ref.gemm ~alpha:1.0 ~beta:0.0 ~a ~b ~c:expected ();
  check_gemm_close ~what:"transposed gemm" ~k ~a ~b ~expected sys

let test_engine_pinned_reuse () =
  let sys, a, b, expected, _ = run_gemm ~m:8 ~n:6 ~k:7 ~alpha:1.0 ~beta:0.0 ~seed:36 () in
  let engine = Accel.engine sys.accel in
  let writes_after_first =
    (Tdo_pcm.Crossbar.counters (Micro_engine.crossbar engine)).Tdo_pcm.Crossbar.logical_writes
  in
  let job = base_job ~m:8 ~n:6 ~k:7 in
  (match Micro_engine.run_job engine job ~start:1_000_000 with
  | Error e -> Alcotest.failf "second job rejected: %s" e
  | Ok _ -> ());
  let counters = Micro_engine.counters engine in
  Alcotest.(check int) "second job skipped programming" 1
    counters.Micro_engine.programming_skipped;
  let writes_after_second =
    (Tdo_pcm.Crossbar.counters (Micro_engine.crossbar engine)).Tdo_pcm.Crossbar.logical_writes
  in
  Alcotest.(check int) "no extra crossbar writes" writes_after_first writes_after_second;
  check_gemm_close ~what:"reused-pin gemm" ~k:7 ~a ~b ~expected sys

let test_engine_generation_forces_reprogram () =
  let sys, _, _, _, _ = run_gemm ~m:8 ~n:6 ~k:7 ~alpha:1.0 ~beta:0.0 ~seed:37 () in
  let engine = Accel.engine sys.accel in
  let job = { (base_job ~m:8 ~n:6 ~k:7) with Context_regs.generation = 1 } in
  (match Micro_engine.run_job engine job ~start:1_000_000 with
  | Error e -> Alcotest.failf "job rejected: %s" e
  | Ok _ -> ());
  Alcotest.(check int) "stale generation reprograms" 0
    (Micro_engine.counters engine).Micro_engine.programming_skipped

let test_engine_oversize_rejected () =
  let sys = make_system () in
  let job = base_job ~m:8 ~n:6 ~k:64 in
  (* k = 64 > 32 crossbar rows *)
  match Micro_engine.run_job (Accel.engine sys.accel) job ~start:0 with
  | Ok _ -> Alcotest.fail "oversized operand must be rejected"
  | Error reason ->
      Alcotest.(check string) "reason" "operand 64x8 exceeds the 32x32 crossbar" reason

let test_engine_double_buffering_faster () =
  let finish double_buffering =
    let engine_config =
      { Micro_engine.default_config with Micro_engine.xbar = small_xbar; double_buffering }
    in
    let sys = make_system ~engine_config () in
    let g = Prng.create ~seed:38 in
    let a = Mat.random g ~rows:16 ~cols:16 ~lo:(-1.0) ~hi:1.0 in
    let b = Mat.random g ~rows:16 ~cols:16 ~lo:(-1.0) ~hi:1.0 in
    write_matrix sys.memory ~addr:a_addr ~ld:16 a;
    write_matrix sys.memory ~addr:b_addr ~ld:16 b;
    match
      Micro_engine.run_job (Accel.engine sys.accel) (base_job ~m:16 ~n:16 ~k:16) ~start:0
    with
    | Error e -> Alcotest.failf "job rejected: %s" e
    | Ok finish -> finish
  in
  Alcotest.(check bool) "double buffering hides fill latency" true (finish true < finish false)

let test_engine_batched_shares_pinned () =
  let sys = make_system () in
  let g = Prng.create ~seed:39 in
  let m = 8 and n = 6 and k = 7 in
  let a = Mat.random g ~rows:m ~cols:k ~lo:(-1.0) ~hi:1.0 in
  let b1 = Mat.random g ~rows:k ~cols:n ~lo:(-1.0) ~hi:1.0 in
  let b2 = Mat.random g ~rows:k ~cols:n ~lo:(-1.0) ~hi:1.0 in
  let b2_addr = b_addr + 0x1000 and c2_addr = c_addr + 0x1000 in
  write_matrix sys.memory ~addr:a_addr ~ld:k a;
  write_matrix sys.memory ~addr:b_addr ~ld:n b1;
  write_matrix sys.memory ~addr:b2_addr ~ld:n b2;
  (* descriptor table: (a, b, c) per batch entry *)
  let write_desc i (a, b, c) =
    Sim.Memory.write_i32 sys.memory (desc_addr + (12 * i)) (Int32.of_int a);
    Sim.Memory.write_i32 sys.memory (desc_addr + (12 * i) + 4) (Int32.of_int b);
    Sim.Memory.write_i32 sys.memory (desc_addr + (12 * i) + 8) (Int32.of_int c)
  in
  write_desc 0 (a_addr, b_addr, c_addr);
  write_desc 1 (a_addr, b2_addr, c2_addr);
  let job =
    {
      (base_job ~m ~n ~k) with
      Context_regs.op = Context_regs.Gemm_batched;
      batch_count = 2;
      batch_desc_addr = desc_addr;
    }
  in
  let engine = Accel.engine sys.accel in
  (match Micro_engine.run_job engine job ~start:0 with
  | Error e -> Alcotest.failf "batched job rejected: %s" e
  | Ok _ -> ());
  (* shared A: programmed once, reused once *)
  Alcotest.(check int) "second batch entry reused the pin" 1
    (Micro_engine.counters engine).Micro_engine.programming_skipped;
  Alcotest.(check int) "crossbar written once" (m * k)
    (Tdo_pcm.Crossbar.counters (Micro_engine.crossbar engine)).Tdo_pcm.Crossbar.logical_writes;
  let tol = gemm_tolerance ~k ~a ~b:b1 in
  let expected1 = Mat.create ~rows:m ~cols:n in
  Blas_ref.gemm ~alpha:1.0 ~beta:0.0 ~a ~b:b1 ~c:expected1 ();
  let actual1 = read_matrix sys.memory ~addr:c_addr ~ld:n ~rows:m ~cols:n in
  Alcotest.(check bool) "batch 0 result" true (Mat.max_abs_diff expected1 actual1 <= tol);
  let expected2 = Mat.create ~rows:m ~cols:n in
  Blas_ref.gemm ~alpha:1.0 ~beta:0.0 ~a ~b:b2 ~c:expected2 ();
  let actual2 = read_matrix sys.memory ~addr:c2_addr ~ld:n ~rows:m ~cols:n in
  Alcotest.(check bool) "batch 1 result" true (Mat.max_abs_diff expected2 actual2 <= tol)

let test_engine_timeline_phases () =
  let sys = make_system () in
  let timeline = Micro_engine.record_timeline (Accel.engine sys.accel) in
  let _ = run_gemm ~sys ~m:4 ~n:3 ~k:4 ~alpha:1.0 ~beta:0.0 ~seed:40 () in
  let events = Timeline.events timeline in
  let phases = List.map (fun e -> e.Timeline.phase) events in
  Alcotest.(check bool) "starts with trigger" true (List.hd phases = Timeline.Trigger);
  Alcotest.(check bool) "ends result-ready" true
    (List.nth phases (List.length phases - 1) = Timeline.Result_ready);
  let has p = List.mem p phases in
  Alcotest.(check bool) "has fill" true (has Timeline.Dma_fill);
  Alcotest.(check bool) "has program" true (has Timeline.Program_crossbar);
  Alcotest.(check bool) "has compute" true (has Timeline.Compute);
  Alcotest.(check bool) "has accumulate" true (has Timeline.Accumulate);
  Alcotest.(check bool) "has store" true (has Timeline.Store_result);
  (* result-ready time must not precede any other event *)
  let last = List.nth events (List.length events - 1) in
  List.iter
    (fun e -> Alcotest.(check bool) "monotone finish" true (e.Timeline.at <= last.Timeline.at))
    events;
  (* the details, and the text Fig. 2(d) prints for them *)
  let details = List.map (fun e -> e.Timeline.detail) events in
  Alcotest.(check (list string)) "launch details"
    [ "job op=1 m=4 n=3 k=4"; "pinned operand 4x4"; "tile 0, 4 rows"; "vector 0"; "gemv 0" ]
    (List.filteri (fun i _ -> i < 5) (List.map Timeline.detail_to_string details));
  Alcotest.(check bool) "per-vector epilogue and slice" true
    (List.mem (Timeline.Epilogue 2) details && List.mem (Timeline.Slice 2) details);
  Alcotest.(check bool) "completion" true (last.Timeline.detail = Timeline.Status_done);
  Alcotest.(check string) "completion text" "status <- done"
    (Timeline.detail_to_string last.Timeline.detail)

(* An engine records only into a log the caller attached: a log
   attached after one job starts empty and holds exactly the next
   job's events, from its trigger to its completion, and attaching
   again starts a new log without touching the old one. *)
let test_engine_timeline_attach () =
  let sys = make_system () in
  let engine = Accel.engine sys.accel in
  let finish1 =
    match run_gemm ~sys ~m:4 ~n:3 ~k:4 ~alpha:1.0 ~beta:0.0 ~seed:45 () with
    | _, _, _, _, Ok finish -> finish
    | _, _, _, _, Error e -> Alcotest.failf "first job rejected: %s" e
  in
  let run start =
    match Micro_engine.run_job engine (base_job ~m:5 ~n:2 ~k:3) ~start with
    | Ok finish -> finish
    | Error e -> Alcotest.failf "job rejected: %s" e
  in
  let log2 = Micro_engine.record_timeline engine in
  Alcotest.(check int) "nothing from before the attach" 0 (List.length (Timeline.events log2));
  let finish2 = run finish1 in
  let per_vector = Timeline.[ Dma_fill; Compute; Accumulate; Store_result ] in
  let check_job what log ~from ~until ~programs =
    let events = Timeline.events log in
    Alcotest.(check (list string))
      (what ^ ": its phases, in order")
      (List.map Timeline.phase_to_string
         ((Timeline.Trigger :: (if programs then Timeline.[ Dma_fill; Program_crossbar ] else []))
         @ per_vector @ per_vector @ [ Timeline.Result_ready ]))
      (List.map (fun e -> Timeline.phase_to_string e.Timeline.phase) events);
    let first = List.hd events and last = List.nth events (List.length events - 1) in
    Alcotest.(check bool)
      (what ^ ": triggered by this job") true
      (first.Timeline.detail = Timeline.Job { op = 1; m = 5; n = 2; k = 3 });
    Alcotest.(check int) (what ^ ": trigger time") from first.Timeline.at;
    Alcotest.(check int) (what ^ ": completion time") until last.Timeline.at
  in
  check_job "second job" log2 ~from:finish1 ~until:finish2 ~programs:true;
  let log3 = Micro_engine.record_timeline engine in
  let finish3 = run finish2 in
  (* the same operand is still pinned, so the third job programs nothing *)
  check_job "third job" log3 ~from:finish2 ~until:finish3 ~programs:false;
  check_job "second log after the replacement" log2 ~from:finish1 ~until:finish2 ~programs:true

let qcheck_engine_matches_reference =
  QCheck.Test.make ~name:"engine gemm tracks float reference within quantisation bound"
    ~count:25 QCheck.small_int (fun seed ->
      let g = Prng.create ~seed:(seed + 1000) in
      let m = 1 + Prng.int g ~bound:12
      and n = 1 + Prng.int g ~bound:12
      and k = 1 + Prng.int g ~bound:12 in
      let pin = if Prng.bool g then Context_regs.Pin_a else Context_regs.Pin_b in
      let patch j = { j with Context_regs.pin } in
      let sys, a, b, expected, result =
        run_gemm ~job_patch:patch ~m ~n ~k ~alpha:1.0 ~beta:0.0 ~seed:(seed + 2000) ()
      in
      match result with
      | Error _ -> false
      | Ok _ ->
          let actual = read_matrix sys.memory ~addr:c_addr ~ld:n ~rows:m ~cols:n in
          Mat.max_abs_diff expected actual <= gemm_tolerance ~k ~a ~b)

(* ---------- blocked launches ---------- *)

(* One random launch, set up identically on two fresh systems: one runs
   it with [run_job], which streams a launch as one block when its
   windows allow, the other with [run_job_per_vector], one vector per
   block. Each runs the job twice (the second time with the pinned
   operand latched and beta flipped), and the two must agree on C's
   bytes, every finish time (or the exception), the engine, crossbar,
   ADC and digital-logic counters, the armed flips left, the ABFT fault
   and the Timeline log. The draws cover both pins and transposes,
   conv's k = 9 with one output, leading dimensions above the shape,
   beta zero and not, noise, armed column flips and drift, ABFT, an
   attached log, batched jobs over 1-4 tiles, and the launches that
   must not run as one block: C over the streamed operand, C slices
   that overlap (ldc < n) and a C window past the end of memory. *)
let blocked_launch_state ~seed ~per_vector =
  let g = Prng.create ~seed in
  let chance p = Prng.int g ~bound:p = 0 in
  let noise = if Prng.bool g then Some 2.0 else None in
  let engine_config =
    {
      Micro_engine.default_config with
      Micro_engine.xbar = { small_xbar with Tdo_pcm.Crossbar.noise_sigma = noise };
      tiles = 1 + Prng.int g ~bound:4;
      abft = Prng.bool g;
      double_buffering = Prng.bool g;
    }
  in
  let conv = chance 4 in
  let m = if conv then 1 + Prng.int g ~bound:300 else 1 + Prng.int g ~bound:24
  and n = if conv then 1 else 1 + Prng.int g ~bound:24
  and k = if conv then 9 else 1 + Prng.int g ~bound:24 in
  let pin = if conv || Prng.bool g then Context_regs.Pin_b else Context_regs.Pin_a in
  let trans_a = (not conv) && Prng.bool g and trans_b = (not conv) && Prng.bool g in
  let lda = (if trans_a then m else k) + Prng.int g ~bound:4
  and ldb = (if trans_b then k else n) + Prng.int g ~bound:4 in
  let ldc = if n > 1 && chance 8 then 1 + Prng.int g ~bound:(n - 1) else n + Prng.int g ~bound:4 in
  let a_rows = if trans_a then k else m and b_rows = if trans_b then n else k in
  let bytes rows ld = 4 * rows * ld in
  (* a batch has up to three entries, each with its own operands; two
     entries may share the pinned operand *)
  let batch = if chance 4 then 2 + Prng.int g ~bound:2 else 1 in
  let region = ref 0x1000 in
  let alloc size =
    let at = !region in
    region := at + ((size + 255) / 256 * 256);
    at
  in
  let entries =
    List.init batch (fun _ ->
        let a = alloc (bytes a_rows lda) in
        let b = alloc (bytes b_rows ldb) in
        let c = alloc (bytes m ldc) in
        (a, b, c))
  in
  let entries =
    match entries with
    | ((a0, b0, _) as e0) :: (_, _, c1) :: rest when Prng.bool g -> e0 :: (a0, b0, c1) :: rest
    | _ -> entries
  in
  let top = !region in
  let memory_bytes = (Sim.Memory.default_config).Sim.Memory.size_bytes in
  (* C over the streamed operand, or C running off the end of memory *)
  let entries =
    List.map
      (fun (a, b, c) ->
        let streamed = match pin with Context_regs.Pin_a -> b | Context_regs.Pin_b -> a in
        if chance 8 then (a, b, streamed + (4 * Prng.int g ~bound:8))
        else if chance 12 then (a, b, memory_bytes - (4 * ((m * ldc / 2) + 1)))
        else (a, b, c))
      entries
  in
  let sys = make_system ~engine_config () in
  let random_fill addr size =
    for i = 0 to (size / 4) - 1 do
      Sim.Memory.write_f32 sys.memory (addr + (4 * i)) (Prng.float_range g ~lo:(-1.0) ~hi:1.0)
    done
  in
  random_fill 0x1000 (top - 0x1000);
  List.iter
    (fun (_, _, c) ->
      if c + bytes m ldc > top then
        random_fill c (Int.min (bytes m ldc) (memory_bytes - c) / 4 * 4))
    entries;
  (* zero vectors quantise with scale 1 *)
  (if chance 6 then
     let a, b, _ = List.hd entries in
     match pin with
     | Context_regs.Pin_a -> Sim.Memory.write_bytes sys.memory b (Bytes.make (bytes b_rows ldb) '\000')
     | Context_regs.Pin_b -> Sim.Memory.write_bytes sys.memory a (Bytes.make (bytes a_rows lda) '\000'));
  let engine = Accel.engine sys.accel in
  Array.iter
    (fun xb ->
      if chance 3 then Tdo_pcm.Crossbar.set_drift xb ~offset:(Prng.int g ~bound:7 - 3);
      for _ = 1 to Prng.int g ~bound:3 do
        Tdo_pcm.Crossbar.arm_column_flip xb ~col:(Prng.int g ~bound:32)
          ~bit:(Prng.int g ~bound:12) ~ops:(1 + Prng.int g ~bound:6)
      done)
    (Micro_engine.crossbars engine);
  let log = if Prng.bool g then Some (Micro_engine.record_timeline engine) else None in
  let a0, b0, c0 = List.hd entries in
  let job =
    {
      (base_job ~m ~n ~k) with
      Context_regs.op = (if batch > 1 then Context_regs.Gemm_batched else Context_regs.Gemm);
      trans_a;
      trans_b;
      lda;
      ldb;
      ldc;
      alpha = Prng.float_range g ~lo:(-2.0) ~hi:2.0;
      beta = (if Prng.bool g then 0.0 else Prng.float_range g ~lo:(-1.0) ~hi:1.0);
      a_addr = a0;
      b_addr = b0;
      c_addr = c0;
      pin;
      batch_count = (if batch > 1 then batch else 0);
      batch_desc_addr = desc_addr + 0x100000;
    }
  in
  List.iteri
    (fun i (a, b, c) ->
      List.iteri
        (fun j v ->
          Sim.Memory.write_i32 sys.memory (job.Context_regs.batch_desc_addr + (12 * i) + (4 * j))
            (Int32.of_int v))
        [ a; b; c ])
    entries;
  let run job start =
    let run = if per_vector then Micro_engine.run_job_per_vector else Micro_engine.run_job in
    match run engine job ~start with
    | Ok finish -> Printf.sprintf "finish %d" finish
    | Error e -> "error " ^ e
    | exception Invalid_argument e -> "raised " ^ e
  in
  let first = run job 0 in
  let second =
    run { job with Context_regs.beta = (if job.Context_regs.beta = 0.0 then 0.5 else 0.0) } 50_000_000
  in
  let c_bytes =
    List.map
      (fun (_, _, c) ->
        let len = Int.min (bytes m ldc + 64) (memory_bytes - c) in
        Digest.to_hex (Digest.bytes (Sim.Memory.read_bytes sys.memory c len)))
      entries
  in
  let tiles = Micro_engine.crossbars engine in
  ( ( first,
      second,
      Digest.to_hex (Digest.bytes (Sim.Memory.read_bytes sys.memory 0x1000 (top - 0x1000))),
      c_bytes ),
    ( Micro_engine.counters engine,
      Array.map Tdo_pcm.Crossbar.counters tiles,
      Array.map
        (fun xb ->
          let adc = Tdo_pcm.Crossbar.adc xb in
          ( Tdo_pcm.Adc.samples adc,
            Tdo_pcm.Adc.conversions adc,
            Tdo_pcm.Crossbar.flips_remaining xb,
            Tdo_pcm.Crossbar.wear_total xb ))
        tiles,
      Digital_logic.counters (Micro_engine.digital engine),
      Micro_engine.last_abft_fault engine ),
    Option.map Timeline.events log )

let qcheck_blocked_equals_per_vector =
  QCheck.Test.make ~name:"a launch run as one block equals it run one vector per block"
    ~count:500 (QCheck.int_bound 1_000_000) (fun seed ->
      blocked_launch_state ~seed ~per_vector:false = blocked_launch_state ~seed ~per_vector:true)

(* ---------- Accelerator (register-level round trip) ---------- *)

let test_accel_register_roundtrip () =
  let sys = make_system () in
  let mmio = Sim.Mmio.create () in
  Accel.map_registers sys.accel mmio ~base:Accel.default_register_base;
  let g = Prng.create ~seed:41 in
  let m = 8 and n = 6 and k = 7 in
  let a = Mat.random g ~rows:m ~cols:k ~lo:(-1.0) ~hi:1.0 in
  let b = Mat.random g ~rows:k ~cols:n ~lo:(-1.0) ~hi:1.0 in
  write_matrix sys.memory ~addr:a_addr ~ld:k a;
  write_matrix sys.memory ~addr:b_addr ~ld:n b;
  let wr reg v =
    Sim.Mmio.write mmio ~addr:(Accel.default_register_base + (4 * reg)) v
  in
  wr Context_regs.reg_op 1;
  wr Context_regs.reg_m m;
  wr Context_regs.reg_n n;
  wr Context_regs.reg_k k;
  Sim.Mmio.write mmio
    ~addr:(Accel.default_register_base + (4 * Context_regs.reg_alpha))
    (float_word 1.0);
  Sim.Mmio.write mmio
    ~addr:(Accel.default_register_base + (4 * Context_regs.reg_beta))
    (float_word 0.0);
  wr Context_regs.reg_a_addr a_addr;
  wr Context_regs.reg_b_addr b_addr;
  wr Context_regs.reg_c_addr c_addr;
  wr Context_regs.reg_lda k;
  wr Context_regs.reg_ldb n;
  wr Context_regs.reg_ldc n;
  (* the job starts at the host's time when the command is written *)
  let start = 5_000_000 in
  sys.now := start;
  wr Context_regs.reg_command 1;
  let status_reg () =
    Sim.Mmio.read mmio ~addr:(Accel.default_register_base + (4 * Context_regs.reg_status))
  in
  Alcotest.(check int) "busy after trigger" 1 (status_reg ());
  let busy_ps = (Micro_engine.counters (Accel.engine sys.accel)).Micro_engine.busy_ps in
  (* the status does not flip by itself, even once the host is past
     the finish *)
  sys.now := start + busy_ps + 1;
  Alcotest.(check int) "busy until completed" 1 (status_reg ());
  Alcotest.(check (option int)) "completes at start + busy time" (Some (start + busy_ps))
    (Accel.complete sys.accel);
  Alcotest.(check int) "done after completion" 2 (status_reg ());
  Alcotest.(check (option int)) "delivered once" None (Accel.complete sys.accel);
  Alcotest.(check int) "still done" 2 (status_reg ());
  let expected = Mat.create ~rows:m ~cols:n in
  Blas_ref.gemm ~alpha:1.0 ~beta:0.0 ~a ~b ~c:expected ();
  check_gemm_close ~what:"register-driven gemm" ~k ~a ~b ~expected sys

let test_accel_error_reported () =
  let sys = make_system () in
  let mmio = Sim.Mmio.create () in
  Accel.map_registers sys.accel mmio ~base:0x4000 ;
  let wr reg v = Sim.Mmio.write mmio ~addr:(0x4000 + (4 * reg)) v in
  wr Context_regs.reg_op 1;
  wr Context_regs.reg_m 8;
  wr Context_regs.reg_n 8;
  wr Context_regs.reg_k 64;
  (* exceeds the 32x32 crossbar *)
  wr Context_regs.reg_lda 64;
  wr Context_regs.reg_ldb 8;
  wr Context_regs.reg_ldc 8;
  wr Context_regs.reg_command 1;
  Alcotest.(check bool) "error status" true (Accel.status sys.accel = Context_regs.Error);
  Alcotest.(check bool) "reason recorded" true (Accel.last_error sys.accel <> None);
  Alcotest.(check (option int)) "a rejected job never completes" None (Accel.complete sys.accel);
  Alcotest.(check bool) "still the error status" true (Accel.status sys.accel = Context_regs.Error)

let test_accel_complete_without_job () =
  let sys = make_system () in
  Alcotest.(check (option int)) "nothing triggered" None (Accel.complete sys.accel);
  Alcotest.(check bool) "still idle" true (Accel.status sys.accel = Context_regs.Idle)

let suites =
  [
    ( "cimacc.regs",
      [
        Alcotest.test_case "decode roundtrip" `Quick test_regs_decode_roundtrip;
        Alcotest.test_case "trigger & status" `Quick test_regs_trigger_and_status;
        Alcotest.test_case "bad job -> error" `Quick test_regs_bad_job_sets_error;
        Alcotest.test_case "unaligned access" `Quick test_regs_unaligned;
      ] );
    ( "cimacc.digital",
      [
        Alcotest.test_case "postprocess" `Quick test_digital_postprocess;
        Alcotest.test_case "beta needs c_old" `Quick test_digital_beta_needs_c;
      ] );
    ( "cimacc.engine",
      [
        Alcotest.test_case "gemm correct" `Quick test_engine_gemm_correct;
        Alcotest.test_case "alpha/beta epilogue" `Quick test_engine_alpha_beta;
        Alcotest.test_case "pin-B streaming" `Quick test_engine_pin_b;
        Alcotest.test_case "gemv" `Quick test_engine_gemv;
        Alcotest.test_case "transposes" `Quick test_engine_transposes;
        Alcotest.test_case "pinned reuse" `Quick test_engine_pinned_reuse;
        Alcotest.test_case "generation reprogram" `Quick test_engine_generation_forces_reprogram;
        Alcotest.test_case "oversize rejected" `Quick test_engine_oversize_rejected;
        Alcotest.test_case "double buffering" `Quick test_engine_double_buffering_faster;
        Alcotest.test_case "batched shares pin" `Quick test_engine_batched_shares_pinned;
        Alcotest.test_case "timeline phases (Fig 2d)" `Quick test_engine_timeline_phases;
        Alcotest.test_case "timeline records only into an attached log" `Quick
          test_engine_timeline_attach;
        QCheck_alcotest.to_alcotest qcheck_engine_matches_reference;
        QCheck_alcotest.to_alcotest qcheck_blocked_equals_per_vector;
      ] );
    ( "cimacc.accel",
      [
        Alcotest.test_case "register roundtrip" `Quick test_accel_register_roundtrip;
        Alcotest.test_case "error reported" `Quick test_accel_error_reported;
        Alcotest.test_case "complete without a job" `Quick test_accel_complete_without_job;
      ] );
  ]

(* ---------- multi-tile accelerator ---------- *)

let make_tiled_system tiles =
  let engine_config =
    { Micro_engine.default_config with Micro_engine.xbar = small_xbar; tiles }
  in
  make_system ~engine_config ()

let batched_two_matrices sys =
  (* two GEMMs with different A operands: distinct pin groups *)
  let g = Prng.create ~seed:61 in
  let m = 16 and n = 12 and k = 16 in
  let a1 = Mat.random g ~rows:m ~cols:k ~lo:(-1.0) ~hi:1.0 in
  let a2 = Mat.random g ~rows:m ~cols:k ~lo:(-1.0) ~hi:1.0 in
  let b = Mat.random g ~rows:k ~cols:n ~lo:(-1.0) ~hi:1.0 in
  let a2_addr = a_addr + 0x2000 and c2_addr = c_addr + 0x2000 in
  write_matrix sys.memory ~addr:a_addr ~ld:k a1;
  write_matrix sys.memory ~addr:a2_addr ~ld:k a2;
  write_matrix sys.memory ~addr:b_addr ~ld:n b;
  let write_desc i (a, b, c) =
    Sim.Memory.write_i32 sys.memory (desc_addr + (12 * i)) (Int32.of_int a);
    Sim.Memory.write_i32 sys.memory (desc_addr + (12 * i) + 4) (Int32.of_int b);
    Sim.Memory.write_i32 sys.memory (desc_addr + (12 * i) + 8) (Int32.of_int c)
  in
  write_desc 0 (a_addr, b_addr, c_addr);
  write_desc 1 (a2_addr, b_addr, c2_addr);
  let job =
    {
      (base_job ~m ~n ~k) with
      Context_regs.op = Context_regs.Gemm_batched;
      batch_count = 2;
      batch_desc_addr = desc_addr;
    }
  in
  (job, a1, a2, b, c2_addr, m, n, k)

let test_multi_tile_parallel_batch () =
  let finish_with tiles =
    let sys = make_tiled_system tiles in
    let job, a1, a2, b, c2_addr, m, n, k = batched_two_matrices sys in
    match Micro_engine.run_job (Accel.engine sys.accel) job ~start:0 with
    | Error e -> Alcotest.failf "batched job rejected: %s" e
    | Ok finish ->
        (* both results must be correct regardless of tile count *)
        let tol = gemm_tolerance ~k ~a:a1 ~b in
        let expected1 = Mat.create ~rows:m ~cols:n in
        Blas_ref.gemm ~alpha:1.0 ~beta:0.0 ~a:a1 ~b ~c:expected1 ();
        let actual1 = read_matrix sys.memory ~addr:c_addr ~ld:n ~rows:m ~cols:n in
        Alcotest.(check bool) "entry 0 correct" true (Mat.max_abs_diff expected1 actual1 <= tol);
        let expected2 = Mat.create ~rows:m ~cols:n in
        Blas_ref.gemm ~alpha:1.0 ~beta:0.0 ~a:a2 ~b ~c:expected2 ();
        let actual2 = read_matrix sys.memory ~addr:c2_addr ~ld:n ~rows:m ~cols:n in
        Alcotest.(check bool) "entry 1 correct" true (Mat.max_abs_diff expected2 actual2 <= tol);
        finish
  in
  let one = finish_with 1 and two = finish_with 2 in
  Alcotest.(check bool) "two tiles run the batch in parallel" true (two < one)

let test_multi_tile_wear_distributed () =
  let sys = make_tiled_system 2 in
  let job, _, _, _, _, m, _, k = batched_two_matrices sys in
  (match Micro_engine.run_job (Accel.engine sys.accel) job ~start:0 with
  | Error e -> Alcotest.failf "batched job rejected: %s" e
  | Ok _ -> ());
  let engine = Accel.engine sys.accel in
  let tiles = Micro_engine.crossbars engine in
  Alcotest.(check int) "two tiles" 2 (Array.length tiles);
  Array.iter
    (fun xb ->
      Alcotest.(check int) "each tile programmed one operand" (m * k)
        (Tdo_pcm.Crossbar.counters xb).Tdo_pcm.Crossbar.logical_writes)
    tiles;
  Alcotest.(check int) "totals aggregate over tiles" (2 * m * k)
    (Micro_engine.total_crossbar_counters engine).Tdo_pcm.Crossbar.logical_writes

let test_multi_tile_affinity_across_jobs () =
  (* A then B then A again: with two tiles the third job must find A
     still resident on its tile *)
  let sys = make_tiled_system 2 in
  let g = Prng.create ~seed:62 in
  let m = 8 and n = 6 and k = 8 in
  let a1 = Mat.random g ~rows:m ~cols:k ~lo:(-1.0) ~hi:1.0 in
  let a2 = Mat.random g ~rows:m ~cols:k ~lo:(-1.0) ~hi:1.0 in
  let b = Mat.random g ~rows:k ~cols:n ~lo:(-1.0) ~hi:1.0 in
  let a2_addr = a_addr + 0x2000 in
  write_matrix sys.memory ~addr:a_addr ~ld:k a1;
  write_matrix sys.memory ~addr:a2_addr ~ld:k a2;
  write_matrix sys.memory ~addr:b_addr ~ld:n b;
  let engine = Accel.engine sys.accel in
  let run ?(a = a_addr) start =
    match
      Micro_engine.run_job engine { (base_job ~m ~n ~k) with Context_regs.a_addr = a } ~start
    with
    | Error e -> Alcotest.failf "job rejected: %s" e
    | Ok finish -> finish
  in
  let t1 = run 0 in
  let t2 = run ~a:a2_addr t1 in
  let _ = run (t2 + 1) in
  Alcotest.(check int) "third job reused a resident tile" 1
    (Micro_engine.counters engine).Micro_engine.programming_skipped

let test_timeline_gantt () =
  let sys = make_system () in
  let timeline = Micro_engine.record_timeline (Accel.engine sys.accel) in
  let _ = run_gemm ~sys ~m:4 ~n:3 ~k:4 ~alpha:1.0 ~beta:0.0 ~seed:44 () in
  let events = Timeline.events timeline in
  let gantt = Timeline.render_gantt events in
  Alcotest.(check bool) "renders something" true (String.length gantt > 0);
  let lines = String.split_on_char '\n' gantt in
  Alcotest.(check bool) "one lane per active phase + footer" true (List.length lines >= 6);
  List.iter
    (fun line ->
      Alcotest.(check bool) "bounded width" true (String.length line <= 16 + 1 + 72 + 1))
    lines;
  Alcotest.(check string) "empty events render empty" "" (Timeline.render_gantt [])

let multi_tile_suite =
  ( "cimacc.multi_tile",
    [
      Alcotest.test_case "parallel batch" `Quick test_multi_tile_parallel_batch;
      Alcotest.test_case "wear distributed" `Quick test_multi_tile_wear_distributed;
      Alcotest.test_case "pin affinity across jobs" `Quick test_multi_tile_affinity_across_jobs;
      Alcotest.test_case "gantt rendering" `Quick test_timeline_gantt;
    ] )

(* ---------- double-buffering accounting ---------- *)

(* Run the same GEMM with and without double buffering on otherwise
   identical systems; returns the two finish times plus both systems
   for functional comparison. *)
let run_db_pair ~m ~n ~k ~seed =
  let mk db =
    let engine_config =
      { Micro_engine.default_config with Micro_engine.xbar = small_xbar; double_buffering = db }
    in
    let sys = make_system ~engine_config () in
    let g = Prng.create ~seed in
    let a = Mat.random g ~rows:m ~cols:k ~lo:(-1.0) ~hi:1.0 in
    let b = Mat.random g ~rows:k ~cols:n ~lo:(-1.0) ~hi:1.0 in
    write_matrix sys.memory ~addr:a_addr ~ld:k a;
    write_matrix sys.memory ~addr:b_addr ~ld:n b;
    let job = { (base_job ~m ~n ~k) with Context_regs.beta = 0.0 } in
    match Micro_engine.run_job (Accel.engine sys.accel) job ~start:0 with
    | Error e -> Alcotest.failf "job rejected: %s" e
    | Ok finish -> (sys, finish)
  in
  let sys_db, t_db = mk true in
  let sys_nodb, t_nodb = mk false in
  (sys_db, t_db, sys_nodb, t_nodb)

let test_double_buffering_no_undercharge () =
  let m = 12 and n = 10 and k = 12 in
  let sys_db, t_db, sys_nodb, t_nodb = run_db_pair ~m ~n ~k ~seed:91 in
  (* overlap changes timing only, never results *)
  let read sys = read_matrix sys.memory ~addr:c_addr ~ld:n ~rows:m ~cols:n in
  Alcotest.(check (float 0.0)) "identical results either way" 0.0
    (Mat.max_abs_diff (read sys_db) (read sys_nodb));
  Alcotest.(check bool) "overlap can only help" true (t_db <= t_nodb);
  (* the compute channel can never be hidden: decode, programming the k
     wordlines, then per streamed vector an analog GEMV plus the m-long
     digital epilogue. Double buffering overlaps DMA fills with compute
     but must still charge all of this serially. *)
  let cfg = Micro_engine.default_config in
  let gemv =
    max cfg.Micro_engine.min_compute_latency_ps
      (cfg.Micro_engine.compute_latency_ps * k / small_xbar.Tdo_pcm.Crossbar.rows)
  in
  let lower_bound =
    cfg.Micro_engine.decode_latency_ps
    + (k * cfg.Micro_engine.write_latency_per_row_ps)
    + (n * (gemv + (m * cfg.Micro_engine.alu_latency_ps)))
  in
  Alcotest.(check bool) "never undercharges the compute channel" true (t_db >= lower_bound);
  (* both runs streamed the same work *)
  let streams sys = (Micro_engine.counters (Accel.engine sys.accel)).Micro_engine.streamed_vectors in
  Alcotest.(check int) "same streamed vectors" (streams sys_nodb) (streams sys_db);
  Alcotest.(check int) "one vector per output column" n (streams sys_db)

let test_double_buffering_busy_accounting () =
  let m = 8 and n = 6 and k = 8 in
  let sys_db, t_db, sys_nodb, t_nodb = run_db_pair ~m ~n ~k ~seed:17 in
  (* busy time is wall time for a single job started at 0 — overlap must
     not double-count the hidden fills into engine occupancy *)
  let busy sys = (Micro_engine.counters (Accel.engine sys.accel)).Micro_engine.busy_ps in
  Alcotest.(check int) "db busy = finish" t_db (busy sys_db);
  Alcotest.(check int) "serial busy = finish" t_nodb (busy sys_nodb)

let double_buffering_suite =
  ( "cimacc.double_buffering",
    [
      Alcotest.test_case "overlap never undercharges" `Quick test_double_buffering_no_undercharge;
      Alcotest.test_case "busy-time accounting" `Quick test_double_buffering_busy_accounting;
    ] )

let suites = suites @ [ multi_tile_suite; double_buffering_suite ]

(* ---------- pinned launch numbers ---------- *)

(* Launches over every (pin, trans_a, trans_b) orientation, with
   leading dimensions wider than the operands, so that the engine's
   fetches and stores take both the unit-stride and the strided path.
   Each orientation runs a fresh launch with beta <> 0 (C is read in),
   then the same operands again with beta = 0 (the pin is reused), on
   an ideal and on a noisy crossbar. The rows hold the values recorded
   before the engine moved unit-stride vectors in bulk and the
   crossbar packed both planes' levels into one column-major array. *)
let pinned_launch_rows =
  [
    "pinA/ta=false/tb=false/ideal finish=18034889,19877454 eng=2,14,1,19876454 xbar=60,14,420,84,280 adc=140/140 wear=60/1 out=c31858f430aec989a34540fd859bfa47";
    "pinA/ta=false/tb=true/ideal finish=17238299,19109664 eng=2,14,1,19108664 xbar=60,14,420,84,280 adc=140/140 wear=60/1 out=f2f18c716658fc4b8264af5cdfa6973a";
    "pinA/ta=true/tb=false/ideal finish=18034889,19877454 eng=2,14,1,19876454 xbar=60,14,420,84,280 adc=140/140 wear=60/1 out=dd62fed2d022b8cf3479843c371a81a3";
    "pinA/ta=true/tb=true/ideal finish=17238299,19109664 eng=2,14,1,19108664 xbar=60,14,420,84,280 adc=140/140 wear=60/1 out=579442583fbcd1adbecbd5f0386c2c66";
    "pinB/ta=false/tb=false/ideal finish=16874009,18361912 eng=2,10,1,18360912 xbar=84,10,420,60,280 adc=140/140 wear=84/1 out=557554054f00db7df1b6b4f2a6d2ba50";
    "pinB/ta=false/tb=true/ideal finish=16874009,18361912 eng=2,10,1,18360912 xbar=84,10,420,60,280 adc=140/140 wear=84/1 out=af0097647c7ff10790451b4458086406";
    "pinB/ta=true/tb=false/ideal finish=17400021,18868724 eng=2,10,1,18867724 xbar=84,10,420,60,280 adc=140/140 wear=84/1 out=dd932af8962af49af57e570b207c722b";
    "pinB/ta=true/tb=true/ideal finish=17400021,18868724 eng=2,10,1,18867724 xbar=84,10,420,60,280 adc=140/140 wear=84/1 out=20324bebbceb3c5f2c20783abacec4d1";
    "pinA/ta=false/tb=false/noisy finish=18034889,19877454 eng=2,14,1,19876454 xbar=60,14,420,84,280 adc=140/140 wear=60/1 out=6c206a812910446abc17d445646a4fe4";
    "pinA/ta=false/tb=true/noisy finish=17238299,19109664 eng=2,14,1,19108664 xbar=60,14,420,84,280 adc=140/140 wear=60/1 out=71b22900980c4d67a71cbcea09000f62";
    "pinA/ta=true/tb=false/noisy finish=18034889,19877454 eng=2,14,1,19876454 xbar=60,14,420,84,280 adc=140/140 wear=60/1 out=2d0de84f309859e827121e9f748525c6";
    "pinA/ta=true/tb=true/noisy finish=17238299,19109664 eng=2,14,1,19108664 xbar=60,14,420,84,280 adc=140/140 wear=60/1 out=b7a8a3c04ecaaecc0d05b4f485d8534f";
    "pinB/ta=false/tb=false/noisy finish=16874009,18361912 eng=2,10,1,18360912 xbar=84,10,420,60,280 adc=140/140 wear=84/1 out=ac35cbd1d405149546134cad060fb24d";
    "pinB/ta=false/tb=true/noisy finish=16874009,18361912 eng=2,10,1,18360912 xbar=84,10,420,60,280 adc=140/140 wear=84/1 out=ffda09cf9edcb1fdaa1814bf2b663909";
    "pinB/ta=true/tb=false/noisy finish=17400021,18868724 eng=2,10,1,18867724 xbar=84,10,420,60,280 adc=140/140 wear=84/1 out=6b45f0d75c0fac519986c57318ecedb9";
    "pinB/ta=true/tb=true/noisy finish=17400021,18868724 eng=2,10,1,18867724 xbar=84,10,420,60,280 adc=140/140 wear=84/1 out=bd11136d12156fabcbe0da4195dd5e0a";
  ]

(* One orientation's row: finish times, DMA bytes read/written and
   descriptors, engine jobs/streamed vectors/skipped programmings/busy
   time, crossbar cell writes/GEMVs/MACs/buffer bytes, ADC
   samples/conversions, wear total and peak, and a digest of C's bits,
   padding columns included. *)
let launch_row ~pin ~trans_a ~trans_b ~noise =
  let xbar = { small_xbar with Tdo_pcm.Crossbar.noise_sigma = noise } in
  let sys = make_system ~engine_config:{ Micro_engine.default_config with Micro_engine.xbar } () in
  let m = 5 and n = 7 and k = 6 in
  let lda = (if trans_a then m else k) + 3 and ldb = (if trans_b then k else n) + 2 in
  let ldc = n + 1 in
  let g = Prng.create ~seed:(41 + Bool.to_int trans_a + (2 * Bool.to_int trans_b)) in
  let phys ~trans rows cols =
    if trans then Mat.random g ~rows:cols ~cols:rows ~lo:(-1.0) ~hi:1.0
    else Mat.random g ~rows ~cols ~lo:(-1.0) ~hi:1.0
  in
  let a = phys ~trans:trans_a m k in
  let b = phys ~trans:trans_b k n in
  let c0 = Mat.random g ~rows:m ~cols:n ~lo:(-1.0) ~hi:1.0 in
  write_matrix sys.memory ~addr:a_addr ~ld:lda a;
  write_matrix sys.memory ~addr:b_addr ~ld:ldb b;
  write_matrix sys.memory ~addr:c_addr ~ld:ldc c0;
  let engine = Accel.engine sys.accel in
  let job =
    { (base_job ~m ~n ~k) with
      Context_regs.trans_a; trans_b; lda; ldb; ldc; alpha = 1.25; beta = 0.5;
      pin = (if pin then Context_regs.Pin_a else Context_regs.Pin_b) }
  in
  let run job start =
    match Micro_engine.run_job engine job ~start with
    | Ok finish -> finish
    | Error e -> Alcotest.failf "job rejected: %s" e
  in
  let first = run job 0 in
  let second = run { job with Context_regs.beta = 0.0 } (first + 1_000) in
  let xb = Micro_engine.crossbar engine in
  let e = Micro_engine.counters engine and x = Tdo_pcm.Crossbar.counters xb in
  let adc = Tdo_pcm.Crossbar.adc xb in
  let out = read_matrix sys.memory ~addr:c_addr ~ld:ldc ~rows:m ~cols:ldc in
  Printf.sprintf
    "pin%s/ta=%b/tb=%b/%s finish=%d,%d eng=%d,%d,%d,%d \
     xbar=%d,%d,%d,%d,%d adc=%d/%d wear=%d/%d out=%s"
    (if pin then "A" else "B")
    trans_a trans_b
    (if noise = None then "ideal" else "noisy")
    first second
    e.Micro_engine.jobs e.Micro_engine.streamed_vectors e.Micro_engine.programming_skipped
    e.Micro_engine.busy_ps x.Tdo_pcm.Crossbar.cell_writes x.Tdo_pcm.Crossbar.gemv_ops
    x.Tdo_pcm.Crossbar.macs x.Tdo_pcm.Crossbar.input_buffer_bytes
    x.Tdo_pcm.Crossbar.output_buffer_bytes (Tdo_pcm.Adc.samples adc)
    (Tdo_pcm.Adc.conversions adc) (Tdo_pcm.Crossbar.wear_total xb)
    (Tdo_pcm.Crossbar.wear_max xb)
    (Digest.to_hex
       (Digest.string
          (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") (Mat.data out))))))

let launch_rows () =
  List.concat_map
    (fun noise ->
      List.concat_map
        (fun pin ->
          List.concat_map
            (fun trans_a ->
              List.map (fun trans_b -> launch_row ~pin ~trans_a ~trans_b ~noise) [ false; true ])
            [ false; true ])
        [ true; false ])
    [ None; Some 2.0 ]

let test_pinned_launches () =
  List.iter2
    (fun expected got -> Alcotest.(check string) "pinned launch numbers" expected got)
    pinned_launch_rows (launch_rows ())

let pinned_launch_suite =
  ( "cimacc.pinned_launches",
    [ Alcotest.test_case "every orientation, ideal and noisy" `Quick test_pinned_launches ] )

let suites = suites @ [ pinned_launch_suite ]
