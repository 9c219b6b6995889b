open Tdo_runtime
module Sim = Tdo_sim
module Mat = Tdo_linalg.Mat
module Blas_ref = Tdo_linalg.Blas_ref
module Regs = Tdo_cimacc.Context_regs
module Prng = Tdo_util.Prng

(* ---------- CMA ---------- *)

let small_cma = { Cma.base = 0x1000; size = 4096; alignment = 256 }

let test_cma_alloc_free () =
  let cma = Cma.create ~config:small_cma () in
  let a = Result.get_ok (Cma.alloc cma ~bytes:100) in
  Alcotest.(check int) "first block at base" 0x1000 a;
  Alcotest.(check bool) "aligned" true (a mod 256 = 0);
  Alcotest.(check int) "rounded to alignment" 256 (Option.get (Cma.allocation_size cma a));
  let b = Result.get_ok (Cma.alloc cma ~bytes:512) in
  Alcotest.(check int) "second block follows" 0x1100 b;
  Cma.free cma a;
  Alcotest.(check bool) "a freed" false (Cma.is_allocated cma a);
  Alcotest.(check bool) "b live" true (Cma.is_allocated cma b)

let test_cma_exhaustion () =
  let cma = Cma.create ~config:small_cma () in
  let a = Cma.alloc cma ~bytes:4096 in
  Alcotest.(check bool) "whole region" true (Result.is_ok a);
  Alcotest.(check bool) "second alloc fails" true (Result.is_error (Cma.alloc cma ~bytes:1))

let test_cma_coalescing () =
  let cma = Cma.create ~config:small_cma () in
  let a = Result.get_ok (Cma.alloc cma ~bytes:1024) in
  let b = Result.get_ok (Cma.alloc cma ~bytes:1024) in
  let c = Result.get_ok (Cma.alloc cma ~bytes:1024) in
  ignore (Result.get_ok (Cma.alloc cma ~bytes:1024));
  Cma.free cma a;
  Cma.free cma c;
  (* fragmented: two 1 KB holes *)
  Alcotest.(check int) "largest hole 1KB" 1024 (Cma.largest_free_block cma);
  Alcotest.(check bool) "2KB alloc fails (fragmentation)" true
    (Result.is_error (Cma.alloc cma ~bytes:2048));
  Cma.free cma b;
  (* a+b+c coalesce into 3 KB *)
  Alcotest.(check int) "coalesced" 3072 (Cma.largest_free_block cma);
  Alcotest.(check bool) "2KB alloc now fits" true (Result.is_ok (Cma.alloc cma ~bytes:2048))

let test_cma_double_free () =
  let cma = Cma.create ~config:small_cma () in
  let a = Result.get_ok (Cma.alloc cma ~bytes:64) in
  Cma.free cma a;
  Alcotest.(check bool) "double free raises" true
    (try
       Cma.free cma a;
       false
     with Invalid_argument _ -> true)

let test_cma_stats () =
  let cma = Cma.create ~config:small_cma () in
  let a = Result.get_ok (Cma.alloc cma ~bytes:256) in
  let _b = Result.get_ok (Cma.alloc cma ~bytes:256) in
  Cma.free cma a;
  Alcotest.(check int) "allocated" 256 (Cma.allocated_bytes cma);
  Alcotest.(check int) "peak" 512 (Cma.peak_allocated_bytes cma);
  Alcotest.(check int) "free bytes" (4096 - 256) (Cma.free_bytes cma)

let qcheck_cma_no_overlap =
  QCheck.Test.make ~name:"cma blocks never overlap" ~count:100 QCheck.small_int (fun seed ->
      let g = Prng.create ~seed in
      let cma = Cma.create ~config:{ Cma.base = 0; size = 65536; alignment = 64 } () in
      let live = ref [] in
      let ok = ref true in
      for _ = 1 to 50 do
        if Prng.bool g || !live = [] then begin
          let bytes = 1 + Prng.int g ~bound:2048 in
          match Cma.alloc cma ~bytes with
          | Error _ -> ()
          | Ok addr ->
              let size = Option.get (Cma.allocation_size cma addr) in
              List.iter
                (fun (a, s) -> if addr < a + s && a < addr + size then ok := false)
                !live;
              live := (addr, size) :: !live
        end
        else begin
          let idx = Prng.int g ~bound:(List.length !live) in
          let addr, _ = List.nth !live idx in
          Cma.free cma addr;
          live := List.filter (fun (a, _) -> a <> addr) !live
        end
      done;
      !ok)

(* Against a first-fit model over the region's 64-byte units: an
   allocation lands at the lowest run of free units long enough for it,
   which is where a fully coalesced first-fit free list puts it. The
   accounting adds up after every step, and once every block is freed
   the region is one free block again. *)
let qcheck_cma_conservation =
  QCheck.Test.make ~name:"cma allocated + free = region size" ~count:100 QCheck.small_int
    (fun seed ->
      let g = Prng.create ~seed in
      let cma = Cma.create ~config:{ Cma.base = 0; size = 65536; alignment = 64 } () in
      let used = Array.make 1024 false in
      let first_fit units =
        let rec from u =
          if u + units > 1024 then None
          else
            match List.find_opt (fun v -> used.(v)) (List.init units (fun k -> u + k)) with
            | None -> Some u
            | Some v -> from (v + 1)
        in
        from 0
      in
      let mark addr bytes v = Array.fill used (addr / 64) ((bytes + 63) / 64) v in
      let live = ref [] in
      let ok = ref true in
      for _ = 1 to 40 do
        if Prng.bool g || !live = [] then begin
          let bytes = 1 + Prng.int g ~bound:4096 in
          let expected = first_fit ((bytes + 63) / 64) in
          match Cma.alloc cma ~bytes with
          | Error _ -> if expected <> None then ok := false
          | Ok addr ->
              if expected <> Some (addr / 64) then ok := false;
              mark addr bytes true;
              live := (addr, bytes) :: !live
        end
        else begin
          let idx = Prng.int g ~bound:(List.length !live) in
          let addr, bytes = List.nth !live idx in
          Cma.free cma addr;
          mark addr bytes false;
          live := List.filter (fun (a, _) -> a <> addr) !live
        end;
        if Cma.allocated_bytes cma + Cma.free_bytes cma <> 65536 then ok := false
      done;
      List.iter (fun (addr, _) -> Cma.free cma addr) !live;
      !ok && Cma.allocated_bytes cma = 0 && Cma.largest_free_block cma = 65536)

(* ---------- Platform / Driver ---------- *)

let small_engine =
  {
    Tdo_cimacc.Micro_engine.default_config with
    Tdo_cimacc.Micro_engine.xbar =
      { Tdo_pcm.Crossbar.default_config with Tdo_pcm.Crossbar.rows = 32; cols = 32 };
  }

let make_platform () =
  Platform.create
    ~config:{ Platform.default_config with Platform.engine = small_engine }
    ()

let test_platform_resolve () =
  let p = make_platform () in
  let cma_base = (Platform.default_config.Platform.cma).Cma.base in
  let virt = cma_base + Platform.default_config.Platform.virt_offset in
  Alcotest.(check bool) "virt recognised" true (Platform.is_device_virtual p virt);
  Alcotest.(check int) "virt -> phys" cma_base (Platform.resolve p virt);
  Alcotest.(check int) "identity elsewhere" 0x1234 (Platform.resolve p 0x1234);
  Alcotest.(check bool) "plain addr not device" false (Platform.is_device_virtual p 0x1234)

let test_driver_translate_charges () =
  let p = make_platform () in
  let d = Driver.create p in
  let insts0 = Sim.Cpu.instructions (Platform.cpu p) in
  let phys = Driver.translate d (0x3000_0000 + 0x4000_0000) in
  Alcotest.(check int) "translation result" 0x3000_0000 phys;
  Alcotest.(check bool) "translation charged to host" true
    (Sim.Cpu.instructions (Platform.cpu p) > insts0);
  Alcotest.(check int) "counted" 1 (Driver.translations d)

let test_driver_translate_rejects () =
  let p = make_platform () in
  let d = Driver.create p in
  Alcotest.(check bool) "out-of-range raises" true
    (try
       ignore (Driver.translate d (-5));
       false
     with Invalid_argument _ -> true)

(* ---------- register round trip ---------- *)

(* A job written by [Driver.launch] over MMIO is the job the register
   file decodes on the command write, field for field: the 32-bit
   words 0, 1, 0x7FFF_FFFF, 0x8000_0000 and 0xFFFF_FFFF in every
   integer register (dimensions stay positive; the addresses are
   physical, in a 4 GB memory, so translation keeps them), and alpha
   and beta as binary32 bit patterns, -0.0 and a NaN included. A
   negative int arrives as its two's-complement word. The engine is
   not run: the trigger hands the decoded job to the test. *)
let test_register_roundtrip () =
  let memory = { Sim.Memory.default_config with Sim.Memory.size_bytes = 1 lsl 32 } in
  let p = Platform.create ~config:{ Platform.default_config with Platform.memory } () in
  let driver = Driver.create p in
  let regs = Tdo_cimacc.Accel.regs p.Platform.accel in
  let decoded = ref None in
  Regs.set_on_trigger regs (fun job -> decoded := Some job);
  let roundtrip (job : Regs.job) =
    decoded := None;
    Driver.launch driver job;
    match !decoded with None -> Alcotest.fail "no job decoded" | Some job -> job
  in
  let bits x = Int32.bits_of_float x in
  let same what (a : Regs.job) (b : Regs.job) =
    Alcotest.(check bool) (what ^ ": alpha bits") true (bits a.Regs.alpha = bits b.Regs.alpha);
    Alcotest.(check bool) (what ^ ": beta bits") true (bits a.Regs.beta = bits b.Regs.beta);
    Alcotest.(check bool) (what ^ ": other fields") true
      ({ a with Regs.alpha = 0.0; beta = 0.0 } = { b with Regs.alpha = 0.0; beta = 0.0 })
  in
  let job w =
    let dim = if w = 0 then 1 else w in
    {
      Regs.op = Regs.Gemm;
      m = dim;
      n = dim;
      k = dim;
      trans_a = w land 1 = 1;
      trans_b = w land 2 = 0;
      alpha = 1.0;
      beta = 0.5;
      a_addr = w;
      b_addr = w;
      c_addr = w;
      lda = w;
      ldb = w;
      ldc = w;
      batch_count = w;
      batch_desc_addr = w;
      pin = (if w land 1 = 1 then Regs.Pin_b else Regs.Pin_a);
      generation = w;
    }
  in
  List.iter
    (fun w ->
      let what = Printf.sprintf "word 0x%x" w in
      same what (job w) (roundtrip (job w));
      Alcotest.(check int) (what ^ ": read back over MMIO") w
        (Sim.Mmio.read p.Platform.mmio
           ~addr:(p.Platform.config.Platform.register_base + (4 * Regs.reg_ldc))))
    [ 0; 1; 0x7FFF_FFFF; 0x8000_0000; 0xFFFF_FFFF ];
  let wrapped = roundtrip { (job 1) with Regs.generation = -1; lda = -0x8000_0000 } in
  Alcotest.(check int) "-1 arrives as 0xFFFF_FFFF" 0xFFFF_FFFF wrapped.Regs.generation;
  Alcotest.(check int) "-2^31 arrives as 0x8000_0000" 0x8000_0000 wrapped.Regs.lda;
  List.iter
    (fun (alpha, beta) ->
      let j = { (job 1) with Regs.alpha; beta } in
      same (Printf.sprintf "alpha %h, beta %h" alpha beta) j (roundtrip j))
    [
      (0.0, -0.0);
      (-0.0, 0.0);
      (1.0, -2.5);
      (0x1p-149, -0x1p-126);
      (0x1.fffffep127, Float.neg_infinity);
      (Float.infinity, Float.nan);
    ]

(* ---------- API end-to-end ---------- *)

let test_api_gemm_end_to_end () =
  let p = make_platform () in
  let api = Api.init p in
  let g = Prng.create ~seed:51 in
  let m = 8 and n = 6 and k = 7 in
  let a = Mat.random g ~rows:m ~cols:k ~lo:(-1.0) ~hi:1.0 in
  let b = Mat.random g ~rows:k ~cols:n ~lo:(-1.0) ~hi:1.0 in
  let buf_a = Result.get_ok (Api.malloc api ~bytes:(4 * m * k)) in
  let buf_b = Result.get_ok (Api.malloc api ~bytes:(4 * k * n)) in
  let buf_c = Result.get_ok (Api.malloc api ~bytes:(4 * m * n)) in
  let va = Api.view ~ld:k buf_a and vb = Api.view ~ld:n buf_b and vc = Api.view ~ld:n buf_c in
  Api.host_to_dev api ~src:a ~dst:va;
  Api.host_to_dev api ~src:b ~dst:vb;
  (match Api.sgemm api ~m ~n ~k ~alpha:1.0 ~a:va ~b:vb ~beta:0.0 ~c:vc () with
  | Error e -> Alcotest.failf "sgemm failed: %s" e
  | Ok () -> ());
  let actual = Api.dev_to_host api ~src:vc ~rows:m ~cols:n in
  let expected = Mat.create ~rows:m ~cols:n in
  Blas_ref.gemm ~alpha:1.0 ~beta:0.0 ~a ~b ~c:expected ();
  Alcotest.(check bool) "result within quantisation error" true
    (Mat.max_abs_diff expected actual < 0.2);
  let c = Api.counters api in
  Alcotest.(check int) "one gemm call" 1 c.Api.gemm_calls;
  Alcotest.(check int) "one launch" 1 c.Api.launches;
  (* the offload really went through the driver and the device *)
  let d = Api.driver api in
  Alcotest.(check int) "one ioctl" 1 (Driver.ioctls d);
  Alcotest.(check int) "flush before launch" 1 (Driver.cache_flushes d);
  Alcotest.(check bool) "device executed a job" true
    ((Tdo_cimacc.Micro_engine.counters (Tdo_cimacc.Accel.engine p.Platform.accel))
       .Tdo_cimacc.Micro_engine.jobs = 1)

let test_api_gemm_tiled_when_oversized () =
  let p = make_platform () in
  let api = Api.init p in
  let g = Prng.create ~seed:52 in
  (* 48 > 32 in both m and k: needs 2x2 = 4 tile launches *)
  let m = 48 and n = 8 and k = 48 in
  let a = Mat.random g ~rows:m ~cols:k ~lo:(-1.0) ~hi:1.0 in
  let b = Mat.random g ~rows:k ~cols:n ~lo:(-1.0) ~hi:1.0 in
  let buf_a = Result.get_ok (Api.malloc api ~bytes:(4 * m * k)) in
  let buf_b = Result.get_ok (Api.malloc api ~bytes:(4 * k * n)) in
  let buf_c = Result.get_ok (Api.malloc api ~bytes:(4 * m * n)) in
  let va = Api.view ~ld:k buf_a and vb = Api.view ~ld:n buf_b and vc = Api.view ~ld:n buf_c in
  Api.host_to_dev api ~src:a ~dst:va;
  Api.host_to_dev api ~src:b ~dst:vb;
  (match Api.sgemm api ~m ~n ~k ~alpha:1.0 ~a:va ~b:vb ~beta:0.0 ~c:vc () with
  | Error e -> Alcotest.failf "tiled sgemm failed: %s" e
  | Ok () -> ());
  let actual = Api.dev_to_host api ~src:vc ~rows:m ~cols:n in
  let expected = Mat.create ~rows:m ~cols:n in
  Blas_ref.gemm ~alpha:1.0 ~beta:0.0 ~a ~b ~c:expected ();
  Alcotest.(check bool) "tiled result close" true (Mat.max_abs_diff expected actual < 1.0);
  Alcotest.(check int) "4 tile launches" 4 (Api.counters api).Api.launches

let test_api_gemv () =
  let p = make_platform () in
  let api = Api.init p in
  let g = Prng.create ~seed:53 in
  let m = 12 and k = 9 in
  let a = Mat.random g ~rows:m ~cols:k ~lo:(-1.0) ~hi:1.0 in
  let x = Mat.random g ~rows:k ~cols:1 ~lo:(-1.0) ~hi:1.0 in
  let buf_a = Result.get_ok (Api.malloc api ~bytes:(4 * m * k)) in
  let buf_x = Result.get_ok (Api.malloc api ~bytes:(4 * k)) in
  let buf_y = Result.get_ok (Api.malloc api ~bytes:(4 * m)) in
  Api.host_to_dev api ~src:a ~dst:(Api.view ~ld:k buf_a);
  Api.host_to_dev api ~src:x ~dst:(Api.view ~ld:1 buf_x);
  (match
     Api.sgemv api ~m ~k ~alpha:1.0 ~a:(Api.view ~ld:k buf_a) ~x:(Api.view ~ld:1 buf_x)
       ~beta:0.0 ~y:(Api.view ~ld:1 buf_y) ()
   with
  | Error e -> Alcotest.failf "sgemv failed: %s" e
  | Ok () -> ());
  let actual = Api.dev_to_host api ~src:(Api.view ~ld:1 buf_y) ~rows:m ~cols:1 in
  let expected = Mat.create ~rows:m ~cols:1 in
  Blas_ref.gemm ~alpha:1.0 ~beta:0.0 ~a ~b:x ~c:expected ();
  Alcotest.(check bool) "gemv close" true (Mat.max_abs_diff expected actual < 0.2);
  Alcotest.(check int) "counted as gemv" 1 (Api.counters api).Api.gemv_calls

let test_api_batched_endurance_win () =
  (* Listing 2: two GEMMs sharing A. Batched + Pin_a must program the
     crossbar once; two separate calls with Pin_b (naive) must program
     twice as many operands. *)
  let run_smart () =
    let p = make_platform () in
    let api = Api.init p in
    let g = Prng.create ~seed:54 in
    let m = 16 and n = 12 and k = 16 in
    let a = Mat.random g ~rows:m ~cols:k ~lo:(-1.0) ~hi:1.0 in
    let b = Mat.random g ~rows:k ~cols:n ~lo:(-1.0) ~hi:1.0 in
    let e = Mat.random g ~rows:k ~cols:n ~lo:(-1.0) ~hi:1.0 in
    let alloc bytes = Result.get_ok (Api.malloc api ~bytes) in
    let buf_a = alloc (4 * m * k)
    and buf_b = alloc (4 * k * n)
    and buf_e = alloc (4 * k * n)
    and buf_c = alloc (4 * m * n)
    and buf_d = alloc (4 * m * n) in
    Api.host_to_dev api ~src:a ~dst:(Api.view ~ld:k buf_a);
    Api.host_to_dev api ~src:b ~dst:(Api.view ~ld:n buf_b);
    Api.host_to_dev api ~src:e ~dst:(Api.view ~ld:n buf_e);
    let va = Api.view ~ld:k buf_a in
    (match
       Api.gemm_batched api ~pin:Regs.Pin_a ~m ~n ~k ~alpha:1.0 ~beta:0.0
         ~batch:
           [
             (va, Api.view ~ld:n buf_b, Api.view ~ld:n buf_c);
             (va, Api.view ~ld:n buf_e, Api.view ~ld:n buf_d);
           ]
         ()
     with
    | Error err -> Alcotest.failf "batched failed: %s" err
    | Ok () -> ());
    let writes =
      (Tdo_pcm.Crossbar.counters
         (Tdo_cimacc.Micro_engine.crossbar (Tdo_cimacc.Accel.engine p.Platform.accel)))
        .Tdo_pcm.Crossbar.logical_writes
    in
    (* validate results too *)
    let actual_c = Api.dev_to_host api ~src:(Api.view ~ld:n buf_c) ~rows:m ~cols:n in
    let expected_c = Mat.create ~rows:m ~cols:n in
    Blas_ref.gemm ~alpha:1.0 ~beta:0.0 ~a ~b ~c:expected_c ();
    Alcotest.(check bool) "batched C close" true (Mat.max_abs_diff expected_c actual_c < 0.5);
    let actual_d = Api.dev_to_host api ~src:(Api.view ~ld:n buf_d) ~rows:m ~cols:n in
    let expected_d = Mat.create ~rows:m ~cols:n in
    Blas_ref.gemm ~alpha:1.0 ~beta:0.0 ~a ~b:e ~c:expected_d ();
    Alcotest.(check bool) "batched D close" true (Mat.max_abs_diff expected_d actual_d < 0.5);
    writes
  in
  let run_naive () =
    let p = make_platform () in
    let api = Api.init p in
    let g = Prng.create ~seed:54 in
    let m = 16 and n = 12 and k = 16 in
    let a = Mat.random g ~rows:m ~cols:k ~lo:(-1.0) ~hi:1.0 in
    let b = Mat.random g ~rows:k ~cols:n ~lo:(-1.0) ~hi:1.0 in
    let e = Mat.random g ~rows:k ~cols:n ~lo:(-1.0) ~hi:1.0 in
    let alloc bytes = Result.get_ok (Api.malloc api ~bytes) in
    let buf_a = alloc (4 * m * k)
    and buf_b = alloc (4 * k * n)
    and buf_e = alloc (4 * k * n)
    and buf_c = alloc (4 * m * n)
    and buf_d = alloc (4 * m * n) in
    Api.host_to_dev api ~src:a ~dst:(Api.view ~ld:k buf_a);
    Api.host_to_dev api ~src:b ~dst:(Api.view ~ld:n buf_b);
    Api.host_to_dev api ~src:e ~dst:(Api.view ~ld:n buf_e);
    let call b_buf c_buf =
      match
        Api.sgemm api ~pin:Regs.Pin_b ~m ~n ~k ~alpha:1.0 ~a:(Api.view ~ld:k buf_a)
          ~b:(Api.view ~ld:n b_buf) ~beta:0.0 ~c:(Api.view ~ld:n c_buf) ()
      with
      | Error err -> Alcotest.failf "naive sgemm failed: %s" err
      | Ok () -> ()
    in
    call buf_b buf_c;
    call buf_e buf_d;
    (Tdo_pcm.Crossbar.counters
       (Tdo_cimacc.Micro_engine.crossbar (Tdo_cimacc.Accel.engine p.Platform.accel)))
      .Tdo_pcm.Crossbar.logical_writes
  in
  let smart = run_smart () and naive = run_naive () in
  Alcotest.(check int) "smart writes A once" (16 * 16) smart;
  Alcotest.(check int) "naive writes B and E" (2 * 16 * 12) naive;
  Alcotest.(check bool) "smart mapping halves writes" true (smart < naive)

let test_api_generation_invalidation () =
  (* Rewriting A between two calls must force reprogramming. *)
  let p = make_platform () in
  let api = Api.init p in
  let g = Prng.create ~seed:55 in
  let m = 8 and n = 6 and k = 8 in
  let a = Mat.random g ~rows:m ~cols:k ~lo:(-1.0) ~hi:1.0 in
  let b = Mat.random g ~rows:k ~cols:n ~lo:(-1.0) ~hi:1.0 in
  let alloc bytes = Result.get_ok (Api.malloc api ~bytes) in
  let buf_a = alloc (4 * m * k) and buf_b = alloc (4 * k * n) and buf_c = alloc (4 * m * n) in
  let va = Api.view ~ld:k buf_a and vb = Api.view ~ld:n buf_b and vc = Api.view ~ld:n buf_c in
  Api.host_to_dev api ~src:a ~dst:va;
  Api.host_to_dev api ~src:b ~dst:vb;
  let gemm () =
    match Api.sgemm api ~m ~n ~k ~alpha:1.0 ~a:va ~b:vb ~beta:0.0 ~c:vc () with
    | Error e -> Alcotest.failf "sgemm failed: %s" e
    | Ok () -> ()
  in
  gemm ();
  gemm ();
  let engine = Tdo_cimacc.Accel.engine p.Platform.accel in
  Alcotest.(check int) "second call reused pin" 1
    (Tdo_cimacc.Micro_engine.counters engine).Tdo_cimacc.Micro_engine.programming_skipped;
  (* mutate A, call again: reuse must NOT happen *)
  let a2 = Mat.random g ~rows:m ~cols:k ~lo:(-1.0) ~hi:1.0 in
  Api.host_to_dev api ~src:a2 ~dst:va;
  gemm ();
  Alcotest.(check int) "rewrite invalidates pin" 1
    (Tdo_cimacc.Micro_engine.counters engine).Tdo_cimacc.Micro_engine.programming_skipped;
  (* and the result reflects the new A *)
  let actual = Api.dev_to_host api ~src:vc ~rows:m ~cols:n in
  let expected = Mat.create ~rows:m ~cols:n in
  Blas_ref.gemm ~alpha:1.0 ~beta:0.0 ~a:a2 ~b ~c:expected ();
  Alcotest.(check bool) "fresh data used" true (Mat.max_abs_diff expected actual < 0.2)

let test_api_free_rejected_after_use () =
  let p = make_platform () in
  let api = Api.init p in
  let buf = Result.get_ok (Api.malloc api ~bytes:64) in
  Api.free api buf;
  Alcotest.(check bool) "double free raises" true
    (try
       Api.free api buf;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "use after free raises" true
    (try
       ignore (Api.dev_to_host api ~src:(Api.view ~ld:1 buf) ~rows:1 ~cols:1);
       false
     with Invalid_argument _ -> true)

let test_api_offload_overhead_visible () =
  (* The host must pay instructions for init/ioctl/flush/poll: this is
     the per-offload overhead that sinks GEMV-like kernels. *)
  let p = make_platform () in
  let api = Api.init p in
  let g = Prng.create ~seed:56 in
  let a = Mat.random g ~rows:4 ~cols:4 ~lo:(-1.0) ~hi:1.0 in
  let alloc bytes = Result.get_ok (Api.malloc api ~bytes) in
  let buf_a = alloc 64 and buf_b = alloc 64 and buf_c = alloc 64 in
  Api.host_to_dev api ~src:a ~dst:(Api.view ~ld:4 buf_a);
  Api.host_to_dev api ~src:a ~dst:(Api.view ~ld:4 buf_b);
  let before = Sim.Cpu.instructions (Platform.cpu p) in
  (match
     Api.sgemm api ~m:4 ~n:4 ~k:4 ~alpha:1.0 ~a:(Api.view ~ld:4 buf_a)
       ~b:(Api.view ~ld:4 buf_b) ~beta:0.0 ~c:(Api.view ~ld:4 buf_c) ()
   with
  | Error e -> Alcotest.failf "sgemm failed: %s" e
  | Ok () -> ());
  let overhead = Sim.Cpu.instructions (Platform.cpu p) - before in
  Alcotest.(check bool) "offload costs hundreds of host instructions" true (overhead > 200);
  Alcotest.(check bool) "host stalled during flush" true (Driver.flush_stall_ps (Api.driver api) > 0);
  Alcotest.(check bool) "host stalled waiting" true (Driver.wait_stall_ps (Api.driver api) > 0)

(* ---------- device-side im2col ---------- *)

(* Source element (r, c) is 10 r + c, so a patch row can be written
   down by hand. *)
let im2col_source api ~rows ~ld =
  let buf = Result.get_ok (Api.malloc api ~bytes:(4 * rows * ld)) in
  Api.host_to_dev api
    ~src:(Mat.init ~rows ~cols:ld ~f:(fun r c -> float_of_int ((10 * r) + c)))
    ~dst:(Api.view ~ld buf);
  buf

(* A destination of [rows x ld] holding -1 everywhere. *)
let im2col_destination api ~rows ~ld =
  let buf = Result.get_ok (Api.malloc api ~bytes:(4 * rows * ld)) in
  Api.host_to_dev api ~src:(Mat.init ~rows ~cols:ld ~f:(fun _ _ -> -1.0)) ~dst:(Api.view ~ld buf);
  buf

let check_patches what api dst ~ld expected =
  Alcotest.(check (array (array (float 0.0))))
    what expected
    (Mat.to_arrays (Api.dev_to_host api ~src:(Api.view ~ld dst) ~rows:(Array.length expected) ~cols:ld))

let test_api_im2col_values () =
  let p = make_platform () in
  let api = Api.init p in
  (* a 3x4 source and a 2x2 kernel: 2x3 outputs, packed patch rows *)
  let src = im2col_source api ~rows:3 ~ld:4 in
  let dst = im2col_destination api ~rows:6 ~ld:4 in
  Api.dev_im2col api ~src:(Api.view ~ld:4 src) ~src_rows:3 ~src_cols:4 ~dst:(Api.view ~ld:4 dst)
    ~kh:2 ~kw:2 ~oh:2 ~ow:3;
  check_patches "2x2 kernel" api dst ~ld:4
    [|
      [| 0.; 1.; 10.; 11. |];
      [| 1.; 2.; 11.; 12. |];
      [| 2.; 3.; 12.; 13. |];
      [| 10.; 11.; 20.; 21. |];
      [| 11.; 12.; 21.; 22. |];
      [| 12.; 13.; 22.; 23. |];
    |];
  (* a 4x5 window of a source with leading dimension 6 and a 3x2
     kernel, into patch rows padded to 7: the padding keeps its -1 *)
  let src = im2col_source api ~rows:4 ~ld:6 in
  let dst = im2col_destination api ~rows:6 ~ld:7 in
  Api.dev_im2col api ~src:(Api.view ~ld:6 src) ~src_rows:4 ~src_cols:5 ~dst:(Api.view ~ld:7 dst)
    ~kh:3 ~kw:2 ~oh:2 ~ow:3;
  check_patches "3x2 kernel, padded rows" api dst ~ld:7
    [|
      [| 0.; 1.; 10.; 11.; 20.; 21.; -1. |];
      [| 1.; 2.; 11.; 12.; 21.; 22.; -1. |];
      [| 2.; 3.; 12.; 13.; 22.; 23.; -1. |];
      [| 10.; 11.; 20.; 21.; 30.; 31.; -1. |];
      [| 11.; 12.; 21.; 22.; 31.; 32.; -1. |];
      [| 12.; 13.; 22.; 23.; 32.; 33.; -1. |];
    |];
  (* source and patches side by side in one buffer *)
  let shared = Result.get_ok (Api.malloc api ~bytes:(4 * (12 + 24))) in
  Api.host_to_dev api
    ~src:(Mat.init ~rows:3 ~cols:4 ~f:(fun r c -> float_of_int ((10 * r) + c)))
    ~dst:(Api.view ~ld:4 shared);
  Api.dev_im2col api ~src:(Api.view ~ld:4 shared) ~src_rows:3 ~src_cols:4
    ~dst:(Api.view ~offset_elems:12 ~ld:4 shared) ~kh:2 ~kw:2 ~oh:2 ~ow:3;
  Alcotest.(check (array (float 0.0)))
    "adjacent ranges" [| 0.; 1.; 10.; 11.; 12.; 13.; 22.; 23. |]
    (let m = Api.dev_to_host api ~src:(Api.view ~offset_elems:12 ~ld:4 shared) ~rows:6 ~cols:4 in
     Array.append (Mat.to_arrays m).(0) (Mat.to_arrays m).(5))

let test_api_im2col_rejects () =
  let p = make_platform () in
  let api = Api.init p in
  let dst = im2col_destination api ~rows:9 ~ld:4 in
  let untouched () =
    check_patches "destination untouched" api dst ~ld:4 (Array.make 9 (Array.make 4 (-1.0)))
  in
  (* the view claims four rows; the buffer holds three *)
  let src = im2col_source api ~rows:3 ~ld:4 in
  Alcotest.check_raises "source too small"
    (Invalid_argument "Api.dev_im2col: window leaves the source buffer") (fun () ->
      Api.dev_im2col api ~src:(Api.view ~ld:4 src) ~src_rows:4 ~src_cols:4
        ~dst:(Api.view ~ld:4 dst) ~kh:2 ~kw:2 ~oh:3 ~ow:3);
  untouched ();
  let small = im2col_destination api ~rows:5 ~ld:4 in
  Alcotest.check_raises "destination too small"
    (Invalid_argument "Api.dev_im2col: destination too small") (fun () ->
      Api.dev_im2col api ~src:(Api.view ~ld:4 src) ~src_rows:3 ~src_cols:4
        ~dst:(Api.view ~ld:4 small) ~kh:2 ~kw:2 ~oh:2 ~ow:3);
  (* patches that start inside the source window *)
  let shared = Result.get_ok (Api.malloc api ~bytes:(4 * 64)) in
  Alcotest.check_raises "overlapping ranges"
    (Invalid_argument "Api.dev_im2col: source and destination overlap") (fun () ->
      Api.dev_im2col api ~src:(Api.view ~ld:4 shared) ~src_rows:3 ~src_cols:4
        ~dst:(Api.view ~offset_elems:8 ~ld:4 shared) ~kh:2 ~kw:2 ~oh:2 ~ow:3);
  untouched ()

(* The first-fit free list CMA kept before its free list became
   arrays: (address, size) blocks sorted by address, the first large
   enough block gives up its low end, a freed block merges with the
   blocks it touches. *)
module List_first_fit = struct
  type t = { alignment : int; mutable free : (int * int) list; mutable live : (int * int) list }

  let create (c : Cma.config) = { alignment = c.Cma.alignment; free = [ (c.Cma.base, c.Cma.size) ]; live = [] }

  let alloc t bytes =
    let need = (bytes + t.alignment - 1) / t.alignment * t.alignment in
    let rec take acc = function
      | [] -> None
      | (addr, size) :: rest when size >= need ->
          let rest = if size > need then (addr + need, size - need) :: rest else rest in
          Some (addr, List.rev_append acc rest)
      | block :: rest -> take (block :: acc) rest
    in
    match take [] t.free with
    | None -> None
    | Some (addr, free) ->
        t.free <- free;
        t.live <- (addr, need) :: t.live;
        Some addr

  let rec insert addr size = function
    | (a, s) :: rest when a + s = addr -> (
        match rest with
        | (b, s') :: rest when addr + size = b -> (a, s + size + s') :: rest
        | _ -> (a, s + size) :: rest)
    | ((a, _) as block) :: rest when a < addr -> block :: insert addr size rest
    | (b, s') :: rest when addr + size = b -> (addr, size + s') :: rest
    | blocks -> (addr, size) :: blocks

  let free t addr =
    let size = List.assoc addr t.live in
    t.live <- List.remove_assoc addr t.live;
    t.free <- insert addr size t.free

  let free_bytes t = List.fold_left (fun acc (_, s) -> acc + s) 0 t.free
  let largest t = List.fold_left (fun acc (_, s) -> max acc s) 0 t.free
end

(* Interleaved allocations and frees of mixed sizes, enough to fill and
   fragment a 16 KB region: every allocation lands where the list-based
   first fit puts it, fails when it fails, and the free space agrees
   after every step. *)
let qcheck_cma_matches_list_first_fit =
  QCheck.Test.make ~name:"cma matches a list-based first fit" ~count:200 QCheck.small_int
    (fun seed ->
      let g = Prng.create ~seed in
      let config = { Cma.base = 0x4000; size = 16384; alignment = 128 } in
      let cma = Cma.create ~config () and reference = List_first_fit.create config in
      let live = ref [] in
      let ok = ref true in
      for _ = 1 to 120 do
        if Prng.int g ~bound:5 < 3 || !live = [] then begin
          let bytes = 1 + Prng.int g ~bound:(if Prng.bool g then 300 else 3000) in
          let got = Result.to_option (Cma.alloc cma ~bytes) in
          if got <> List_first_fit.alloc reference bytes then ok := false;
          Option.iter (fun addr -> live := addr :: !live) got
        end
        else begin
          let addr = List.nth !live (Prng.int g ~bound:(List.length !live)) in
          Cma.free cma addr;
          List_first_fit.free reference addr;
          live := List.filter (fun a -> a <> addr) !live
        end;
        if
          Cma.free_bytes cma <> List_first_fit.free_bytes reference
          || Cma.largest_free_block cma <> List_first_fit.largest reference
        then ok := false
      done;
      !ok)

let suites =
  [
    ( "runtime.cma",
      [
        Alcotest.test_case "alloc/free" `Quick test_cma_alloc_free;
        Alcotest.test_case "exhaustion" `Quick test_cma_exhaustion;
        Alcotest.test_case "coalescing" `Quick test_cma_coalescing;
        Alcotest.test_case "double free" `Quick test_cma_double_free;
        Alcotest.test_case "stats" `Quick test_cma_stats;
        QCheck_alcotest.to_alcotest qcheck_cma_no_overlap;
        QCheck_alcotest.to_alcotest qcheck_cma_conservation;
        QCheck_alcotest.to_alcotest qcheck_cma_matches_list_first_fit;
      ] );
    ( "runtime.platform",
      [
        Alcotest.test_case "mmu resolve" `Quick test_platform_resolve;
        Alcotest.test_case "driver translate" `Quick test_driver_translate_charges;
        Alcotest.test_case "translate rejects" `Quick test_driver_translate_rejects;
        Alcotest.test_case "register round trip" `Quick test_register_roundtrip;
      ] );
    ( "runtime.api",
      [
        Alcotest.test_case "gemm end to end" `Quick test_api_gemm_end_to_end;
        Alcotest.test_case "tiled oversized gemm" `Quick test_api_gemm_tiled_when_oversized;
        Alcotest.test_case "gemv" `Quick test_api_gemv;
        Alcotest.test_case "batched endurance win (Listing 2)" `Quick
          test_api_batched_endurance_win;
        Alcotest.test_case "generation invalidation" `Quick test_api_generation_invalidation;
        Alcotest.test_case "free semantics" `Quick test_api_free_rejected_after_use;
        Alcotest.test_case "offload overhead visible" `Quick test_api_offload_overhead_visible;
        Alcotest.test_case "im2col patches" `Quick test_api_im2col_values;
        Alcotest.test_case "im2col rejects bad ranges" `Quick test_api_im2col_rejects;
      ] );
  ]

(* ---------- driver details ---------- *)

let test_driver_launch_register_writes () =
  let p = make_platform () in
  let d = Driver.create p in
  let job =
    {
      Regs.op = Regs.Gemm;
      m = 4;
      n = 4;
      k = 4;
      trans_a = false;
      trans_b = true;
      alpha = 1.5;
      beta = 0.25;
      a_addr = 0x3000_0000 + 0x4000_0000;
      b_addr = 0x3000_1000 + 0x4000_0000;
      c_addr = 0x3000_2000 + 0x4000_0000;
      lda = 4;
      ldb = 4;
      ldc = 4;
      batch_count = 0;
      batch_desc_addr = 0;
      pin = Regs.Pin_b;
      generation = 9;
    }
  in
  Driver.launch d job;
  Alcotest.(check int) "one ioctl" 1 (Driver.ioctls d);
  Alcotest.(check int) "all parameter registers + command written" 18 (Driver.reg_writes d);
  Alcotest.(check int) "three buffer translations" 3 (Driver.translations d);
  Alcotest.(check int) "flush happened" 1 (Driver.cache_flushes d);
  (* the device decoded what we wrote, with physical addresses *)
  let regs = Tdo_cimacc.Accel.regs p.Platform.accel in
  match Regs.decode_job regs with
  | Error e -> Alcotest.failf "device decode failed: %s" e
  | Ok decoded ->
      Alcotest.(check int) "a translated" 0x3000_0000 decoded.Regs.a_addr;
      Alcotest.(check bool) "trans_b carried" true decoded.Regs.trans_b;
      Alcotest.(check (float 1e-6)) "alpha carried" 1.5 decoded.Regs.alpha;
      Alcotest.(check int) "generation carried" 9 decoded.Regs.generation;
      Alcotest.(check bool) "pin carried" true (decoded.Regs.pin = Regs.Pin_b)

let test_driver_flush_charges_instructions () =
  let p = make_platform () in
  let d = Driver.create p in
  let before = Sim.Cpu.instructions (Platform.cpu p) in
  Driver.launch d
    {
      Regs.op = Regs.Gemm;
      m = 1;
      n = 1;
      k = 1;
      trans_a = false;
      trans_b = false;
      alpha = 1.0;
      beta = 0.0;
      a_addr = 0;
      b_addr = 0;
      c_addr = 0;
      lda = 1;
      ldb = 1;
      ldc = 1;
      batch_count = 0;
      batch_desc_addr = 0;
      pin = Regs.Pin_a;
      generation = 0;
    };
  let spent = Sim.Cpu.instructions (Platform.cpu p) - before in
  (* the 2 MB L2 alone is 32768 lines x 2 instructions *)
  Alcotest.(check bool) "set/way walk dominates the launch cost" true (spent > 60_000)

(* An 8x8x8 gemm on operands staged by raw memory writes, launched
   through the driver. *)
let launch_small_gemm p d =
  let g = Prng.create ~seed:77 in
  let m = Mat.random g ~rows:8 ~cols:8 ~lo:(-1.0) ~hi:1.0 in
  Mat.iteri
    ~f:(fun i j v ->
      Sim.Memory.write_f32 p.Platform.memory (0x3000_0000 + (4 * ((i * 8) + j))) v;
      Sim.Memory.write_f32 p.Platform.memory (0x3000_1000 + (4 * ((i * 8) + j))) v)
    m;
  Driver.launch d
    {
      Regs.op = Regs.Gemm;
      m = 8;
      n = 8;
      k = 8;
      trans_a = false;
      trans_b = false;
      alpha = 1.0;
      beta = 0.0;
      a_addr = 0x3000_0000;
      b_addr = 0x3000_1000;
      c_addr = 0x3000_2000;
      lda = 8;
      ldb = 8;
      ldc = 8;
      batch_count = 0;
      batch_desc_addr = 0;
      pin = Regs.Pin_a;
      generation = 0;
    }

(* The host spins on the status register for the whole job: the job
   starts at the host's time when the command is written and runs for
   the engine's busy time, and each poll is 8 instructions plus a 20 ns
   uncached status read at 1.2 GHz. *)
let test_spin_wait_charges () =
  let p = make_platform () in
  let d = Driver.create p in
  let cpu = Platform.cpu p in
  launch_small_gemm p d;
  let trigger = Sim.Cpu.time_ps cpu and instructions = Sim.Cpu.instructions cpu in
  let busy_ps =
    (Tdo_cimacc.Micro_engine.counters (Tdo_cimacc.Accel.engine p.Platform.accel))
      .Tdo_cimacc.Micro_engine.busy_ps
  in
  let finish = trigger + busy_ps in
  (match Driver.await d with Ok () -> () | Error e -> Alcotest.failf "await: %s" e);
  let poll_ps = (8 * 833) + (20 * Sim.Time_base.ps_per_ns) in
  let busy_poll = trigger + poll_ps in
  Alcotest.(check bool) "the job outlasts a poll" true (finish > busy_poll + poll_ps);
  Alcotest.(check int) "waited from the busy poll to the finish" (finish - busy_poll)
    (Driver.wait_stall_ps d);
  Alcotest.(check int) "one status read after the finish" (finish + poll_ps) (Sim.Cpu.time_ps cpu);
  let iterations = (finish - busy_poll) / poll_ps in
  Alcotest.(check int) "8 instructions per poll iteration, plus the two status reads"
    (8 * (iterations + 2))
    (Sim.Cpu.instructions cpu - instructions);
  Alcotest.(check bool) "done" true (Tdo_cimacc.Accel.status p.Platform.accel = Regs.Done)

let busy_without_job = Failure "Driver.await: device busy with no pending completion event"

let test_await_without_job () =
  let p = make_platform () in
  let d = Driver.create p in
  Alcotest.check_raises "from idle" busy_without_job (fun () -> ignore (Driver.await d));
  launch_small_gemm p d;
  (match Driver.await d with Ok () -> () | Error e -> Alcotest.failf "await: %s" e);
  (* the status reads done, so a second wait returns at once *)
  (match Driver.await d with Ok () -> () | Error e -> Alcotest.failf "second await: %s" e);
  Alcotest.(check bool) "no completion left after the job" true
    (Tdo_cimacc.Accel.complete p.Platform.accel = None);
  (* back to idle with nothing running: the wait cannot end *)
  Regs.set_status (Tdo_cimacc.Accel.regs p.Platform.accel) Regs.Idle;
  Alcotest.check_raises "after a completed job" busy_without_job (fun () ->
      ignore (Driver.await d))

(* ---------- api edge cases ---------- *)

let test_api_view_validation () =
  let p = make_platform () in
  let api = Api.init p in
  let buf = Result.get_ok (Api.malloc api ~bytes:64) in
  Alcotest.(check bool) "offset outside buffer" true
    (try
       ignore (Api.view ~offset_elems:16 ~ld:4 buf);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "non-positive ld" true
    (try
       ignore (Api.view ~ld:0 buf);
       false
     with Invalid_argument _ -> true)

let test_api_malloc_exhaustion () =
  let cma = { Tdo_runtime.Cma.base = 0x3000_0000; size = 4096; alignment = 256 } in
  let p =
    Platform.create ~config:{ Platform.default_config with Platform.cma } ()
  in
  let api = Api.init p in
  let first = Api.malloc api ~bytes:4096 in
  Alcotest.(check bool) "region-sized malloc fits" true (Result.is_ok first);
  Alcotest.(check bool) "second malloc fails cleanly" true
    (Result.is_error (Api.malloc api ~bytes:16))

let test_api_strided_views () =
  (* operate on a 4x4 sub-block of an 8x8 device matrix *)
  let p = make_platform () in
  let api = Api.init p in
  let g = Prng.create ~seed:78 in
  let a = Mat.random g ~rows:8 ~cols:8 ~lo:(-1.0) ~hi:1.0 in
  let b = Mat.random g ~rows:8 ~cols:8 ~lo:(-1.0) ~hi:1.0 in
  let alloc () = Result.get_ok (Api.malloc api ~bytes:(4 * 8 * 8)) in
  let buf_a = alloc () and buf_b = alloc () and buf_c = alloc () in
  Api.host_to_dev api ~src:a ~dst:(Api.view ~ld:8 buf_a);
  Api.host_to_dev api ~src:b ~dst:(Api.view ~ld:8 buf_b);
  (* sub-blocks starting at (2, 3) and (1, 0), output at (4, 4) *)
  let va = Api.view ~offset_elems:((2 * 8) + 3) ~ld:8 buf_a in
  let vb = Api.view ~offset_elems:((1 * 8) + 0) ~ld:8 buf_b in
  let vc = Api.view ~offset_elems:((4 * 8) + 4) ~ld:8 buf_c in
  (match Api.sgemm api ~m:4 ~n:4 ~k:4 ~alpha:1.0 ~a:va ~b:vb ~beta:0.0 ~c:vc () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "strided sgemm: %s" e);
  let sub m r c = Mat.init ~rows:4 ~cols:4 ~f:(fun i j -> Mat.get m (r + i) (c + j)) in
  let expected = Mat.create ~rows:4 ~cols:4 in
  Blas_ref.gemm ~alpha:1.0 ~beta:0.0 ~a:(sub a 2 3) ~b:(sub b 1 0) ~c:expected ();
  let actual = Api.dev_to_host api ~src:vc ~rows:4 ~cols:4 in
  Alcotest.(check bool) "sub-block gemm correct" true (Mat.max_abs_diff expected actual < 0.2)

let runtime_details_suite =
  ( "runtime.details",
    [
      Alcotest.test_case "launch programs every register" `Quick
        test_driver_launch_register_writes;
      Alcotest.test_case "flush charges instructions" `Quick
        test_driver_flush_charges_instructions;
      Alcotest.test_case "spin waiting charges" `Quick test_spin_wait_charges;
      Alcotest.test_case "await with nothing running" `Quick test_await_without_job;
      Alcotest.test_case "view validation" `Quick test_api_view_validation;
      Alcotest.test_case "malloc exhaustion" `Quick test_api_malloc_exhaustion;
      Alcotest.test_case "strided sub-block views" `Quick test_api_strided_views;
    ] )

let suites = suites @ [ runtime_details_suite ]

let test_api_strided_transposed () =
  (* op(A) = A^T on a sub-block with non-trivial leading dimension *)
  let p = make_platform () in
  let api = Api.init p in
  let g = Prng.create ~seed:79 in
  let a = Mat.random g ~rows:8 ~cols:8 ~lo:(-1.0) ~hi:1.0 in
  let b = Mat.random g ~rows:8 ~cols:8 ~lo:(-1.0) ~hi:1.0 in
  let alloc () = Result.get_ok (Api.malloc api ~bytes:(4 * 8 * 8)) in
  let buf_a = alloc () and buf_b = alloc () and buf_c = alloc () in
  Api.host_to_dev api ~src:a ~dst:(Api.view ~ld:8 buf_a);
  Api.host_to_dev api ~src:b ~dst:(Api.view ~ld:8 buf_b);
  (* C(4x4) = A[0..4,0..4]^T * B[0..4,0..4] *)
  (match
     Api.sgemm api ~trans_a:true ~m:4 ~n:4 ~k:4 ~alpha:1.0 ~a:(Api.view ~ld:8 buf_a)
       ~b:(Api.view ~ld:8 buf_b) ~beta:0.0 ~c:(Api.view ~ld:8 buf_c) ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "transposed strided sgemm: %s" e);
  let sub m r c rows cols = Mat.init ~rows ~cols ~f:(fun i j -> Mat.get m (r + i) (c + j)) in
  let expected = Mat.create ~rows:4 ~cols:4 in
  Blas_ref.gemm ~trans_a:Blas_ref.Transpose ~alpha:1.0 ~beta:0.0 ~a:(sub a 0 0 4 4)
    ~b:(sub b 0 0 4 4) ~c:expected ();
  let actual = Api.dev_to_host api ~src:(Api.view ~ld:8 buf_c) ~rows:4 ~cols:4 in
  Alcotest.(check bool) "A^T sub-block gemm correct" true
    (Mat.max_abs_diff expected actual < 0.2)

let strided_suite =
  ( "runtime.strided",
    [ Alcotest.test_case "transposed strided views" `Quick test_api_strided_transposed ] )

let suites = suites @ [ strided_suite ]

(* The driver flushes L2 first and then L1D (see Driver.flush_caches):
   L1D's dirty lines are written back into an L2 that was just cleaned
   and stay dirty there. Every simulated latency depends on this order,
   so it is pinned here; the textbook L1-then-L2 order would leave L2
   clean. *)
let test_driver_flush_order_l2_then_l1 () =
  let p = make_platform () in
  let api = Api.init p in
  let g = Prng.create ~seed:5 in
  let a = Mat.random g ~rows:16 ~cols:16 ~lo:(-1.0) ~hi:1.0 in
  let x = Mat.random g ~rows:16 ~cols:1 ~lo:(-1.0) ~hi:1.0 in
  let alloc bytes = Result.get_ok (Api.malloc api ~bytes) in
  let buf_a = alloc (4 * 16 * 16) and buf_x = alloc (4 * 16) and buf_y = alloc (4 * 16) in
  Api.host_to_dev api ~src:a ~dst:(Api.view ~ld:16 buf_a);
  Api.host_to_dev api ~src:x ~dst:(Api.view ~ld:1 buf_x);
  let l1_dirty = Sim.Cache.dirty_lines p.Platform.l1d in
  Alcotest.(check bool) "host copies left L1D dirty" true (l1_dirty > 0);
  (match
     Api.sgemv api ~m:16 ~k:16 ~alpha:1.0 ~a:(Api.view ~ld:16 buf_a) ~x:(Api.view ~ld:1 buf_x)
       ~beta:0.0 ~y:(Api.view ~ld:1 buf_y) ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sgemv: %s" e);
  Alcotest.(check int) "one launch, one flush" 1 (Driver.cache_flushes (Api.driver api));
  Alcotest.(check int) "L1D clean after the flush" 0 (Sim.Cache.dirty_lines p.Platform.l1d);
  Alcotest.(check int) "L1D's dirty lines now dirty in L2" l1_dirty
    (Sim.Cache.dirty_lines p.Platform.l2)

let suites =
  suites
  @ [
      ( "runtime.flush_order",
        [
          Alcotest.test_case "L2 flushed before L1D" `Quick test_driver_flush_order_l2_then_l1;
        ] );
    ]
