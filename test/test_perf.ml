(* Performance-engineering suites: the single-scan cache victim
   selection, allocation pins on the access path, the domain pool, and
   the golden
   determinism guarantee (parallel experiment fan-out bit-identical to
   a sequential run). *)

open Tdo_sim
module Pool = Tdo_util.Pool
module E = Tdo_cim.Experiments
module Dataset = Tdo_polybench.Dataset

(* ---------- cache victim selection ---------- *)

let flat_next latency = fun _ ~addr:_ ~bytes:_ -> latency

(* 1 set x 4 ways x 16-byte lines: victim choice is fully observable *)
let quad_way_config =
  { Cache.name = "quad"; size_bytes = 64; line_bytes = 16; ways = 4; hit_latency_ps = 1 }

let test_cache_fills_invalid_ways_first () =
  let c = Cache.create ~config:quad_way_config ~next:(flat_next 100) () in
  (* four distinct lines: all misses, but no eviction — each miss must
     claim a still-invalid way instead of evicting a resident line *)
  List.iter (fun a -> ignore (Cache.access c Cache.Read ~addr:a)) [ 0; 16; 32; 48 ];
  Alcotest.(check int) "cold misses" 4 (Cache.stats c).Cache.misses;
  Alcotest.(check int) "no eviction while ways are free" 0 (Cache.stats c).Cache.evictions;
  (* all four still resident *)
  List.iter (fun a -> ignore (Cache.access c Cache.Read ~addr:a)) [ 0; 16; 32; 48 ];
  Alcotest.(check int) "all resident" 4 (Cache.stats c).Cache.hits

let test_cache_eviction_order_is_lru () =
  (* dirty victims write back on eviction, so the sequence of writeback
     addresses below the cache pins the eviction order exactly *)
  let victims = ref [] in
  let next op ~addr ~bytes:_ =
    if op = Cache.Write then victims := addr :: !victims;
    100
  in
  let c = Cache.create ~config:quad_way_config ~next () in
  List.iter (fun a -> ignore (Cache.access c Cache.Write ~addr:a)) [ 0; 16; 32; 48 ];
  (* touch 0 and 32 so the LRU order is 16, 48, 0, 32 *)
  ignore (Cache.access c Cache.Read ~addr:0);
  ignore (Cache.access c Cache.Read ~addr:32);
  (* four fresh lines must evict the residents in exactly LRU order *)
  List.iter (fun a -> ignore (Cache.access c Cache.Read ~addr:a)) [ 64; 80; 96; 112 ];
  Alcotest.(check (list int)) "victims in LRU order" [ 16; 48; 0; 32 ] (List.rev !victims);
  Alcotest.(check int) "four evictions" 4 (Cache.stats c).Cache.evictions;
  Alcotest.(check int) "four writebacks" 4 (Cache.stats c).Cache.writebacks

(* ---------- allocation pins on the access path ---------- *)

let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Minor words plus the words allocated straight into the major heap
   (blocks over 256 words). Promotions are left out: they depend on
   when a minor collection falls. *)
let allocated_words_of f =
  let minor0, promoted0, major0 = Gc.counters () in
  f ();
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0 -. (promoted1 -. promoted0))

let check_words name ~below words =
  Alcotest.(check bool) (Printf.sprintf "%s (%.0f minor words)" name words) true (words < below)

(* A platform builds its 32,768-line L2 per run: the line state must
   be a few flat arrays, not a record per line. *)
let test_l2_create_allocation () =
  check_words "L2 create" ~below:1000.0
    (minor_words_of (fun () ->
         ignore (Cache.create ~config:Cache.l2_arm_a7 ~next:(flat_next 1) ())))

(* The copy loops charge through [issue_run]: nothing per element or per
   line, misses through L2 and the bus included. *)
let test_issue_run_allocates_nothing () =
  let platform = Tdo_runtime.Platform.create () in
  let cpu = Tdo_runtime.Platform.cpu platform in
  (* the bus's first transfer for a master registers it *)
  Cpu.issue_at cpu ~addr:0 Cpu.Load;
  let addr = 0x10_0000 in
  check_words "cold 1,000-element issue_run" ~below:1.0
    (minor_words_of (fun () -> Cpu.issue_run cpu ~addr ~count:1000 Cpu.Store));
  check_words "warm 1,000-element issue_run" ~below:1.0
    (minor_words_of (fun () -> Cpu.issue_run cpu ~addr ~count:1000 Cpu.Load))

(* The miss chain and the flush: on a warmed platform, cold line
   misses through L1D, L2, the bus and DRAM, and the flushes that write
   dirty lines back through the same chain, allocate nothing. A boxed
   latency or a closure per miss would show. *)
let test_miss_chain_allocates_nothing () =
  let platform = Tdo_runtime.Platform.create () in
  let cpu = Tdo_runtime.Platform.cpu platform in
  let l1d = platform.Tdo_runtime.Platform.l1d and l2 = platform.Tdo_runtime.Platform.l2 in
  let flush () =
    ignore (Cache.flush l2);
    ignore (Cache.flush l1d)
  in
  (* the bus's first transfer for a master registers it *)
  Cpu.issue_at cpu ~addr:0 Cpu.Store;
  flush ();
  (* 10,000 lines, 640 KB: every line misses in both caches *)
  let base = 0x100_0000 and lines = 10_000 in
  let misses = (Cache.stats l2).Cache.misses in
  check_words "10,000 cold line misses" ~below:1.0
    (minor_words_of (fun () ->
         flush ();
         for r = 0 to 99 do
           Cpu.issue_run cpu ~addr:(base + (r * 100 * 64)) ~count:(100 * 16)
             (if r land 1 = 0 then Cpu.Load else Cpu.Store)
         done));
  Alcotest.(check int) "every line missed in L2" lines ((Cache.stats l2).Cache.misses - misses);
  let flushes = (Cache.stats l1d).Cache.flushes in
  let writebacks = (Cache.stats l1d).Cache.writebacks in
  check_words "100 flushes" ~below:1.0
    (minor_words_of (fun () ->
         for r = 0 to 99 do
           Cpu.issue_run cpu ~addr:(base + (r * 64 * 64)) ~count:(64 * 16) Cpu.Store;
           flush ()
         done));
  Alcotest.(check int) "100 flushes" 100 ((Cache.stats l1d).Cache.flushes - flushes);
  Alcotest.(check bool) "the flushes wrote lines back" true
    ((Cache.stats l1d).Cache.writebacks - writebacks >= 100 * 64)

let test_bus_transfer_allocates_nothing () =
  let b = Bus.create () in
  ignore (Bus.transfer b ~bytes:64);
  check_words "10,000 transfers" ~below:1.0
    (minor_words_of (fun () ->
         for i = 1 to 10_000 do
           ignore (Bus.transfer b ~bytes:(if i land 1 = 0 then 64 else 12))
         done))

(* f32 accesses that alternate between two written chunks, 256 and
   264, which a cache of 8 chunks indexed by the chunk number's low
   bits would map to one slot: every access finds its chunk in the
   table without allocating. *)
let test_chunk_alternation_allocates_nothing () =
  let m = Memory.create () in
  let a = 256 * 65536 and b = 264 * 65536 in
  Memory.write_f32 m a 1.0;
  Memory.write_f32 m b 2.0;
  check_words "20,000 f32 accesses over chunks 256 and 264" ~below:1.0
    (minor_words_of (fun () ->
         for i = 0 to 9_999 do
           let off = 4 * (i land 1023) in
           Memory.write_f32 m (a + off) (Memory.read_f32 m (b + off) +. 1.0)
         done));
  Alcotest.(check (float 0.0)) "written from chunk 264's first word" 3.0 (Memory.read_f32 m a);
  Alcotest.(check (float 0.0)) "written from an untouched word" 1.0 (Memory.read_f32 m (a + 4))

(* A host-only run charges its loads and stores without allocating,
   and its loop kernels allocate nothing per loop entry: on a warmed
   platform, a [Flow.o3] build of each PolyBench kernel runs for the
   same minor words at n = 8 and at n = 24, 27 times the accesses for
   gemm and 9 times the loop entries. *)
let test_host_run_allocation_is_per_run () =
  let platform = Tdo_runtime.Platform.create () in
  List.iter
    (fun name ->
      let b = Result.get_ok (Tdo_polybench.Kernels.find name) in
      let words n =
        let f, _ = Tdo_cim.Flow.compile ~options:Tdo_cim.Flow.o3 (b.Tdo_polybench.Kernels.source ~n) in
        let program = Tdo_ir.Exec.prepare f in
        let args, _ = b.Tdo_polybench.Kernels.make_args ~n ~seed:5 in
        ignore (Tdo_ir.Exec.exec program ~platform ~args);
        minor_words_of (fun () -> ignore (Tdo_ir.Exec.exec program ~platform ~args))
      in
      Alcotest.(check (float 0.0)) (name ^ ": the same minor words at n = 8 and 24") (words 8)
        (words 24))
    (List.map (fun (b : Tdo_polybench.Kernels.benchmark) -> b.Tdo_polybench.Kernels.name)
       Tdo_polybench.Kernels.all)

(* [prepare] compiles each statement once: the loop kernels are an
   analysis of the sites the per-iteration compile built, so
   [Exec.prepare] allocates more than [Exec.prepare_reference], which
   builds no kernel, but not twice as much. *)
let test_prepare_compiles_once () =
  List.iter
    (fun (b : Tdo_polybench.Kernels.benchmark) ->
      let f, _ = Tdo_cim.Flow.compile ~options:Tdo_cim.Flow.o3 (b.Tdo_polybench.Kernels.source ~n:24) in
      let words prepare = minor_words_of (fun () -> ignore (prepare f)) in
      let reference = words Tdo_ir.Exec.prepare_reference and kernels = words Tdo_ir.Exec.prepare in
      if not (kernels > reference && kernels <= 1.6 *. reference) then
        Alcotest.failf "%s: prepare %.0f minor words, prepare_reference %.0f (%.2fx)"
          b.Tdo_polybench.Kernels.name kernels reference (kernels /. reference))
    Tdo_polybench.Kernels.all

(* An offloaded launch allocates per launch, not per streamed vector
   or per gathered patch: on a warmed platform, a
   [Flow.o3_loop_tactics] run allocates the same words, within a few,
   at n = 8 and at n = 32, counting the blocks allocated straight into
   the major heap, where a per-launch buffer of a conv's patches
   would go. That is four times the vectors for
   gemm, and for conv 64 against 1,024 streamed vectors, each gathered
   by one im2col. The engine has no event log attached, as on every
   serving device, so it records no event. *)
let test_offloaded_run_allocation_is_per_launch () =
  let platform = Tdo_runtime.Platform.create () in
  List.iter
    (fun name ->
      let b = Result.get_ok (Tdo_polybench.Kernels.find name) in
      let words n =
        let f, _ =
          Tdo_cim.Flow.compile ~options:Tdo_cim.Flow.o3_loop_tactics
            (b.Tdo_polybench.Kernels.source ~n)
        in
        let program = Tdo_ir.Exec.prepare f in
        let args, _ = b.Tdo_polybench.Kernels.make_args ~n ~seed:5 in
        ignore (Tdo_ir.Exec.exec program ~platform ~args);
        allocated_words_of (fun () -> ignore (Tdo_ir.Exec.exec program ~platform ~args))
      in
      let w8 = words 8 and w32 = words 32 in
      if Float.abs (w32 -. w8) > 8.0 then
        Alcotest.failf "%s launch: %.0f words at n = 8, %.0f at n = 32" name w8 w32)
    [ "gemm"; "conv" ]

(* A register write allocates nothing: the word travels as an
   unboxed int from the driver through the IO space into the register
   file. *)
let test_register_write_allocates_nothing () =
  let platform = Tdo_runtime.Platform.create () in
  let mmio = platform.Tdo_runtime.Platform.mmio in
  let addr =
    platform.Tdo_runtime.Platform.config.Tdo_runtime.Platform.register_base
    + (4 * Tdo_cimacc.Context_regs.reg_m)
  in
  Mmio.write mmio ~addr 1;
  check_words "1,000 register writes" ~below:1.0
    (minor_words_of (fun () ->
         for v = 1 to 1_000 do
           Mmio.write mmio ~addr (v lsl 20)
         done))

(* [Api.malloc] and [Api.free] allocate the buffer record and the
   results that carry it, not a free-list or live-table entry: 16 words
   or fewer per pair, with other buffers live around it. *)
let test_malloc_free_pair () =
  let module Api = Tdo_runtime.Api in
  let api = Api.init (Tdo_runtime.Platform.create ()) in
  let malloc bytes = Result.get_ok (Api.malloc api ~bytes) in
  let held = List.map malloc [ 4096; 100; 2304 ] in
  Api.free api (List.nth held 1);
  let pair () = Api.free api (malloc 1024) in
  pair ();
  let words = minor_words_of (fun () -> for _ = 1 to 100 do pair () done) /. 100.0 in
  check_words "an Api.malloc + Api.free pair" ~below:16.5 words

(* The launch path allocates per launch its job descriptors, and per
   device buffer the buffer and its whole-array view: a warm resident
   MLP request on a 4-tile pcm device, as graph serving runs it, costs
   at most 100 words in [Device.run] per dense layer (MLP-8 against
   MLP-4: one launch, two device buffers, their copies) and at most
   1,100 words in all for MLP-4. Each figure is the least of three
   warm runs. *)
let warm_mlp_run_words ~layers =
  let module Graph = Tdo_graph.Graph in
  let module Device = Tdo_serve.Device in
  let module Kernel_cache = Tdo_serve.Kernel_cache in
  let module Kernels = Tdo_polybench.Kernels in
  let bench = Graph.benchmark (Graph.mlp ~layers ()) and n = 24 in
  let d = Tdo_runtime.Platform.default_config in
  let engine = { d.Tdo_runtime.Platform.engine with Tdo_cimacc.Micro_engine.tiles = 4 } in
  let dev =
    Device.create ~platform_config:{ d with Tdo_runtime.Platform.engine } ~id:0 ()
  in
  let entry = Kernel_cache.find_or_compile (Kernel_cache.create ()) (bench.Kernels.source ~n) in
  let residency = entry.Kernel_cache.key ^ "#t1" in
  let run seed =
    let args, _ = bench.Kernels.make_args ~n ~seed in
    minor_words_of (fun () ->
        ignore (Device.run ~residency dev entry.Kernel_cache.compiled ~args : Device.exec_stats))
  in
  ignore (run 1 +. run 2);
  List.fold_left Float.min Float.infinity (List.init 3 (fun i -> run (3 + i)))

let test_launch_path_words_per_layer () =
  let mlp4 = warm_mlp_run_words ~layers:4 and mlp8 = warm_mlp_run_words ~layers:8 in
  check_words "MLP-4's Device.run" ~below:1100.5 mlp4;
  check_words "each dense layer beyond the fourth" ~below:100.5 ((mlp8 -. mlp4) /. 4.0)

(* ---------- domain pool ---------- *)

let qcheck_pool_order_preserved =
  QCheck.Test.make ~name:"parallel_map preserves order" ~count:100
    QCheck.(pair (int_range 1 4) (list_of_size Gen.(0 -- 50) small_int))
    (fun (workers, xs) ->
      Pool.parallel_map ~workers (fun x -> (2 * x) + 1) xs
      = List.map (fun x -> (2 * x) + 1) xs)

let qcheck_pool_deterministic_across_sizes =
  QCheck.Test.make ~name:"same results for pool sizes 1/2/N" ~count:50
    QCheck.(list_of_size Gen.(0 -- 30) small_int)
    (fun xs ->
      let f x = Printf.sprintf "%d->%d" x (x * x) in
      let r1 = Pool.parallel_map ~workers:1 f xs in
      let r2 = Pool.parallel_map ~workers:2 f xs in
      let rn = Pool.parallel_map f xs in
      r1 = r2 && r2 = rn)

exception Boom of int

let qcheck_pool_first_exception_wins =
  QCheck.Test.make ~name:"earliest failing element's exception propagates" ~count:50
    QCheck.(pair (int_range 1 4) (list_of_size Gen.(1 -- 30) (int_bound 20)))
    (fun (workers, xs) ->
      let f x = if x mod 3 = 0 then raise (Boom x) else x in
      let expected = List.find_opt (fun x -> x mod 3 = 0) xs in
      match (Pool.parallel_map ~workers f xs, expected) with
      | _, None -> true (* no element raises; the map must succeed *)
      | _, Some _ -> false (* an element raises; success is wrong *)
      | exception Boom b -> Some b = expected)

let test_pool_nested_runs_sequentially () =
  (* inner maps run on worker domains without spawning more domains —
     and without deadlock *)
  let result =
    Pool.parallel_map ~workers:2
      (fun i -> Pool.parallel_map ~workers:2 (fun j -> (10 * i) + j) [ 1; 2; 3 ])
      [ 1; 2 ]
  in
  Alcotest.(check (list (list int))) "nested maps" [ [ 11; 12; 13 ]; [ 21; 22; 23 ] ] result

let test_pool_sequential_override () =
  Pool.set_sequential (Some true);
  Alcotest.(check bool) "override on" true (Pool.sequential ());
  let r = Pool.parallel_map (fun x -> x + 1) [ 1; 2; 3 ] in
  Pool.set_sequential None;
  Alcotest.(check (list int)) "sequential map still correct" [ 2; 3; 4 ] r

(* The pool re-reads the environment on every [size] call, so these
   tests can flip the variable in-process. There is no unsetenv in the
   stdlib; the final state ("") parses as no override, which is the
   same behaviour as an absent variable. *)
let test_pool_domains_override () =
  Fun.protect
    ~finally:(fun () -> Unix.putenv "TDO_DOMAINS" "")
    (fun () ->
      Unix.putenv "TDO_DOMAINS" "3";
      Alcotest.(check int) "explicit override honoured" 3 (Pool.size ());
      Unix.putenv "TDO_DOMAINS" "1";
      Alcotest.(check int) "minimum accepted" 1 (Pool.size ());
      Unix.putenv "TDO_DOMAINS" "0";
      Alcotest.(check int) "zero clamps to 1" 1 (Pool.size ());
      Unix.putenv "TDO_DOMAINS" "-7";
      Alcotest.(check int) "negative clamps to 1" 1 (Pool.size ());
      Unix.putenv "TDO_DOMAINS" "not-a-number";
      Alcotest.(check bool) "garbage falls back to >= 1" true (Pool.size () >= 1);
      Unix.putenv "TDO_DOMAINS" "";
      Alcotest.(check bool) "empty falls back to >= 1" true (Pool.size () >= 1))

let test_pool_domains_map () =
  Fun.protect
    ~finally:(fun () -> Unix.putenv "TDO_DOMAINS" "")
    (fun () ->
      Unix.putenv "TDO_DOMAINS" "2";
      let xs = List.init 17 Fun.id in
      Alcotest.(check (list int))
        "map under pinned domain count preserves order"
        (List.map (fun x -> x * x) xs)
        (Pool.parallel_map (fun x -> x * x) xs))

let test_pool_large_map_chunked () =
  (* large enough that the chunked cursor hands out many chunks per
     worker; order and content must still be exact *)
  let n = 10_000 in
  let xs = List.init n Fun.id in
  let got = Pool.parallel_map ~workers:4 (fun x -> (x * 2) + 1) xs in
  Alcotest.(check bool) "10k-element map is order-exact" true
    (got = List.map (fun x -> (x * 2) + 1) xs)

(* ---------- golden determinism: parallel == sequential ---------- *)

let with_pool_mode seq f =
  Pool.set_sequential (Some seq);
  Fun.protect ~finally:(fun () -> Pool.set_sequential None) f

let check_measurement name (a : Tdo_cim.Flow.measurement) (b : Tdo_cim.Flow.measurement) =
  Alcotest.(check int) (name ^ " roi_instructions") a.roi_instructions b.roi_instructions;
  Alcotest.(check int) (name ^ " roi_cycles") a.roi_cycles b.roi_cycles;
  Alcotest.(check (float 0.0)) (name ^ " time_s") a.time_s b.time_s;
  Alcotest.(check (float 0.0)) (name ^ " energy_j") a.energy_j b.energy_j;
  Alcotest.(check (float 0.0)) (name ^ " edp_js") a.edp_js b.edp_js;
  Alcotest.(check int) (name ^ " launches") a.launches b.launches;
  Alcotest.(check int) (name ^ " cim_macs") a.cim_macs b.cim_macs;
  Alcotest.(check int) (name ^ " cim_write_bytes") a.cim_write_bytes b.cim_write_bytes;
  Alcotest.(check bool) (name ^ " full record") true (a = b)

let test_fig6_parallel_matches_sequential () =
  let dataset = Dataset.Small in
  let seq_rows, seq_summary = with_pool_mode true (fun () -> E.fig6 ~dataset ()) in
  let par_rows, par_summary = with_pool_mode false (fun () -> E.fig6 ~dataset ()) in
  Alcotest.(check int) "row count" (List.length seq_rows) (List.length par_rows);
  List.iter2
    (fun (s : E.fig6_row) (p : E.fig6_row) ->
      Alcotest.(check string) "kernel" s.kernel p.kernel;
      check_measurement (s.kernel ^ " host") s.host p.host;
      check_measurement (s.kernel ^ " cim") s.cim p.cim;
      Alcotest.(check (float 0.0)) (s.kernel ^ " energy gain") s.energy_improvement
        p.energy_improvement;
      Alcotest.(check (float 0.0)) (s.kernel ^ " edp gain") s.edp_improvement p.edp_improvement;
      Alcotest.(check (float 0.0)) (s.kernel ^ " perf gain") s.perf_improvement
        p.perf_improvement;
      Alcotest.(check (float 0.0)) (s.kernel ^ " max err") s.max_abs_error p.max_abs_error)
    seq_rows par_rows;
  Alcotest.(check (float 0.0)) "geomean energy" seq_summary.geomean_energy_improvement
    par_summary.geomean_energy_improvement;
  Alcotest.(check (float 0.0)) "selective geomean"
    seq_summary.selective_geomean_energy_improvement
    par_summary.selective_geomean_energy_improvement;
  Alcotest.(check (float 0.0)) "geomean edp" seq_summary.geomean_edp_improvement
    par_summary.geomean_edp_improvement;
  Alcotest.(check (float 0.0)) "max edp" seq_summary.max_edp_improvement
    par_summary.max_edp_improvement

let test_fig5_rerun_identical () =
  let r1 = E.fig5 ~n:24 () in
  let r2 = E.fig5 ~n:24 () in
  Alcotest.(check bool) "a rerun is bit-identical" true (r1 = r2)

let test_fig5_parallel_matches_sequential () =
  let n = 32 in
  let seq_rows, seq_meta = with_pool_mode true (fun () -> E.fig5 ~n ()) in
  let par_rows, par_meta = with_pool_mode false (fun () -> E.fig5 ~n ()) in
  List.iter2
    (fun (s : E.fig5_row) (p : E.fig5_row) ->
      Alcotest.(check (float 0.0)) "endurance" s.endurance_millions p.endurance_millions;
      Alcotest.(check (float 0.0)) "naive years" s.naive_years p.naive_years;
      Alcotest.(check (float 0.0)) "smart years" s.smart_years p.smart_years)
    seq_rows par_rows;
  Alcotest.(check int) "naive writes" seq_meta.naive_write_bytes par_meta.naive_write_bytes;
  Alcotest.(check int) "smart writes" seq_meta.smart_write_bytes par_meta.smart_write_bytes;
  Alcotest.(check (float 0.0)) "naive traffic" seq_meta.naive_traffic_bytes_per_s
    par_meta.naive_traffic_bytes_per_s;
  Alcotest.(check (float 0.0)) "smart traffic" seq_meta.smart_traffic_bytes_per_s
    par_meta.smart_traffic_bytes_per_s

let suites =
  [
    ( "perf.cache_victim",
      [
        Alcotest.test_case "invalid ways first" `Quick test_cache_fills_invalid_ways_first;
        Alcotest.test_case "LRU eviction order" `Quick test_cache_eviction_order_is_lru;
      ] );
    ( "perf.alloc_pins",
      [
        Alcotest.test_case "L2 create" `Quick test_l2_create_allocation;
        Alcotest.test_case "issue_run" `Quick test_issue_run_allocates_nothing;
        Alcotest.test_case "miss chain and flush" `Quick test_miss_chain_allocates_nothing;
        Alcotest.test_case "bus transfer" `Quick test_bus_transfer_allocates_nothing;
        Alcotest.test_case "chunk alternation" `Quick test_chunk_alternation_allocates_nothing;
        Alcotest.test_case "host-only runs" `Quick test_host_run_allocation_is_per_run;
        Alcotest.test_case "offloaded runs" `Quick test_offloaded_run_allocation_is_per_launch;
        Alcotest.test_case "prepare compiles each statement once" `Quick
          test_prepare_compiles_once;
        Alcotest.test_case "register write" `Quick test_register_write_allocates_nothing;
        Alcotest.test_case "malloc and free" `Quick test_malloc_free_pair;
        Alcotest.test_case "launch path per dense layer" `Quick test_launch_path_words_per_layer;
      ] );
    ( "perf.pool",
      [
        QCheck_alcotest.to_alcotest qcheck_pool_order_preserved;
        QCheck_alcotest.to_alcotest qcheck_pool_deterministic_across_sizes;
        QCheck_alcotest.to_alcotest qcheck_pool_first_exception_wins;
        Alcotest.test_case "nested maps" `Quick test_pool_nested_runs_sequentially;
        Alcotest.test_case "sequential override" `Quick test_pool_sequential_override;
        Alcotest.test_case "TDO_DOMAINS override and clamping" `Quick test_pool_domains_override;
        Alcotest.test_case "parallel_map under TDO_DOMAINS" `Quick test_pool_domains_map;
        Alcotest.test_case "10k-element chunked map" `Quick test_pool_large_map_chunked;
      ] );
    ( "perf.golden_determinism",
      [
        Alcotest.test_case "fig6 parallel == sequential" `Slow
          test_fig6_parallel_matches_sequential;
        Alcotest.test_case "fig5 parallel == sequential" `Quick
          test_fig5_parallel_matches_sequential;
        Alcotest.test_case "fig5 rerun identical" `Quick test_fig5_rerun_identical;
      ] );
  ]
