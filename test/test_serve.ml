open Tdo_serve
module Backend = Tdo_backend.Backend
module Pool = Tdo_util.Pool
module Wear_leveling = Tdo_pcm.Wear_leveling
module Endurance = Tdo_pcm.Endurance
module Kernels = Tdo_polybench.Kernels
module Flow = Tdo_cim.Flow
module Parser = Tdo_lang.Parser
module Mat = Tdo_linalg.Mat
module Offload = Tdo_tactics.Offload

(* ---------- Pool sizing: TDO_DOMAINS override ---------- *)

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

(* ---------- Wear-leveling / endurance read-only stats ---------- *)

let test_wear_leveling_stats () =
  let wl = Wear_leveling.create ~lines:8 ~gap_interval:4 in
  for i = 0 to 99 do
    Wear_leveling.write wl (i mod 8)
  done;
  let s = Wear_leveling.stats wl in
  Alcotest.(check int) "writes mirrors total_writes" (Wear_leveling.total_writes wl) s.Wear_leveling.writes;
  Alcotest.(check int) "all writes recorded" 100 s.Wear_leveling.writes;
  Alcotest.(check int) "max mirrors max_wear" (Wear_leveling.max_wear wl) s.Wear_leveling.max_per_cell;
  Alcotest.(check int) "remaps mirrors gap_movements" (Wear_leveling.gap_movements wl) s.Wear_leveling.remaps;
  Alcotest.(check int) "gap moved every interval" 25 s.Wear_leveling.remaps

let test_endurance_tracker () =
  let tr = Endurance.Tracker.create ~cell_endurance:10.0 ~crossbar_bytes:100 in
  Alcotest.(check int) "starts empty" 0 (Endurance.Tracker.bytes_written tr);
  Alcotest.(check (float 1e-9)) "zero budget before writes" 0.0 (Endurance.Tracker.budget_consumed tr);
  Alcotest.(check bool) "no lifetime before first write" true
    (Endurance.Tracker.lifetime_years tr ~elapsed_seconds:1.0 = None);
  Endurance.Tracker.record tr ~bytes:300;
  Endurance.Tracker.record tr ~bytes:200;
  Alcotest.(check int) "bytes accumulate" 500 (Endurance.Tracker.bytes_written tr);
  Alcotest.(check int) "events counted" 2 (Endurance.Tracker.events tr);
  (* budget = bytes / (endurance * capacity) = 500 / 1000 *)
  Alcotest.(check (float 1e-9)) "budget fraction" 0.5 (Endurance.Tracker.budget_consumed tr);
  (match Endurance.Tracker.lifetime_years tr ~elapsed_seconds:2.0 with
  | None -> Alcotest.fail "lifetime expected after writes"
  | Some y ->
      let expected =
        Endurance.lifetime_years ~cell_endurance:10.0 ~crossbar_bytes:100
          ~write_bytes_per_second:(500.0 /. 2.0)
      in
      Alcotest.(check (float 1e-9)) "matches Eq. 1 directly" expected y);
  Alcotest.(check bool) "negative record rejected" true
    (try
       Endurance.Tracker.record tr ~bytes:(-1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "degenerate tracker rejected" true
    (try
       ignore (Endurance.Tracker.create ~cell_endurance:0.0 ~crossbar_bytes:100);
       false
     with Invalid_argument _ -> true)

(* ---------- Kernel cache ---------- *)

let gemm_source ~n =
  match Kernels.find "gemm" with
  | Ok b -> b.Kernels.source ~n
  | Error e -> Alcotest.fail e

(* Same program, different formatting: extra blank lines, leading
   indentation, doubled interior spaces. The structural key digests the
   parsed AST, so these must collide. *)
let mangle_whitespace src =
  let doubled =
    String.concat "  " (String.split_on_char ' ' src)
  in
  "\n\n   " ^ String.concat "\n\n" (String.split_on_char '\n' doubled) ^ "\n\n"

let test_cache_structural_hits () =
  let cache = Kernel_cache.create ~capacity:8 () in
  let src = gemm_source ~n:8 in
  let e1 = Kernel_cache.find_or_compile cache src in
  let e2 = Kernel_cache.find_or_compile cache src in
  let e3 = Kernel_cache.find_or_compile cache (mangle_whitespace src) in
  Alcotest.(check string) "identical source, same key" e1.Kernel_cache.key e2.Kernel_cache.key;
  Alcotest.(check string) "reformatted source, same key" e1.Kernel_cache.key e3.Kernel_cache.key;
  let s = Kernel_cache.stats cache in
  Alcotest.(check int) "one compile" 1 s.Kernel_cache.misses;
  Alcotest.(check int) "two hits" 2 s.Kernel_cache.hits;
  Alcotest.(check int) "one resident entry" 1 s.Kernel_cache.entries;
  (* a semantic change (different problem size) must miss *)
  let e4 = Kernel_cache.find_or_compile cache (gemm_source ~n:12) in
  Alcotest.(check bool) "different size, different key" true
    (e4.Kernel_cache.key <> e1.Kernel_cache.key);
  Alcotest.(check int) "second compile" 2 (Kernel_cache.stats cache).Kernel_cache.misses

let test_cache_key_depends_on_options () =
  let ast = Parser.parse_func (gemm_source ~n:8) in
  let opts = Flow.o3_loop_tactics in
  let k1 = Kernel_cache.structural_key ~options:opts ast in
  let k2 =
    Kernel_cache.structural_key ~options:{ opts with Flow.enable_loop_tactics = false } ast
  in
  Alcotest.(check bool) "tactics config is part of the key" true (k1 <> k2);
  Alcotest.(check string) "key is stable" k1 (Kernel_cache.structural_key ~options:opts ast)

let test_cache_lru_eviction () =
  let cache = Kernel_cache.create ~capacity:1 () in
  ignore (Kernel_cache.find_or_compile cache (gemm_source ~n:8));
  ignore (Kernel_cache.find_or_compile cache (gemm_source ~n:12));
  let s = Kernel_cache.stats cache in
  Alcotest.(check int) "capacity enforced" 1 s.Kernel_cache.entries;
  Alcotest.(check int) "first entry evicted" 1 s.Kernel_cache.evictions;
  ignore (Kernel_cache.find_or_compile cache (gemm_source ~n:8));
  Alcotest.(check int) "evicted entry recompiles" 3
    (Kernel_cache.stats cache).Kernel_cache.misses

let all_classes = [ Backend.Pcm_crossbar; Backend.Digital_tile; Backend.Host_blas ]

(* every class on a default-sized crossbar, as the scheduler passes
   its fleet to the cache *)
let all_geometries = List.map (fun cls -> (cls, (256, 256))) all_classes

(* Two tuned configurations that differ from the default and from each
   other. *)
let pcm_config = { Offload.default_config with Offload.xbar_rows = 64 }
let digital_config = { Offload.default_config with Offload.enable_fusion = false }

(* A tuning database holding [config] for GEMM at size [n] on class
   [cls], for each [(cls, n, config)]. *)
let tuned_db points =
  List.fold_left
    (fun db (cls, n, config) ->
      Tdo_tune.Db.add db
        {
          Tdo_tune.Db.digest = Tdo_lang.Ast.structural_digest (Parser.parse_func (gemm_source ~n));
          kernel = "gemm";
          n;
          device_class = cls;
          objective = "cycles";
          config;
          tuned_cycles = 0;
          default_cycles = 0;
          tuned_write_bytes = 0;
          default_write_bytes = 0;
          calibration_error = 0.0;
        })
    Tdo_tune.Db.empty points

(* Without a tuning database every class compiles a program the same
   way, so the analog crossbar, the digital tile and the host share one
   entry; the compile remembers its text for all three classes. *)
let test_cache_key_is_options_not_class () =
  let cache = Kernel_cache.create ~capacity:8 ~geometries:all_geometries () in
  let src = gemm_source ~n:8 in
  let p = Kernel_cache.find_or_compile cache ~cls:Backend.Pcm_crossbar src in
  let d = Kernel_cache.find_or_compile cache ~cls:Backend.Digital_tile src in
  let h = Kernel_cache.find_or_compile cache ~cls:Backend.Host_blas src in
  Alcotest.(check bool) "one entry serves every class" true (p == d && d == h);
  let s = Kernel_cache.stats cache in
  Alcotest.(check (list int)) "hits, misses, entries" [ 2; 1; 1 ]
    [ s.Kernel_cache.hits; s.Kernel_cache.misses; s.Kernel_cache.entries ];
  Alcotest.(check int) "the text is remembered once per class" 3 (Kernel_cache.memoised cache)

(* Eviction order with mixed-class entries: tuned configurations give
   pcm, digital and host three distinct entries for one source, and
   LRU is over entries uniformly — touching the pcm entry protects it
   while the digital and host entries get cycled out. *)
let test_cache_mixed_class_eviction_order () =
  let tuning =
    tuned_db [ (Backend.Pcm_crossbar, 8, pcm_config); (Backend.Digital_tile, 8, digital_config) ]
  in
  let cache = Kernel_cache.create ~capacity:2 ~tuning ~geometries:all_geometries () in
  let src = gemm_source ~n:8 in
  ignore (Kernel_cache.find_or_compile cache ~cls:Backend.Pcm_crossbar src);
  ignore (Kernel_cache.find_or_compile cache ~cls:Backend.Digital_tile src);
  (* touch pcm: digital becomes LRU *)
  ignore (Kernel_cache.find_or_compile cache ~cls:Backend.Pcm_crossbar src);
  ignore (Kernel_cache.find_or_compile cache ~cls:Backend.Host_blas src);
  let s = Kernel_cache.stats cache in
  Alcotest.(check int) "capacity holds two classes" 2 s.Kernel_cache.entries;
  Alcotest.(check int) "digital (LRU) evicted, not pcm" 1 s.Kernel_cache.evictions;
  (* touch pcm again so host becomes LRU, then recompile digital:
     the hit must have refreshed pcm's recency, so host is the victim *)
  ignore (Kernel_cache.find_or_compile cache ~cls:Backend.Pcm_crossbar src);
  ignore (Kernel_cache.find_or_compile cache ~cls:Backend.Digital_tile src);
  Alcotest.(check int) "evicted class recompiles" 4
    (Kernel_cache.stats cache).Kernel_cache.misses;
  Alcotest.(check int) "host cycled out in turn" 2
    (Kernel_cache.stats cache).Kernel_cache.evictions;
  (* pcm was most-recently-used through the whole dance: still resident *)
  ignore (Kernel_cache.find_or_compile cache ~cls:Backend.Pcm_crossbar src);
  let s = Kernel_cache.stats cache in
  Alcotest.(check int) "pcm survived as MRU" 4 s.Kernel_cache.misses;
  Alcotest.(check int) "three hits total" 3 s.Kernel_cache.hits;
  (* the remembered sources follow the resident entries: the evicted
     host entry's text is forgotten, so looking it up again misses and
     recompiles rather than returning a stale key *)
  Alcotest.(check int) "one remembered source per entry" 2 (Kernel_cache.memoised cache);
  ignore (Kernel_cache.find_or_compile cache ~cls:Backend.Host_blas src);
  let s = Kernel_cache.stats cache in
  Alcotest.(check int) "evicted host entry recompiles" 5 s.Kernel_cache.misses;
  Alcotest.(check int) "digital (now LRU) evicted" 3 s.Kernel_cache.evictions;
  Alcotest.(check int) "memo bounded by capacity" 2 (Kernel_cache.memoised cache)

(* Remembering the source that compiled an entry changes what a hit
   costs, not what it returns: against a one-entry cache where pcm is
   tuned and digital and host are not, the same lookups give the same
   entries, counters and evictions whether the text is a remembered one
   or a reformatted twin that has to be parsed. *)
let test_cache_memo_hits_and_evictions () =
  let tuning = tuned_db [ (Backend.Pcm_crossbar, 8, pcm_config) ] in
  let cache = Kernel_cache.create ~capacity:1 ~tuning ~geometries:all_geometries () in
  let a = gemm_source ~n:8 in
  let e1 = Kernel_cache.find_or_compile cache ~cls:Backend.Digital_tile a in
  Alcotest.(check int) "remembered for both untuned classes" 2 (Kernel_cache.memoised cache);
  let e2 = Kernel_cache.find cache ~cls:Backend.Host_blas (Kernel_cache.parse a) in
  Alcotest.(check bool) "the other untuned class gets the same entry" true (e1 == e2);
  let e3 = Kernel_cache.find_or_compile cache ~cls:Backend.Host_blas (mangle_whitespace a) in
  Alcotest.(check bool) "reformatted twin hits the same entry" true (e1 == e3);
  Alcotest.(check int) "only the compiling text is remembered" 2 (Kernel_cache.memoised cache);
  let tuned = Kernel_cache.find_or_compile cache ~cls:Backend.Pcm_crossbar a in
  Alcotest.(check bool) "the tuned class compiles its own entry" true
    (tuned.Kernel_cache.tuned && tuned.Kernel_cache.key <> e1.Kernel_cache.key);
  let s = Kernel_cache.stats cache in
  Alcotest.(check (list int)) "hits, misses, evictions" [ 2; 2; 1 ]
    [ s.Kernel_cache.hits; s.Kernel_cache.misses; s.Kernel_cache.evictions ];
  Alcotest.(check int) "evicted texts forgotten" 1 (Kernel_cache.memoised cache);
  let e4 = Kernel_cache.find_or_compile cache ~cls:Backend.Host_blas a in
  Alcotest.(check bool) "re-lookup after eviction recompiles" true (e4 != e1);
  Alcotest.(check string) "to the same key" e1.Kernel_cache.key e4.Kernel_cache.key;
  Alcotest.(check int) "third compile" 3 (Kernel_cache.stats cache).Kernel_cache.misses

(* qcheck: against a tuning database with a pcm-only configuration at
   one size and a different digital configuration at the other,
   whatever interleaving of classes and sizes hits the cache — through
   evictions forced by a tiny capacity — every returned entry is
   compiled under the looked-up class's own effective options, so a
   configuration tuned for class A never serves class B. *)
let qcheck_cache_never_crosses_class =
  let lookup_gen =
    QCheck.Gen.(list_size (2 -- 12) (triple (oneofl all_classes) (oneofl [ 8; 12 ]) bool))
  in
  let print lookups =
    String.concat ";"
      (List.map
         (fun (cls, n, reformatted) ->
           Printf.sprintf "%s@%d%s" (Backend.class_name cls) n (if reformatted then "'" else ""))
         lookups)
  in
  let default = Flow.o3_loop_tactics in
  let tuning =
    tuned_db [ (Backend.Pcm_crossbar, 8, pcm_config); (Backend.Digital_tile, 12, digital_config) ]
  in
  let effective cls n =
    match (cls, n) with
    | Backend.Pcm_crossbar, 8 -> { default with Flow.tactics = pcm_config }
    | Backend.Digital_tile, 12 -> { default with Flow.tactics = digital_config }
    | _ -> default
  in
  QCheck.Test.make ~name:"cache entry compiled for class A never serves class B" ~count:15
    (QCheck.make ~print lookup_gen)
    (fun lookups ->
      let capacity = 2 in
      let cache =
        Kernel_cache.create ~capacity ~options:default ~tuning ~geometries:all_geometries ()
      in
      (* reference LRU over (n, effective options), most recent first:
         the counters must follow it whether a lookup hits through a
         remembered text or through a parse of a reformatted twin *)
      let lru = ref [] and hits = ref 0 and misses = ref 0 and evictions = ref 0 in
      List.for_all
        (fun (cls, n, reformatted) ->
          let src = gemm_source ~n in
          let e =
            Kernel_cache.find_or_compile cache ~cls
              (if reformatted then mangle_whitespace src else src)
          in
          let options = effective cls n in
          let k = (n, options) in
          if List.mem k !lru then begin
            incr hits;
            lru := k :: List.filter (fun k' -> k' <> k) !lru
          end
          else begin
            incr misses;
            if List.length !lru >= capacity then begin
              incr evictions;
              lru := List.filteri (fun i _ -> i < capacity - 1) !lru
            end;
            lru := k :: !lru
          end;
          let s = Kernel_cache.stats cache in
          e.Kernel_cache.options = options
          && e.Kernel_cache.tuned = (options <> default)
          && e.Kernel_cache.key = Kernel_cache.structural_key ~options (Parser.parse_func src)
          && (s.Kernel_cache.hits, s.Kernel_cache.misses, s.Kernel_cache.evictions)
             = (!hits, !misses, !evictions)
          && Kernel_cache.memoised cache <= capacity * List.length all_classes)
        lookups)

(* ---------- Byte-identity pins ----------

   Digests produced by the implementation before the request path's
   element loops were rewritten as plain loops over flat arrays. The
   checksum covers "<rows>x<cols>;" and each element's 8 little-endian
   IEEE bytes in row-major order, so any change in the generated data,
   the readback copies, the device result or the digest input shows. *)

let test_output_checksum_pinned () =
  let m1 = Mat.of_arrays [| [| -1.25; 0.5; 3.0 |]; [| 1e-3; -0.0; 3.14159 |] |] in
  let m2 = Mat.of_arrays [| [| 42.0 |]; [| -7.5e10 |] |] in
  Alcotest.(check string) "two-matrix digest" "20f310359cd818588f537837daadcd58"
    (Scheduler.output_checksum [ m1; m2 ])

let pinned_benches =
  [
    ("2mm", "da58fff952461c1879688848f070b61a", "412eab76a778409fb5884496abe88913");
    ("3mm", "ab4cbb6585123af69f6227501af7f4de", "8cbd67bcebf3bdb8865ab548a71fed1b");
    ("gemm", "f387c342dc390f4e6a783f6a86145ffd", "4c3ebefe13e356f8952b4a2f41bfdac4");
    ("conv", "332e025a627c95a0b07d6fa242c83c26", "65a1129f50d1929a4447eb476816489d");
    ("gesummv", "4ec4146668ce833aa62ee1eb5059a4d6", "9aef93b413628523fb3acd22affdbcfa");
    ("bicg", "349fc2c89e03a07f88525ab323e94f68", "84a0f6a6438e7d1090adc8e8feeb0d7c");
    ("mvt", "c4a956f1ae0e32f9af1a91d69fa5fbc8", "adf04b9a1607d0215027d54db07906b1");
    ("graph:mlp4", "7e913d3f86ad1da452e9869f3b70fef0", "818bcc54d526214ff80f4b5557187bd0");
    ("graph:attn", "93a6c192dc1a58a46fa54d3be62c22dc", "275e4d3ec1a60f3093f2ce3abd758997");
  ]

let find_any_bench name =
  match Tdo_graph.Graph.find_bench name with Ok b -> b | Error e -> Alcotest.fail e

(* make_args at (n = 8, seed = 5): every array argument, then the
   readback, before anything runs *)
let test_make_args_readback_pinned () =
  Alcotest.(check int) "every PolyBench kernel pinned" (List.length Kernels.all)
    (List.length pinned_benches - 2);
  List.iter
    (fun (name, expected, _) ->
      let b = find_any_bench name in
      let args, readback = b.Kernels.make_args ~n:8 ~seed:5 in
      let arrays =
        List.filter_map
          (fun (_, v) ->
            match v with
            | Tdo_lang.Interp.Varray a -> Some (Kernels.mat_of_vec a)
            | Tdo_lang.Interp.Vint _ | Tdo_lang.Interp.Vfloat _ -> None)
          args
      in
      Alcotest.(check string) name expected (Scheduler.output_checksum (arrays @ readback ())))
    pinned_benches

(* the same inputs served once on a fresh device of each CIM class:
   output digest, simulated service time and crossbar write bytes *)
let test_device_run_pinned () =
  let service =
    [
      ("2mm", (167338386, 127708386, 128));
      ("3mm", (190736940, 131291940, 192));
      ("gemm", (85662513, 65847513, 64));
      ("conv", (94306691, 74586691, 9));
      ("gesummv", (102709601, 63079601, 128));
      ("bicg", (157318212, 117688212, 128));
      ("mvt", (158344028, 118714028, 128));
      ("graph:mlp4", (316791140, 237531140, 256));
      ("graph:attn", (206225561, 126965561, 256));
    ]
  in
  List.iter
    (fun (name, _, expected) ->
      let b = find_any_bench name in
      let pcm_ps, digital_ps, write_bytes = List.assoc name service in
      List.iter
        (fun (backend, ps) ->
          let dev = Device.create ~backend ~id:0 () in
          let cache = Kernel_cache.create () in
          let entry =
            Kernel_cache.find_or_compile cache ~cls:(Device.device_class dev)
              (b.Kernels.source ~n:8)
          in
          let args, readback = b.Kernels.make_args ~n:8 ~seed:5 in
          let s = Device.run dev entry.Kernel_cache.compiled ~args in
          let what = name ^ " on " ^ backend.Backend.name in
          Alcotest.(check string) (what ^ ": output") expected
            (Scheduler.output_checksum (readback ()));
          Alcotest.(check int) (what ^ ": service_ps") ps s.Device.service_ps;
          Alcotest.(check int) (what ^ ": write_bytes") write_bytes s.Device.write_bytes)
        [ (Backend.pcm, pcm_ps); (Backend.digital, digital_ps) ])
    pinned_benches

(* ---------- Device reuse ---------- *)

let run_on_device dev cache ~kernel ~n ~seed =
  let bench = match Kernels.find kernel with Ok b -> b | Error e -> Alcotest.fail e in
  let entry = Kernel_cache.find_or_compile cache (bench.Kernels.source ~n) in
  let args, readback = bench.Kernels.make_args ~n ~seed in
  let stats = Device.run dev entry.Kernel_cache.compiled ~args in
  (stats, readback ())

let check_mats_equal what expected actual =
  List.iteri
    (fun i (e, a) ->
      if Mat.max_abs_diff e a > 0.0 then
        Alcotest.failf "%s: output %d differs between devices" what i)
    (List.combine expected actual)

(* The property platform reuse rests on: running tenant B after tenant
   A on a warm device gives bit-for-bit the same outputs as running B
   alone on a fresh device. *)
let test_device_reuse_no_state_leak () =
  let cache = Kernel_cache.create () in
  let warm = Device.create ~id:0 () in
  let fresh = Device.create ~id:1 () in
  let s1, _ = run_on_device warm cache ~kernel:"gemm" ~n:12 ~seed:11 in
  let p1 = Device.write_pressure warm in
  let s2, warm_out = run_on_device warm cache ~kernel:"gesummv" ~n:16 ~seed:22 in
  let _, fresh_out = run_on_device fresh cache ~kernel:"gesummv" ~n:16 ~seed:22 in
  check_mats_equal "warm vs fresh" fresh_out warm_out;
  Alcotest.(check bool) "first run offloaded" true s1.Device.used_cim;
  Alcotest.(check bool) "service time positive" true (s2.Device.service_ps > 0);
  Alcotest.(check bool) "write pressure accumulates" true (Device.write_pressure warm > p1);
  Alcotest.(check int) "requests counted" 2 (Device.requests_served warm);
  let w = Device.wear warm in
  Alcotest.(check bool) "cell wear recorded" true (w.Device.total_cell_writes > 0);
  Alcotest.(check bool) "budget consumed" true (w.Device.budget_consumed > 0.0)

(* ---------- Scheduler ---------- *)

let smoke_trace ?(seed = 7) () =
  match Trace.synthetic ~seed "synthetic-smoke" with
  | Ok t -> t
  | Error e -> Alcotest.fail e

(* A hand-built trace: [count] identical requests arriving [gap_ps]
   apart, optionally with a per-request deadline. *)
let burst_trace ?deadline_ps ?(kernel = "gemm") ?(n = 8) ~count ~gap_ps () =
  {
    Trace.name = "burst";
    seed = 0;
    requests =
      List.init count (fun id ->
          {
            Trace.id;
            kernel;
            n;
            seed = 1000 + id;
            arrival_ps = (id + 1) * gap_ps;
            deadline_ps;
            tenant = 0;
            slo = Trace.Interactive;
          });
  }

let test_replay_smoke_and_golden () =
  let trace = smoke_trace () in
  let config = { Scheduler.default_config with Scheduler.devices = 2 } in
  let report = Scheduler.replay ~config trace in
  let golden = Scheduler.replay ~config:(Scheduler.golden_config config) trace in
  let total = List.length trace.Trace.requests in
  Alcotest.(check int) "all requests completed on CIM" total (Scheduler.completed report);
  Alcotest.(check int) "no rejections at this load" 0 (Scheduler.rejections report);
  Alcotest.(check int) "no failures" 0 (Scheduler.failures report);
  Alcotest.(check int) "golden serves everything" total (Scheduler.completed golden);
  Alcotest.(check int) "no cross-device divergence" 0 (Scheduler.divergence report golden);
  Alcotest.(check int) "one compile per distinct kernel"
    (List.length (Trace.distinct_kernels trace))
    report.Scheduler.cache.Kernel_cache.misses;
  Alcotest.(check bool) "skewed mix keeps the cache hot" true
    (Scheduler.cache_hit_rate report > 0.8);
  Alcotest.(check int) "two devices reported" 2 (List.length report.Scheduler.devices);
  Alcotest.(check bool) "makespan covers the trace" true
    (report.Scheduler.makespan_ps
    >= List.fold_left (fun acc r -> max acc r.Trace.arrival_ps) 0 trace.Trace.requests)

let test_backpressure_rejects_overload () =
  (* arrivals far faster than one device drains, bounded queue: the
     overflow must surface as Rejected_overloaded, never disappear *)
  let trace = burst_trace ~count:12 ~gap_ps:1000 () in
  let config =
    {
      Scheduler.default_config with
      Scheduler.devices = 1;
      queue_capacity = 2;
      max_batch = 1;
    }
  in
  let report = Scheduler.replay ~config trace in
  Alcotest.(check bool) "queue bound produces rejections" true
    (Scheduler.rejections report > 0);
  Alcotest.(check bool) "some requests still served" true (Scheduler.completed report > 0);
  Alcotest.(check int) "every request accounted for" 12
    (Scheduler.completed report + Scheduler.fallbacks report + Scheduler.rejections report
    + Scheduler.failures report);
  List.iter
    (fun r ->
      if r.Telemetry.outcome = Telemetry.Rejected_overloaded then (
        Alcotest.(check bool) "rejection has no device" true (r.Telemetry.device = None);
        Alcotest.(check bool) "rejection has no checksum" true (r.Telemetry.checksum = None)))
    (Telemetry.records report.Scheduler.telemetry)

let test_deadline_degrades_to_cpu () =
  let deadline_ps = 2 * Tdo_sim.Time_base.ps_per_us in
  let trace = burst_trace ~deadline_ps ~count:6 ~gap_ps:1000 () in
  let config =
    {
      Scheduler.default_config with
      Scheduler.devices = 1;
      max_batch = 1;
    }
  in
  let report = Scheduler.replay ~config trace in
  Alcotest.(check bool) "expired requests degrade" true (Scheduler.fallbacks report > 0);
  Alcotest.(check int) "nothing is dropped" 6
    (Scheduler.completed report + Scheduler.fallbacks report + Scheduler.rejections report
    + Scheduler.failures report);
  List.iter
    (fun r ->
      if r.Telemetry.outcome = Telemetry.Cpu_fallback then (
        Alcotest.(check bool) "fallback ran on the host" true (r.Telemetry.device = None);
        Alcotest.(check bool) "fallback produced a result" true (r.Telemetry.checksum <> None);
        Alcotest.(check bool) "fallback latency charged" true (r.Telemetry.service_ps > 0)))
    (Telemetry.records report.Scheduler.telemetry);
  (* golden mode ignores deadlines entirely *)
  let golden = Scheduler.replay ~config:(Scheduler.golden_config config) trace in
  Alcotest.(check int) "golden never degrades" 0 (Scheduler.fallbacks golden)

(* A run that fails inside its ROI window leaves the device serving.
   [bad_kernel] divides by a zero parameter before touching memory;
   [late_failing_kernel] offloads a GEMM and then writes past [s], with
   its three device buffers still allocated. *)
let bad_kernel =
  {
    Kernels.name = "bad";
    description = "divides by a zero parameter inside the ROI";
    kind = Kernels.Gemv_like;
    source =
      (fun ~n:_ ->
        "void kernel_bad(float A[8], int z) { for (int i = 0; i < 8; i++) A[i / z] = 1.0; }");
    macs = (fun ~n:_ -> 8);
    make_args =
      (fun ~n:_ ~seed:_ ->
        let a = Kernels.zero_arr ~dims:[ 8 ] in
        ( [ ("A", Tdo_lang.Interp.Varray a); ("z", Tdo_lang.Interp.Vint 0) ],
          fun () -> [ Kernels.mat_of_vec a ] ));
  }

let late_failing_kernel =
  {
    Kernels.name = "late";
    description = "writes past an array after an offloaded GEMM";
    kind = Kernels.Gemm_like;
    source =
      (fun ~n:_ ->
        "void kernel_late(float C[8][8], float A[8][8], float B[8][8], float s[8], int z) {\n\
        \  for (int i = 0; i < 8; i++)\n\
        \    for (int j = 0; j < 8; j++)\n\
        \      for (int k = 0; k < 8; k++)\n\
        \        C[i][j] += A[i][k] * B[k][j];\n\
        \  for (int i = 0; i < 8; i++)\n\
        \    s[i + z] = 1.0;\n\
         }");
    macs = (fun ~n:_ -> 512);
    make_args =
      (fun ~n:_ ~seed ->
        let g = Tdo_util.Prng.create ~seed in
        let mat () = Kernels.random_arr g ~dims:[ 8; 8 ] in
        let c = mat () and a = mat () and b = mat () and sv = Kernels.zero_arr ~dims:[ 8 ] in
        ( [
            ("C", Tdo_lang.Interp.Varray c); ("A", Tdo_lang.Interp.Varray a);
            ("B", Tdo_lang.Interp.Varray b); ("s", Tdo_lang.Interp.Varray sv);
            ("z", Tdo_lang.Interp.Vint 8);
          ],
          fun () -> [ Tdo_lang.Interp.mat_of_arr c ] ));
  }

(* Request [id] for [kernel] at n = 8, a millisecond after the last. *)
let spaced_request id kernel =
  {
    Trace.id;
    kernel;
    n = 8;
    seed = 1000 + id;
    arrival_ps = (id + 1) * Tdo_sim.Time_base.ps_per_us * 1000;
    deadline_ps = None;
    tenant = 0;
    slo = Trace.Interactive;
  }

let test_failed_run_keeps_device_serving () =
  (* the records, and the device's CMA region after the replay *)
  let replay requests =
    let device = ref None in
    let config =
      {
        Scheduler.default_config with
        Scheduler.devices = 1;
        graphs = [ ("bad", bad_kernel); ("late", late_failing_kernel) ];
        on_device_create = Some (fun d -> device := Some d);
      }
    in
    let trace = { Trace.name = "roi-failure"; seed = 0; requests } in
    let records = Telemetry.records (Scheduler.replay ~config trace).Scheduler.telemetry in
    (records, (Device.platform (Option.get !device)).Tdo_runtime.Platform.cma)
  in
  let ids outcome records =
    List.filter_map
      (fun (r : Telemetry.record) ->
        if outcome r.Telemetry.outcome then Some r.Telemetry.request.Trace.id else None)
      records
  in
  let failed = function Telemetry.Failed _ -> true | _ -> false in
  let served records =
    List.filter_map
      (fun (r : Telemetry.record) ->
        if r.Telemetry.outcome = Telemetry.Completed then
          Some (r.Telemetry.request.Trace.id, r.Telemetry.service_ps, r.Telemetry.checksum)
        else None)
      records
  in
  let checksums = List.map (fun (id, _, sum) -> (id, sum)) in
  let gemms = [ spaced_request 3 "gemm"; spaced_request 4 "gemm" ] in
  let alone, _ = replay gemms in
  (* failing before any memory access: the later runs are as if the
     failure never ran *)
  let with_bad, _ = replay (spaced_request 0 "bad" :: gemms) in
  Alcotest.(check (list int)) "the bad request failed" [ 0 ] (ids failed with_bad);
  Alcotest.(check (list int)) "the others completed" [ 3; 4 ]
    (ids (( = ) Telemetry.Completed) with_bad);
  Alcotest.(check bool) "as if the failure never ran" true (served with_bad = served alone);
  (* failing after a launch: the device buffers go back every time, so
     the region never holds more than one run's buffers. Later runs see
     the caches and crossbar the failed run left, like after any run,
     so only their results are compared. *)
  let with_late, cma = replay (List.init 3 (fun id -> spaced_request id "late") @ gemms) in
  Alcotest.(check (list int)) "the late failures" [ 0; 1; 2 ] (ids failed with_late);
  Alcotest.(check (list int)) "the GEMMs completed" [ 3; 4 ]
    (ids (( = ) Telemetry.Completed) with_late);
  Alcotest.(check bool) "with the same results" true
    (checksums (served with_late) = checksums (served alone));
  Alcotest.(check int) "no device memory held" 0 (Tdo_runtime.Cma.allocated_bytes cma);
  Alcotest.(check int) "at most one run's buffers at a time" (3 * 256)
    (Tdo_runtime.Cma.peak_allocated_bytes cma)

(* Two kernels registered under different names whose benchmark
   records share one name: each request runs the source registered
   under its own kernel name. A third whose source does not parse fails
   with the parser's message whether it is estimated and dispatched or
   degraded to the host fallback after its deadline passed in the
   queue. *)
let test_registered_kernels_keep_their_source () =
  let good =
    {
      bad_kernel with
      Kernels.source =
        (fun ~n:_ ->
          "void kernel_good(float A[8], int z) { for (int i = 0; i < 8; i++) A[i + z] = 1.0; }");
    }
  in
  let broken_source = "void kernel_broken(float A[8] { A[0] = 1.0; }" in
  let parse_error =
    match Kernel_cache.parse broken_source with
    | _ -> Alcotest.fail "the broken source parsed"
    | exception e -> Printexc.to_string e
  in
  let config =
    {
      Scheduler.default_config with
      Scheduler.devices = 1;
      graphs =
        [
          ("good", { good with Kernels.name = "twin" });
          ("bad", { bad_kernel with Kernels.name = "twin" });
          ( "broken",
            { bad_kernel with Kernels.name = "twin"; source = (fun ~n:_ -> broken_source) } );
        ];
    }
  in
  (* request 5 arrives behind request 4 on the one device and expires
     while it runs *)
  let expiring =
    {
      (spaced_request 5 "broken") with
      Trace.arrival_ps = (spaced_request 4 "good").Trace.arrival_ps;
      deadline_ps = Some 1;
    }
  in
  let trace =
    {
      Trace.name = "twins";
      seed = 0;
      requests =
        [
          spaced_request 0 "good"; spaced_request 1 "bad"; spaced_request 2 "good";
          spaced_request 3 "broken"; spaced_request 4 "good"; expiring;
        ];
    }
  in
  let outcomes =
    List.map
      (fun (r : Telemetry.record) ->
        ( r.Telemetry.request.Trace.id,
          match r.Telemetry.outcome with
          | Telemetry.Completed -> "completed"
          | Telemetry.Failed msg when r.Telemetry.request.Trace.kernel = "broken" ->
              (* a request failed at dispatch fails when it arrives *)
              (if r.Telemetry.start_ps = r.Telemetry.request.Trace.arrival_ps then "dispatch: "
               else "fallback: ")
              ^ msg
          | Telemetry.Failed _ -> "failed"
          | _ -> "other" ))
      (Telemetry.records (Scheduler.replay ~config trace).Scheduler.telemetry)
  in
  Alcotest.(check (list (pair int string)))
    "each name runs its own source"
    [
      (0, "completed"); (1, "failed"); (2, "completed"); (3, "dispatch: " ^ parse_error);
      (4, "completed"); (5, "fallback: " ^ parse_error);
    ]
    (List.sort compare outcomes)

(* Calibration re-prices the plans placement already holds: once a
   class's fit is adopted, no estimate looks the kernel cache up again.
   Requests a millisecond apart find both devices free, so every
   dispatch prices both classes; the cache then sees one lookup per
   batch plus one per (kernel, n, class) estimated. *)
let test_calibration_reprices_without_lookups () =
  let kernels = [ "gemm"; "gesummv"; "bicg"; "mvt" ] in
  let trace =
    {
      Trace.name = "calibration";
      seed = 0;
      requests = List.init 16 (fun id -> spaced_request id (List.nth kernels (id mod 4)));
    }
  in
  let config =
    {
      Scheduler.default_config with
      Scheduler.fleet = Some [ Backend.pcm; Backend.digital ];
      calibrate_after = Some 3;
    }
  in
  let report = Scheduler.replay ~config trace in
  Alcotest.(check int) "every request served" 16 (Scheduler.completed report);
  Alcotest.(check bool) "a calibration was adopted" true (report.Scheduler.calibrations <> []);
  let batches =
    List.sort_uniq compare
      (List.filter_map
         (fun (r : Telemetry.record) -> r.Telemetry.batch)
         (Telemetry.records report.Scheduler.telemetry))
  in
  let c = report.Scheduler.cache in
  Alcotest.(check int) "lookups = batches + estimated (kernel, n, class)"
    (List.length batches + (2 * List.length kernels))
    (c.Kernel_cache.hits + c.Kernel_cache.misses)

let test_chrome_trace_shape () =
  let trace = smoke_trace () in
  let report = Scheduler.replay ~config:{ Scheduler.default_config with Scheduler.devices = 2 } trace in
  let json = String.trim (Telemetry.chrome_trace report.Scheduler.telemetry) in
  Alcotest.(check bool) "JSON array" true
    (String.length json > 2 && json.[0] = '[' && json.[String.length json - 1] = ']');
  let contains needle =
    let n = String.length needle and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has duration events" true (contains "\"ph\":\"X\"");
  Alcotest.(check bool) "has queue-depth counter track" true (contains "\"ph\":\"C\"")

(* ---------- Heterogeneous fleet ---------- *)

let fleet_of spec =
  match Backend.parse_fleet spec with Ok f -> f | Error e -> Alcotest.fail e

let class_served summary profile =
  match List.assoc_opt profile summary with
  | Some c -> c.Telemetry.served
  | None -> 0

(* A mixed fleet over a trace heavy enough that cost-based placement
   exercises every class: the analog crossbar, the digital tile, the
   host BLAS path and a drafted dual-mode tile each serve work, and
   each compute class independently matches its own sequential golden
   oracle. *)
let test_mixed_fleet_places_on_every_class () =
  let trace =
    match Trace.synthetic ~seed:7 "synthetic-small" with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let config =
    {
      Scheduler.default_config with
      Scheduler.fleet = Some (fleet_of "pcm:1,digital:1,host:1,dual:1");
    }
  in
  let report = Scheduler.replay ~config trace in
  let total = List.length trace.Trace.requests in
  Alcotest.(check int) "every request completed" total (Scheduler.completed report);
  Alcotest.(check int) "no rejections" 0 (Scheduler.rejections report);
  Alcotest.(check int) "no failures" 0 (Scheduler.failures report);
  let cs = Telemetry.class_summary report.Scheduler.telemetry in
  List.iter
    (fun profile ->
      Alcotest.(check bool) (profile ^ " serves at least one request") true
        (class_served cs profile > 0))
    [ "pcm"; "digital"; "host"; "dual" ];
  Alcotest.(check int) "per-class counts partition the trace" total
    (List.fold_left (fun acc (_, c) -> acc + c.Telemetry.served) 0 cs);
  let s = Telemetry.summary report.Scheduler.telemetry in
  Alcotest.(check bool) "the dual tile was drafted" true (s.Telemetry.conversions_to_compute > 0);
  (* device reports carry profile, class, energy and conversions *)
  Alcotest.(check int) "four devices reported" 4 (List.length report.Scheduler.devices);
  let dev profile =
    match
      List.find_opt (fun d -> d.Scheduler.dev_profile = profile) report.Scheduler.devices
    with
    | Some d -> d
    | None -> Alcotest.failf "no %s device in the report" profile
  in
  Alcotest.(check string) "a dual tile computes as a pcm crossbar" "pcm"
    (dev "dual").Scheduler.dev_class;
  Alcotest.(check bool) "dual conversions mirrored in its device report" true
    (fst (dev "dual").Scheduler.dev_conversions = s.Telemetry.conversions_to_compute);
  Alcotest.(check bool) "host consumes energy but no write budget" true
    ((dev "host").Scheduler.dev_energy_j > 0.0
    && ((dev "host").Scheduler.dev_wear).Device.budget_consumed = 0.0);
  Alcotest.(check bool) "digital tile does not wear" true
    (((dev "digital").Scheduler.dev_wear).Device.budget_consumed = 0.0);
  Alcotest.(check bool) "analog crossbar does wear" true
    (((dev "pcm").Scheduler.dev_wear).Device.budget_consumed > 0.0);
  (* one golden per compute class; same-class outputs are bit-identical *)
  List.iter
    (fun profile ->
      let golden =
        Scheduler.replay ~config:(Scheduler.golden_config ~profile config) trace
      in
      Alcotest.(check int)
        ("no divergence against the " ^ profile.Backend.name ^ " golden")
        0
        (Scheduler.divergence report golden))
    [ Backend.pcm; Backend.digital; Backend.host ]

(* Dual-mode lifecycle: a burst deep enough to exceed the draft
   threshold converts the tile to compute (latency charged, event
   recorded); once the queue drains and the hysteresis window passes,
   the straggler's arrival finds it reverted to plain memory, so the
   always-compute crossbar serves it. *)
let test_dual_mode_draft_and_revert () =
  let base = burst_trace ~count:10 ~gap_ps:1000 () in
  let straggler =
    {
      Trace.id = 10;
      kernel = "gemm";
      n = 8;
      seed = 4242;
      arrival_ps = 5_000 * Tdo_sim.Time_base.ps_per_us;
      deadline_ps = None;
      tenant = 0;
      slo = Trace.Interactive;
    }
  in
  let trace = { base with Trace.requests = base.Trace.requests @ [ straggler ] } in
  let config =
    {
      Scheduler.default_config with
      Scheduler.fleet = Some (fleet_of "pcm:1,dual:1");
      max_batch = 1;
    }
  in
  let report = Scheduler.replay ~config trace in
  Alcotest.(check int) "burst and straggler all served" 11 (Scheduler.completed report);
  let s = Telemetry.summary report.Scheduler.telemetry in
  Alcotest.(check bool) "burst drafts the dual tile" true
    (s.Telemetry.conversions_to_compute >= 1);
  Alcotest.(check bool) "idle hysteresis reverts it" true
    (s.Telemetry.conversions_to_memory >= 1);
  (match Telemetry.conversions report.Scheduler.telemetry with
  | [] -> Alcotest.fail "no conversion events recorded"
  | first :: _ ->
      Alcotest.(check bool) "first event is the draft" true first.Telemetry.to_compute;
      Alcotest.(check string) "event names the dual profile" "dual"
        first.Telemetry.conv_profile);
  let cs = Telemetry.class_summary report.Scheduler.telemetry in
  Alcotest.(check bool) "the drafted tile served burst work" true
    (class_served cs "dual" > 0);
  (* the straggler arrives after the revert: only the crossbar computes *)
  (match
     List.find_opt
       (fun r -> r.Telemetry.request.Trace.id = 10)
       (Telemetry.records report.Scheduler.telemetry)
   with
  | None -> Alcotest.fail "straggler record missing"
  | Some r ->
      Alcotest.(check (option string)) "straggler served by the pcm crossbar"
        (Some "pcm") r.Telemetry.profile);
  (* conversion traffic shows up in the chrome trace *)
  let json = Telemetry.chrome_trace report.Scheduler.telemetry in
  let contains needle =
    let n = String.length needle and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "draft event in chrome trace" true
    (contains "convert to compute");
  Alcotest.(check bool) "revert event in chrome trace" true
    (contains "convert to memory");
  Alcotest.(check bool) "per-class summary event in chrome trace" true
    (contains "class-summary dual");
  (* dual-mode conversions never break the golden property *)
  let golden = Scheduler.replay ~config:(Scheduler.golden_config config) trace in
  Alcotest.(check int) "no divergence with conversions in play" 0
    (Scheduler.divergence report golden)

(* Identical analog crossbars quote identical estimates, so the
   least-written tie-break is what spreads their writes: with requests
   spaced so both devices are free at every dispatch, placement must
   alternate and neither device may pull ahead of the other by more
   than one request's crossbar writes. *)
let test_tie_break_spreads_writes () =
  let count = 8 in
  let trace = burst_trace ~count ~gap_ps:(1_000 * Tdo_sim.Time_base.ps_per_us) () in
  let devices = ref [] in
  let spread = ref 0 in
  let config =
    {
      Scheduler.default_config with
      Scheduler.fleet = Some (fleet_of "pcm:2");
      on_device_create = Some (fun d -> devices := !devices @ [ d ]);
      on_record =
        Some
          (fun _ ->
            match !devices with
            | [ a; b ] ->
                spread :=
                  max !spread (abs (Device.write_pressure a - Device.write_pressure b))
            | _ -> Alcotest.fail "expected two devices");
    }
  in
  let report = Scheduler.replay ~config trace in
  Alcotest.(check int) "every request completed" count (Scheduler.completed report);
  let records =
    List.sort
      (fun a b -> compare a.Telemetry.request.Trace.id b.Telemetry.request.Trace.id)
      (Telemetry.records report.Scheduler.telemetry)
  in
  Alcotest.(check (list (option int))) "placement alternates, lowest id first"
    (List.init count (fun i -> Some (i mod 2)))
    (List.map (fun r -> r.Telemetry.device) records);
  let bytes = (List.hd records).Telemetry.write_bytes in
  Alcotest.(check bool) "each request programs the crossbar" true
    (bytes > 0 && List.for_all (fun r -> r.Telemetry.write_bytes = bytes) records);
  Alcotest.(check bool) "write pressure stays within one request's bytes" true
    (!spread <= bytes)

(* ---------- qcheck: batched multi-device == sequential single-device ---------- *)

let trace_gen =
  QCheck.Gen.(
    let mix = [ ("gemm", 8); ("gemm", 12); ("gesummv", 12); ("mvt", 12) ] in
    let* count = 3 -- 10 in
    let* picks = list_size (return count) (oneofl mix) in
    let* gaps = list_size (return count) (5_000 -- 2_000_000) in
    let* seed = 0 -- 10_000 in
    let clock = ref 0 in
    let requests =
      List.mapi
        (fun id ((kernel, n), gap) ->
          clock := !clock + gap;
          {
            Trace.id;
            kernel;
            n;
            seed = seed + (id * 7919);
            arrival_ps = !clock;
            deadline_ps = None;
            tenant = 0;
            slo = Trace.Interactive;
          })
        (List.combine picks gaps)
    in
    return { Trace.name = "qcheck"; seed; requests })

let qcheck_batched_matches_sequential =
  QCheck.Test.make ~name:"batched multi-device replay == sequential golden" ~count:6
    (QCheck.make ~print:(fun t -> Printf.sprintf "%d requests, seed %d" (List.length t.Trace.requests) t.Trace.seed)
       trace_gen)
    (fun trace ->
      let config =
        {
          Scheduler.default_config with
          Scheduler.devices = 3;
          max_batch = 4;
          queue_capacity = 0;
        }
      in
      let report = Scheduler.replay ~config trace in
      let golden = Scheduler.replay ~config:(Scheduler.golden_config config) trace in
      let total = List.length trace.Trace.requests in
      Scheduler.completed report = total
      && Scheduler.completed golden = total
      && Scheduler.divergence report golden = 0)

(* Determinism extends to heterogeneous fleets: every placement and
   conversion decision is taken on the scheduler thread before a wave
   executes, so running the waves on worker domains or inline yields
   record-for-record identical telemetry. *)
let qcheck_fleet_parallel_matches_sequential =
  QCheck.Test.make ~name:"mixed-fleet parallel waves == inline waves" ~count:4
    (QCheck.make
       ~print:(fun t ->
         Printf.sprintf "%d requests, seed %d" (List.length t.Trace.requests) t.Trace.seed)
       trace_gen)
    (fun trace ->
      let config =
        {
          Scheduler.default_config with
          Scheduler.fleet = Some (fleet_of "pcm:1,digital:1,host:1,dual:1");
          max_batch = 4;
          queue_capacity = 0;
        }
      in
      let par = Scheduler.replay ~config trace in
      let seq =
        Pool.set_sequential (Some true);
        Fun.protect
          ~finally:(fun () -> Pool.set_sequential None)
          (fun () -> Scheduler.replay ~config trace)
      in
      Telemetry.records par.Scheduler.telemetry = Telemetry.records seq.Scheduler.telemetry
      && Telemetry.conversions par.Scheduler.telemetry
         = Telemetry.conversions seq.Scheduler.telemetry)

(* ---------- Admission: token buckets + SLO-class load shedding ---------- *)

let mk_request ?(tenant = 1) ?(slo = Trace.Interactive) ~id ~arrival_ps () =
  {
    Trace.id;
    kernel = "gemm";
    n = 8;
    seed = id;
    arrival_ps;
    deadline_ps = None;
    tenant;
    slo;
  }

let test_admission_token_bucket () =
  (* 2 tokens/s with burst 3: the first 3 back-to-back requests pass,
     the 4th is rate-shed, and one refill interval later a token is
     back *)
  let policy =
    {
      Admission.per_tenant = [ (1, { Admission.rate_per_s = 2.0; burst = 3.0 }) ];
      default_bucket = None;
      batch_above = 1.0;
      best_effort_above = 1.0;
    }
  in
  let t = Admission.create policy in
  let admit ~now_ps id =
    Admission.admit t ~now_ps ~queue_len:0 ~capacity:16 (mk_request ~id ~arrival_ps:now_ps ())
  in
  let verdict = Alcotest.testable (Fmt.of_to_string (function
    | Admission.Admit -> "Admit"
    | Admission.Shed_rate -> "Shed_rate"
    | Admission.Shed_load -> "Shed_load")) ( = )
  in
  Alcotest.check verdict "1st admitted" Admission.Admit (admit ~now_ps:0 0);
  Alcotest.check verdict "2nd admitted" Admission.Admit (admit ~now_ps:0 1);
  Alcotest.check verdict "3rd admitted" Admission.Admit (admit ~now_ps:0 2);
  Alcotest.check verdict "burst exhausted" Admission.Shed_rate (admit ~now_ps:0 3);
  (* 0.5 s later the 2/s bucket has regained one token *)
  let half_s = 500_000 * Tdo_sim.Time_base.ps_per_us in
  Alcotest.check verdict "refill admits again" Admission.Admit (admit ~now_ps:half_s 4);
  Alcotest.check verdict "and only one" Admission.Shed_rate (admit ~now_ps:half_s 5)

let test_admission_sheds_best_effort_first () =
  (* same queue fill, three classes: below the best-effort threshold
     everyone passes; past it only best-effort is shed; past the batch
     threshold batch sheds too, and interactive still passes *)
  let t = Admission.create Admission.default_policy in
  let admit ~queue_len slo id =
    Admission.admit t ~now_ps:0 ~queue_len ~capacity:100 (mk_request ~slo ~id ~arrival_ps:0 ())
  in
  let is_admit = function Admission.Admit -> true | _ -> false in
  Alcotest.(check bool) "calm: best-effort passes" true (is_admit (admit ~queue_len:10 Trace.Best_effort 0));
  Alcotest.(check bool) "busy: best-effort shed" false (is_admit (admit ~queue_len:60 Trace.Best_effort 1));
  Alcotest.(check bool) "busy: batch passes" true (is_admit (admit ~queue_len:60 Trace.Batch 2));
  Alcotest.(check bool) "overloaded: batch shed" false (is_admit (admit ~queue_len:90 Trace.Batch 3));
  Alcotest.(check bool) "overloaded: interactive passes" true
    (is_admit (admit ~queue_len:90 Trace.Interactive 4))

(* An overloaded replay with the admission policy armed: shedding is
   ordered by SLO class (best-effort suffers most, interactive least)
   and shed requests never reach a device. *)
let test_replay_sheds_by_slo_class () =
  let count = 120 in
  let requests =
    List.init count (fun id ->
        let slo =
          match id mod 3 with 0 -> Trace.Interactive | 1 -> Trace.Batch | _ -> Trace.Best_effort
        in
        mk_request ~tenant:(1 + (id mod 3)) ~slo ~id ~arrival_ps:(id * 1000) ())
  in
  let trace = { Trace.name = "slo-overload"; seed = 1; requests } in
  let config =
    {
      Scheduler.default_config with
      Scheduler.devices = 1;
      queue_capacity = 10;
      max_batch = 1;
      admission = Some Admission.default_policy;
    }
  in
  let report = Scheduler.replay ~config trace in
  let counts slo =
    match List.assoc_opt slo (Telemetry.slo_summary report.Scheduler.telemetry) with
    | Some c -> c
    | None -> Alcotest.fail "missing slo bucket"
  in
  let be = counts Trace.Best_effort and b = counts Trace.Batch and i = counts Trace.Interactive in
  Alcotest.(check bool) "best-effort shed under overload" true (be.Telemetry.slo_shed > 0);
  Alcotest.(check bool) "best-effort shed rate >= batch shed rate" true
    (be.Telemetry.slo_shed * b.Telemetry.slo_requests
    >= b.Telemetry.slo_shed * be.Telemetry.slo_requests);
  Alcotest.(check bool) "batch shed rate >= interactive shed rate" true
    (b.Telemetry.slo_shed * i.Telemetry.slo_requests
    >= i.Telemetry.slo_shed * b.Telemetry.slo_requests);
  List.iter
    (fun (r : Telemetry.record) ->
      match r.Telemetry.outcome with
      | Telemetry.Shed _ ->
          Alcotest.(check bool) "shed has no device" true (r.Telemetry.device = None);
          Alcotest.(check bool) "shed has no checksum" true (r.Telemetry.checksum = None)
      | _ -> ())
    (Telemetry.records report.Scheduler.telemetry);
  (* every request is accounted for across outcomes *)
  let s = Telemetry.summary report.Scheduler.telemetry in
  Alcotest.(check int) "conservation" count
    (s.Telemetry.completed + s.Telemetry.cpu_fallbacks + s.Telemetry.recovered_host
    + s.Telemetry.rejected + s.Telemetry.shed_rate_limited + s.Telemetry.shed_load
    + s.Telemetry.failed)

let test_telemetry_windows () =
  let t = Telemetry.create () in
  let us = Tdo_sim.Time_base.ps_per_us in
  let mk ~id ~arrival_us ~finish_us outcome =
    {
      Telemetry.request = mk_request ~id ~arrival_ps:(arrival_us * us) ();
      outcome;
      device = (match outcome with Telemetry.Completed -> Some 0 | _ -> None);
      profile = (match outcome with Telemetry.Completed -> Some "pcm" | _ -> None);
      batch = None;
      cache_hit = false;
      queue_depth = 1;
      start_ps = arrival_us * us;
      finish_ps = finish_us * us;
      service_ps = (finish_us - arrival_us) * us;
      retries = 0;
      tuned = false;
      write_bytes = 0;
      checksum = None;
    }
  in
  (* two 10ms windows: 2 arrivals + 2 served in the first; the third
     request arrives in w0 but finishes in w1, the fourth is shed *)
  Telemetry.record t (mk ~id:0 ~arrival_us:1_000 ~finish_us:2_000 Telemetry.Completed);
  Telemetry.record t (mk ~id:1 ~arrival_us:4_000 ~finish_us:6_000 Telemetry.Completed);
  Telemetry.record t (mk ~id:2 ~arrival_us:9_000 ~finish_us:12_000 Telemetry.Completed);
  Telemetry.record t
    (mk ~id:3 ~arrival_us:11_000 ~finish_us:11_000 (Telemetry.Shed Telemetry.Load_shed));
  let ws = Telemetry.windows ~window_us:10_000.0 t in
  Alcotest.(check int) "two windows" 2 (List.length ws);
  let w0 = List.nth ws 0 and w1 = List.nth ws 1 in
  Alcotest.(check int) "w0 arrivals" 3 w0.Telemetry.w_arrivals;
  Alcotest.(check int) "w0 served" 2 w0.Telemetry.w_served;
  Alcotest.(check int) "w1 arrivals" 1 w1.Telemetry.w_arrivals;
  Alcotest.(check int) "w1 served (straggler finish)" 1 w1.Telemetry.w_served;
  Alcotest.(check int) "w1 shed" 1 w1.Telemetry.w_shed;
  Alcotest.(check bool) "w0 p50 covers the 1-2ms latencies" true
    (w0.Telemetry.w_p50_us >= 1_000.0 && w0.Telemetry.w_p50_us <= 2_000.0);
  (* live view emits exactly the completed (non-final) windows *)
  let emitted = ref [] in
  let live = Telemetry.live_view ~window_us:10_000.0 ~emit:(fun l -> emitted := l :: !emitted) () in
  let t2 = Telemetry.create ~observer:live () in
  List.iter (Telemetry.record t2) (Telemetry.records t);
  Alcotest.(check int) "live view flushed the first window" 1 (List.length !emitted)

(* ---------- Trace line codec ---------- *)

let contains needle s =
  let n = String.length needle in
  let rec go i = i + n <= String.length s && (String.sub s i n = needle || go (i + 1)) in
  go 0

let test_line_codec_roundtrip () =
  let r =
    {
      Trace.id = 7;
      kernel = "gesummv";
      n = 24;
      seed = 123;
      arrival_ps = 4_500_000;
      deadline_ps = Some 1_000;
      tenant = 3;
      slo = Trace.Best_effort;
    }
  in
  List.iter
    (fun r ->
      match Trace.request_of_line (Trace.request_to_line r) with
      | Ok r' -> Alcotest.(check bool) "decode (encode r) = r" true (r = r')
      | Error e -> Alcotest.fail e)
    [ r; { r with deadline_ps = None; slo = Trace.Interactive } ]

let test_line_codec_rejects () =
  let rejects line expected =
    match Trace.request_of_line line with
    | Ok _ -> Alcotest.failf "%S accepted" line
    | Error msg ->
        if not (contains expected msg) then
          Alcotest.failf "%S: error %S lacks %S" line msg expected
  in
  (* a misspelt key must not silently drop what it meant to set *)
  rejects "req kernel=gemm n=8 deadline_us=5" "unknown field deadline_us";
  rejects "req kernel=gemm n=8 tennant=2" "unknown field tennant";
  rejects "req kernel=gemm n=0" "outside 1..128";
  rejects "req kernel=gemm n=100000" "outside 1..128";
  rejects "req kernel=gemm n=99999999999999999999999" "not an integer";
  rejects "req id=1 tenant=-5 kernel=gemm n=8" "field tenant: -5 is negative";
  Alcotest.(check bool) "n = max_n accepted" true
    (Result.is_ok (Trace.request_of_line (Printf.sprintf "req kernel=gemm n=%d" Trace.max_n)))

(* ---------- Frontend: wire protocol over a pipe ---------- *)

(* Run one front-end session over a pipe, with a client on a second
   domain: it writes [chunks] in order and closes its end. Every chunk
   but the last is followed by a [stats] line, and the client waits for
   its answer, then [gap_s], before writing the next chunk, so each
   chunk reaches the front-end as its own burst. Returns the session
   report, why it stopped, and every response line. *)
let frontend_session ?(gap_s = 0.0) ~config chunks =
  let in_r, in_w = Unix.pipe ~cloexec:false () in
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let client =
    Stdlib.Domain.spawn (fun () ->
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let read_more () =
          match Unix.read out_r chunk 0 (Bytes.length chunk) with
          | 0 -> false
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              true
        in
        let rec await_stats from =
          let text = Buffer.contents buf in
          let rec scan i =
            match String.index_from_opt text i '\n' with
            | None -> false
            | Some j -> String.sub text i (min 6 (j - i)) = "stats " || scan (j + 1)
          in
          if not (scan from) then if read_more () then await_stats from
        in
        let last = List.length chunks - 1 in
        List.iteri
          (fun i lines ->
            let lines = if i < last then lines @ [ "stats" ] else lines in
            let s = String.concat "\n" lines ^ "\n" in
            let from = Buffer.length buf in
            assert (Unix.write_substring in_w s 0 (String.length s) = String.length s);
            if i < last then begin
              await_stats from;
              Unix.sleepf gap_s
            end)
          chunks;
        Unix.close in_w;
        while read_more () do
          ()
        done;
        Unix.close out_r;
        String.split_on_char '\n' (Buffer.contents buf))
  in
  let report, stop = Frontend.serve ~config ~input:in_r ~output:out_w () in
  Unix.close out_w;
  let lines = Stdlib.Domain.join client in
  Unix.close in_r;
  (report, stop, lines)

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let test_frontend_pipe_roundtrip () =
  let script =
    [
      "req id=1 tenant=1 class=interactive kernel=gemm n=8 seed=3 arrival_ps=0";
      (* back-to-back with id 1: same (kernel, n), so one batch *)
      "req id=2 tenant=1 kernel=gemm n=8 seed=4";
      {|{"id": 3, "kernel": "mvt", "n": 8, "class": "batch", "tenant": 2}|};
      (* queued behind the gemm batch on the only device: its deadline
         expires before a device frees, so the host serves it *)
      "req id=4 kernel=gesummv n=8 deadline_ps=1";
      "bogus line";
      (* unbounded or malformed sizes and integers never reach the core *)
      "req id=5 kernel=gemm n=100000";
      {|{"id": 6, "kernel": "gemm", "n": 1e300}|};
      {|{"id": 7, "kernel": "gemm", "n": 2.5}|};
      {|{"id": 8, "kernel": "gemm", "n": 8, "seed": 1e300}|};
      {|{"id": 9.5, "kernel": "gemm", "n": 8}|};
      {|{"id": 10, "kernel": "gemm", "n": 8, "tenant": -1e300}|};
      "req id=11 kernel=gemm n=8 deadline_us=5";
      "req id=12 tenant=-5 kernel=gemm n=8";
      {|{"id": 13, "kernel": "gemm", "n": 8, "tenant": -5}|};
      "stats";
      "quit";
    ]
  in
  let config =
    { Scheduler.default_config with Scheduler.fleet = Some [ Backend.pcm ]; device_seed = 11 }
  in
  let report, stop, lines = frontend_session ~config [ script ] in
  let line_for id =
    match List.find_opt (starts_with (Printf.sprintf "ok id=%d " id)) lines with
    | Some l -> l
    | None -> Alcotest.failf "no ok line for id %d" id
  in
  Alcotest.(check bool) "stopped on quit" true (stop = Frontend.Quit);
  Alcotest.(check bool) "line request answered on the device" true
    (contains " class=pcm " (line_for 1));
  Alcotest.(check bool) "json request answered" true (contains "checksum=" (line_for 3));
  Alcotest.(check bool) "expired deadline answered by the host" true
    (contains " class=host " (line_for 4));
  Alcotest.(check bool) "host answer carries no device" false (contains "device=" (line_for 4));
  Alcotest.(check int) "bogus line, bad sizes, bad integers, unknown key and negative tenants errored" 10
    (List.length (List.filter (starts_with "err id=0 ") lines));
  Alcotest.(check bool) "stats line answered" true
    (List.exists (starts_with "stats requests=") lines);
  let t = report.Scheduler.telemetry in
  let s = Telemetry.summary t in
  Alcotest.(check int) "four requests recorded" 4 s.Telemetry.requests;
  Alcotest.(check int) "three completed on the device" 3 s.Telemetry.completed;
  Alcotest.(check int) "one host fallback" 1 s.Telemetry.cpu_fallbacks;
  let batch_of id =
    match List.find_opt (fun r -> r.Telemetry.request.Trace.id = id) (Telemetry.records t) with
    | Some r -> r.Telemetry.batch
    | None -> Alcotest.failf "no record for id %d" id
  in
  Alcotest.(check bool) "same-(kernel, n) requests share a batch" true
    (batch_of 1 <> None && batch_of 1 = batch_of 2);
  List.iter
    (fun (r : Telemetry.record) ->
      Alcotest.(check bool) "record-clock latency is positive" true (Telemetry.latency_ps r > 0))
    (Telemetry.records t)

(* The acceptance property of the one-core design: a wall-clock session
   produces exactly the records [Scheduler.replay] produces for the same
   requests at the same arrival stamps. Three bursts a few milliseconds
   apart, so the core is advanced, parked and resumed between them. *)
let test_frontend_session_replays () =
  let req ~id ~tenant ~slo ~kernel ~n ?(extra = "") () =
    Printf.sprintf "req id=%d tenant=%d class=%s kernel=%s n=%d seed=%d%s" id tenant slo kernel
      n (1000 + id) extra
  in
  let burst ids =
    List.map
      (fun (id, tenant, slo, kernel, n, extra) -> req ~id ~tenant ~slo ~kernel ~n ~extra ())
      ids
  in
  let chunks =
    [
      (* two batches start, and [mvt] waits: a queue this short does
         not draft the dual tile *)
      burst
        [
          (1, 1, "interactive", "gemm", 16, "");
          (2, 2, "batch", "gesummv", 24, "");
          (3, 1, "interactive", "gemm", 16, "");
          (4, 3, "best_effort", "mvt", 24, "");
        ];
      (* lands while both batches are still running: the deeper queue
         drafts the dual tile at this burst's arrival instant, and the
         last request's deadline expires before a device frees *)
      burst
        [
          (5, 2, "batch", "2mm", 16, "");
          (6, 2, "batch", "gesummv", 24, "");
          (7, 3, "best_effort", "mvt", 24, "");
          (8, 1, "interactive", "gemm", 16, "");
          (9, 3, "best_effort", "conv", 12, "");
          (10, 2, "batch", "gemm", 24, "");
          (11, 1, "interactive", "gemm", 16, "");
          (12, 3, "best_effort", "3mm", 12, "");
          (13, 2, "batch", "gemm", 24, "");
          (14, 1, "interactive", "bicg", 24, " deadline_ps=1");
        ];
      burst
        [
          (15, 1, "interactive", "gesummv", 24, "");
          (16, 3, "best_effort", "bicg", 24, "");
          (17, 2, "batch", "2mm", 16, "");
          (18, 1, "interactive", "mvt", 24, "");
          (19, 3, "best_effort", "gemm", 16, "");
          (20, 2, "batch", "conv", 12, "");
          (21, 1, "interactive", "gemm", 16, "");
          (22, 1, "interactive", "gemm", 16, "");
          (23, 2, "batch", "gesummv", 24, "");
          (24, 3, "best_effort", "mvt", 24, "");
          (25, 2, "batch", "gemm", 24, "");
          (26, 1, "interactive", "bicg", 24, "");
          (27, 3, "best_effort", "gemm", 16, "");
          (28, 2, "batch", "3mm", 12, "");
          (29, 1, "interactive", "gesummv", 24, "");
          (30, 3, "best_effort", "mvt", 24, "");
        ];
    ]
  in
  let config =
    {
      Scheduler.default_config with
      Scheduler.fleet = Some [ Backend.pcm; Backend.digital; Backend.dual ];
      queue_capacity = 16;
      admission = Some Admission.default_policy;
      calibrate_after = Some 4;
      (* a 10 ms launch keeps every batch running across the 3 ms gaps
         between bursts, so each burst reaches a core that is parked
         with work in flight *)
      dispatch_overhead_ps = 10_000 * Tdo_sim.Time_base.ps_per_us;
    }
  in
  let session, stop, lines = frontend_session ~gap_s:0.003 ~config chunks in
  Alcotest.(check bool) "stopped on eof" true (stop = Frontend.Eof);
  let records = Telemetry.records session.Scheduler.telemetry in
  Alcotest.(check int) "every request recorded" 30 (List.length records);
  Alcotest.(check int) "every request answered" 30
    (List.length
       (List.filter
          (fun l -> List.exists (fun p -> starts_with p l) [ "ok "; "shed "; "rejected "; "err " ])
          lines));
  let requests =
    List.stable_sort
      (fun (a : Trace.request) b -> compare a.Trace.arrival_ps b.Trace.arrival_ps)
      (List.map (fun (r : Telemetry.record) -> r.Telemetry.request) records)
  in
  Alcotest.(check bool) "the report's trace is the session's requests in arrival order" true
    (requests = session.Scheduler.trace.Trace.requests);
  let replayed =
    Telemetry.records
      (Scheduler.replay ~config { Trace.name = "session"; seed = 0; requests }).Scheduler
      .telemetry
  in
  let show (r : Telemetry.record) =
    let opt f = function Some v -> f v | None -> "-" in
    Printf.sprintf "id=%d %s dev=%s batch=%s start=%d finish=%d service=%d write=%d sum=%s"
      r.Telemetry.request.Trace.id
      (Telemetry.profile_bucket r
      ^ match r.Telemetry.outcome with
        | Telemetry.Completed -> ""
        | Telemetry.Cpu_fallback -> "/fallback"
        | Telemetry.Recovered_host -> "/recovered"
        | Telemetry.Rejected_overloaded -> "/rejected"
        | Telemetry.Shed reason -> "/shed:" ^ Telemetry.shed_reason_name reason
        | Telemetry.Failed msg -> "/failed:" ^ msg)
      (opt string_of_int r.Telemetry.device)
      (opt string_of_int r.Telemetry.batch)
      r.Telemetry.start_ps r.Telemetry.finish_ps r.Telemetry.service_ps
      r.Telemetry.write_bytes
      (opt Fun.id r.Telemetry.checksum)
  in
  Alcotest.(check (list string)) "replay reproduces the session's records"
    (List.map show replayed) (List.map show records);
  Alcotest.(check bool) "records equal field for field" true (records = replayed);
  (* the script reaches the paths the old front-end lacked *)
  Alcotest.(check bool) "a deadline degraded to the host" true
    (List.exists (fun r -> r.Telemetry.outcome = Telemetry.Cpu_fallback) records);
  Alcotest.(check bool) "some batch coalesced two requests" true
    (List.exists
       (fun (r : Telemetry.record) ->
         r.Telemetry.batch <> None
         && List.exists
              (fun (q : Telemetry.record) ->
                q != r && q.Telemetry.batch = r.Telemetry.batch)
              records)
       records)

let suites =
  [
    ( "serve.pool",
      [
        Alcotest.test_case "TDO_DOMAINS override and clamping" `Quick test_pool_domains_override;
        Alcotest.test_case "parallel_map under TDO_DOMAINS" `Quick test_pool_domains_map;
      ] );
    ( "serve.wear_stats",
      [
        Alcotest.test_case "wear-leveling stats snapshot" `Quick test_wear_leveling_stats;
        Alcotest.test_case "endurance tracker accounting" `Quick test_endurance_tracker;
      ] );
    ( "serve.kernel_cache",
      [
        Alcotest.test_case "structural key ignores formatting" `Quick test_cache_structural_hits;
        Alcotest.test_case "key covers compile options" `Quick test_cache_key_depends_on_options;
        Alcotest.test_case "LRU eviction at capacity" `Quick test_cache_lru_eviction;
        Alcotest.test_case "key is options, not class" `Quick test_cache_key_is_options_not_class;
        Alcotest.test_case "LRU order with mixed-class entries" `Quick
          test_cache_mixed_class_eviction_order;
        QCheck_alcotest.to_alcotest ~long:false qcheck_cache_never_crosses_class;
        Alcotest.test_case "remembered sources follow evictions" `Quick
          test_cache_memo_hits_and_evictions;
      ] );
    ( "serve.byte_identity",
      [
        Alcotest.test_case "output checksum digest" `Quick test_output_checksum_pinned;
        Alcotest.test_case "make_args and readback" `Quick test_make_args_readback_pinned;
        Alcotest.test_case "device runs" `Quick test_device_run_pinned;
      ] );
    ( "serve.device",
      [ Alcotest.test_case "platform reuse leaks no state" `Quick test_device_reuse_no_state_leak ] );
    ( "serve.scheduler",
      [
        Alcotest.test_case "smoke replay matches golden" `Quick test_replay_smoke_and_golden;
        Alcotest.test_case "bounded queue backpressure" `Quick test_backpressure_rejects_overload;
        Alcotest.test_case "deadline miss degrades to CPU" `Quick test_deadline_degrades_to_cpu;
        Alcotest.test_case "chrome trace shape" `Quick test_chrome_trace_shape;
        Alcotest.test_case "a failed run keeps its device serving" `Quick
          test_failed_run_keeps_device_serving;
        Alcotest.test_case "registered kernels keep their own source" `Quick
          test_registered_kernels_keep_their_source;
        Alcotest.test_case "calibration re-prices without lookups" `Quick
          test_calibration_reprices_without_lookups;
      ] );
    ( "serve.fleet",
      [
        Alcotest.test_case "cost-based placement reaches every class" `Quick
          test_mixed_fleet_places_on_every_class;
        Alcotest.test_case "dual-mode draft and revert lifecycle" `Quick
          test_dual_mode_draft_and_revert;
        Alcotest.test_case "least-written tie-break alternates crossbars" `Quick
          test_tie_break_spreads_writes;
      ] );
    ( "serve.determinism",
      [
        QCheck_alcotest.to_alcotest ~long:false qcheck_batched_matches_sequential;
        QCheck_alcotest.to_alcotest ~long:false qcheck_fleet_parallel_matches_sequential;
      ] );
    ( "serve.admission",
      [
        Alcotest.test_case "token bucket: burst, shed, refill" `Quick test_admission_token_bucket;
        Alcotest.test_case "queue fill sheds best-effort first" `Quick
          test_admission_sheds_best_effort_first;
        Alcotest.test_case "overloaded replay sheds by SLO class" `Quick
          test_replay_sheds_by_slo_class;
      ] );
    ( "serve.telemetry",
      [ Alcotest.test_case "windowed roll-ups and live view" `Quick test_telemetry_windows ] );
    ( "serve.codec",
      [
        Alcotest.test_case "line codec round trip" `Quick test_line_codec_roundtrip;
        Alcotest.test_case "line codec rejects unknown keys and sizes" `Quick
          test_line_codec_rejects;
      ] );
    ( "serve.frontend",
      [
        Alcotest.test_case "wire protocol over a pipe" `Quick test_frontend_pipe_roundtrip;
        Alcotest.test_case "a session replays to the same records" `Quick
          test_frontend_session_replays;
      ] );
  ]
