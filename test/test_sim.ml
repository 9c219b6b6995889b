open Tdo_sim

(* ---------- Time ---------- *)

let test_time_conversions () =
  Alcotest.(check int) "1 GHz period" 1000 (Time_base.period_ps ~freq_hz:1e9);
  Alcotest.(check int) "1.2 GHz period" 833 (Time_base.period_ps ~freq_hz:1.2e9);
  Alcotest.(check int) "cycles to ps" 10_000 (Time_base.cycles_to_ps ~freq_hz:1e9 10);
  Alcotest.(check int) "partial period rounds up" 2 (Time_base.ps_to_cycles ~freq_hz:1e9 1001);
  Alcotest.(check (float 1e-15)) "seconds" 1e-6 (Time_base.seconds_of_ps Time_base.ps_per_us)

(* ---------- Event queue ---------- *)

let test_event_order () =
  let q = Event_queue.create () in
  let log = ref [] in
  Event_queue.schedule q ~delay:30 ~name:"c" (fun () -> log := "c" :: !log);
  Event_queue.schedule q ~delay:10 ~name:"a" (fun () -> log := "a" :: !log);
  Event_queue.schedule q ~delay:20 ~name:"b" (fun () -> log := "b" :: !log);
  Event_queue.run_all q;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 30 (Event_queue.now q)

let test_event_same_time_fifo () =
  let q = Event_queue.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Event_queue.schedule q ~delay:7 ~name:"e" (fun () -> log := i :: !log)
  done;
  Event_queue.run_all q;
  Alcotest.(check (list int)) "FIFO at equal times" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_event_cascade () =
  let q = Event_queue.create () in
  let log = ref [] in
  Event_queue.schedule q ~delay:5 ~name:"outer" (fun () ->
      log := ("outer", Event_queue.now q) :: !log;
      Event_queue.schedule q ~delay:5 ~name:"inner" (fun () ->
          log := ("inner", Event_queue.now q) :: !log));
  Event_queue.run_all q;
  Alcotest.(check (list (pair string int)))
    "events can schedule events"
    [ ("outer", 5); ("inner", 10) ]
    (List.rev !log)

let test_event_run_until () =
  let q = Event_queue.create () in
  let count = ref 0 in
  List.iter
    (fun d -> Event_queue.schedule q ~delay:d ~name:"e" (fun () -> incr count))
    [ 10; 20; 30 ];
  Event_queue.run_until q ~time:20;
  Alcotest.(check int) "only due events ran" 2 !count;
  Alcotest.(check int) "clock advanced to target" 20 (Event_queue.now q);
  Alcotest.(check int) "one pending" 1 (Event_queue.pending q)

let test_event_past_rejected () =
  let q = Event_queue.create () in
  Event_queue.schedule q ~delay:10 ~name:"e" (fun () -> ());
  Event_queue.run_all q;
  Alcotest.(check bool) "scheduling in the past raises" true
    (try
       Event_queue.schedule_at q ~time:5 ~name:"late" (fun () -> ());
       false
     with Invalid_argument _ -> true)

(* ---------- Memory ---------- *)

let test_memory_rw () =
  let m = Memory.create () in
  Memory.write_u8 m 100 0xAB;
  Alcotest.(check int) "byte roundtrip" 0xAB (Memory.read_u8 m 100);
  Alcotest.(check int) "untouched memory is zero" 0 (Memory.read_u8 m 101);
  Memory.write_i32 m 200 0xDEADBEEFl;
  Alcotest.(check int32) "i32 roundtrip" 0xDEADBEEFl (Memory.read_i32 m 200)

let test_memory_f32 () =
  let m = Memory.create () in
  Memory.write_f32 m 0 3.14159265358979;
  let v = Memory.read_f32 m 0 in
  (* binary32 rounding: exact float64 is not recoverable *)
  Alcotest.(check bool) "f32 rounding applied" true (Float.abs (v -. 3.14159265358979) > 0.0);
  Alcotest.(check bool) "f32 close" true (Float.abs (v -. 3.14159265358979) < 1e-6);
  Memory.write_f32 m 4 1.5;
  Alcotest.(check (float 0.0)) "dyadic value exact" 1.5 (Memory.read_f32 m 4)

let test_memory_chunk_boundary () =
  let m = Memory.create () in
  (* 64 KB chunks: write across the boundary *)
  let addr = (64 * 1024) - 2 in
  Memory.write_bytes m addr (Bytes.of_string "wxyz");
  Alcotest.(check string) "crosses chunk boundary" "wxyz"
    (Bytes.to_string (Memory.read_bytes m addr 4))

let test_memory_bounds () =
  let m = Memory.create ~config:{ Memory.default_config with Memory.size_bytes = 1024 } () in
  Alcotest.(check bool) "out of range raises" true
    (try
       ignore (Memory.read_u8 m 1024);
       false
     with Invalid_argument _ -> true)

(* Sizes that repeat, change, and come back, for the (size, latency)
   memos of [Memory.burst_latency] and [Bus.transfer]: each call must
   return the formula's latency for its own size. *)
let memo_sizes = [ 64; 12; 64; 0; 4096; 64 ]

let rounded_latency ~fixed_ps ~bytes_per_ps bytes =
  fixed_ps + int_of_float (Float.round (float_of_int bytes /. bytes_per_ps))

let test_memory_burst_latency () =
  let m = Memory.create () in
  let l0 = Memory.burst_latency m ~bytes:0 in
  Alcotest.(check int) "fixed cost" (50 * Time_base.ps_per_ns) l0;
  let l64 = Memory.burst_latency m ~bytes:64 in
  Alcotest.(check bool) "bandwidth term" true (l64 > l0);
  let cfg = Memory.config m in
  let fresh = Memory.create () in
  List.iter
    (fun bytes ->
      let expected =
        rounded_latency ~fixed_ps:cfg.Memory.access_latency_ps ~bytes_per_ps:cfg.Memory.bytes_per_ps
          bytes
      in
      Alcotest.(check int) (Printf.sprintf "%d-byte burst" bytes) expected
        (Memory.burst_latency m ~bytes);
      Alcotest.(check int) (Printf.sprintf "%d-byte burst, fresh memory" bytes) expected
        (Memory.burst_latency fresh ~bytes))
    memo_sizes;
  Alcotest.(check (pair int int))
    "bursts count no bytes, as on a fresh memory"
    (Memory.reads fresh, Memory.writes fresh)
    (Memory.reads m, Memory.writes m)

(* The bulk transfers against the same transfer made one element (or
   one byte) at a time on a second memory: the bytes around the range,
   both counters and, for the f32 forms, the floats bit for bit. Ranges
   straddle 64 KB chunk boundaries, sit in a chunk nothing touched, or
   run past the end of an 8-chunk memory, where the transfer must raise
   and move nothing. *)
type bulk_op = Bulk_write | Bulk_read | Bulk_copy

let qcheck_bulk_transfers =
  let chunk = 65536 in
  let size = 8 * chunk in
  let open QCheck.Gen in
  let addr =
    frequency
      [
        (3, map2 (fun k d -> (k * chunk) - d) (1 -- 7) (0 -- 2400));
        (1, map (fun o -> (6 * chunk) + o) (0 -- (chunk - 2500)));
        (2, int_bound (size - 1));
        (1, map (fun d -> size - d) (0 -- 2400));
        (1, int_range (-8) (-1));
      ]
  in
  let addr = frequency [ (3, map (fun a -> a land lnot 3) addr); (1, addr) ] in
  (* doubles that round when narrowed, NaN payloads, signed zeros,
     subnormals of either width, values past the binary32 range, and
     arbitrary bit patterns *)
  let value =
    frequency
      [
        (4, float_range (-1e6) 1e6);
        ( 2,
          oneofl
            [ 0.0; -0.0; infinity; neg_infinity; 1e-40; -1.4e-45; 5e-324; -2.2e-308; 3.5e38; -1e39; 0.1 ] );
        (1, map (fun b -> Int64.float_of_bits (Int64.logor b 0x7FF0_0000_0000_0001L)) ui64);
        (1, map Int64.float_of_bits ui64);
      ]
  in
  let case =
    oneofl [ Bulk_write; Bulk_read; Bulk_copy ] >>= fun op ->
    addr >>= fun a ->
    addr >>= fun b ->
    (0 -- 600) >>= fun len ->
    (0 -- 3) >>= fun pos ->
    array_size (return (pos + len + 2)) value >>= fun values ->
    map2 (fun fill seed -> (op, a, b, len, pos, values, fill, seed)) bool int
  in
  let print (op, a, b, len, pos, _, fill, seed) =
    Printf.sprintf "%s a=%d b=%d len=%d pos=%d fill=%b seed=%d"
      (match op with Bulk_write -> "write_f32s" | Bulk_read -> "read_f32s" | Bulk_copy -> "copy")
      a b len pos fill seed
  in
  QCheck.Test.make ~name:"bulk transfers equal the per-element path" ~count:500
    (QCheck.make ~print case) (fun (op, a, b, len, pos, values, fill, seed) ->
      let config = { Memory.default_config with Memory.size_bytes = size } in
      let m1 = Memory.create ~config () and m2 = Memory.create ~config () in
      let in_range addr n = addr >= 0 && addr + n <= size in
      let rng = Random.State.make [| seed |] in
      (* the same random bytes in both memories, clipped to memory *)
      let fill_both addr n =
        if fill then
          for x = max 0 addr to min size (addr + n) - 1 do
            let v = Random.State.int rng 256 in
            Memory.write_u8 m1 x v;
            Memory.write_u8 m2 x v
          done
      in
      let same_bytes addr n =
        let ok = ref true in
        for x = max 0 (addr - 8) to min size (addr + n + 8) - 1 do
          if Memory.read_u8 m1 x <> Memory.read_u8 m2 x then ok := false
        done;
        !ok
      in
      let bits = Array.map Int64.bits_of_float in
      let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
      (* a copy moves any byte count, 0 to 2,403, from [b] to [a] *)
      let n = match op with Bulk_copy -> (4 * len) + pos | Bulk_write | Bulk_read -> 4 * len in
      (match op with
      | Bulk_read -> fill_both a n
      | Bulk_copy -> fill_both b n
      | Bulk_write -> ());
      let r1 = Memory.reads m1 and w1 = Memory.writes m1 in
      let r2 = Memory.reads m2 and w2 = Memory.writes m2 in
      let moved () = (Memory.reads m1 - r1, Memory.writes m1 - w1) in
      let same_counts () = moved () = (Memory.reads m2 - r2, Memory.writes m2 - w2) in
      match op with
      | Bulk_write ->
          if not (in_range a n) then
            raises (fun () -> Memory.write_f32s m1 a values ~pos ~len)
            && moved () = (0, 0) && same_bytes a n
          else begin
            Memory.write_f32s m1 a values ~pos ~len;
            for i = 0 to len - 1 do
              Memory.write_f32 m2 (a + (4 * i)) values.(pos + i)
            done;
            let counts_ok = same_counts () in
            let back1 = Array.make len 0.0 in
            Memory.read_f32s m1 a back1 ~pos:0 ~len;
            let back2 = Array.init len (fun i -> Memory.read_f32 m2 (a + (4 * i))) in
            counts_ok && bits back1 = bits back2 && same_bytes a n
          end
      | Bulk_read ->
          let d1 = Array.copy values and d2 = Array.copy values in
          if not (in_range a n) then
            raises (fun () -> Memory.read_f32s m1 a d1 ~pos ~len)
            && moved () = (0, 0) && bits d1 = bits values
          else begin
            Memory.read_f32s m1 a d1 ~pos ~len;
            for i = 0 to len - 1 do
              d2.(pos + i) <- Memory.read_f32 m2 (a + (4 * i))
            done;
            same_counts () && bits d1 = bits d2
          end
      | Bulk_copy ->
          if (n > 0 && a < b + n && b < a + n) || not (in_range a n && in_range b n) then
            raises (fun () -> Memory.copy m1 ~src:b ~dst:a ~len:n)
            && moved () = (0, 0) && same_bytes a n
          else begin
            Memory.copy m1 ~src:b ~dst:a ~len:n;
            for i = 0 to n - 1 do
              Memory.write_u8 m2 (a + i) (Memory.read_u8 m2 (b + i))
            done;
            same_counts () && same_bytes a n && same_bytes b n
          end)

(* ---------- Cache ---------- *)

let flat_next latency = fun _ ~addr:_ ~bytes:_ -> latency

let test_cache_hit_miss () =
  let c = Cache.create ~next:(flat_next 100_000) () in
  let lat_miss = Cache.access c Cache.Read ~addr:0 in
  let lat_hit = Cache.access c Cache.Read ~addr:4 in
  Alcotest.(check bool) "miss slower than hit" true (lat_miss > lat_hit);
  let s = Cache.stats c in
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "one hit" 1 s.Cache.hits;
  Alcotest.(check int) "hit latency" (Cache.config c).Cache.hit_latency_ps lat_hit

let test_cache_line_granularity () =
  let c = Cache.create ~next:(flat_next 100_000) () in
  ignore (Cache.access c Cache.Read ~addr:128);
  (* all bytes of the same 64-byte line hit *)
  for offset = 0 to 63 do
    ignore (Cache.access c Cache.Read ~addr:(128 + offset))
  done;
  Alcotest.(check int) "line-granular hits" 64 (Cache.stats c).Cache.hits

let test_cache_lru_eviction () =
  (* Tiny cache: 2 sets x 2 ways x 16-byte lines = 64 bytes. *)
  let config =
    { Cache.name = "tiny"; size_bytes = 64; line_bytes = 16; ways = 2; hit_latency_ps = 1 }
  in
  let c = Cache.create ~config ~next:(flat_next 100) () in
  (* Three lines mapping to set 0 (line addresses 0, 2, 4 mod 2 = 0). *)
  ignore (Cache.access c Cache.Read ~addr:0);
  ignore (Cache.access c Cache.Read ~addr:32);
  ignore (Cache.access c Cache.Read ~addr:0);
  (* touch 0 so 32 is LRU *)
  ignore (Cache.access c Cache.Read ~addr:64);
  (* evicts 32 *)
  ignore (Cache.access c Cache.Read ~addr:0);
  Alcotest.(check int) "0 still resident" 2 (Cache.stats c).Cache.hits;
  ignore (Cache.access c Cache.Read ~addr:32);
  Alcotest.(check int) "32 was evicted" 4 (Cache.stats c).Cache.misses

let test_cache_writeback_on_eviction () =
  let writes_below = ref 0 in
  let next op ~addr:_ ~bytes:_ =
    if op = Cache.Write then incr writes_below;
    100
  in
  let config =
    { Cache.name = "tiny"; size_bytes = 32; line_bytes = 16; ways = 2; hit_latency_ps = 1 }
  in
  let c = Cache.create ~config ~next () in
  ignore (Cache.access c Cache.Write ~addr:0);
  Alcotest.(check int) "no writeback yet (write-back policy)" 0 !writes_below;
  ignore (Cache.access c Cache.Read ~addr:16);
  ignore (Cache.access c Cache.Read ~addr:32);
  (* evicts dirty line 0 *)
  Alcotest.(check int) "dirty eviction wrote back" 1 !writes_below

let test_cache_flush () =
  let writes_below = ref 0 in
  let next op ~addr:_ ~bytes:_ =
    if op = Cache.Write then incr writes_below;
    100
  in
  let c = Cache.create ~next () in
  ignore (Cache.access c Cache.Write ~addr:0);
  ignore (Cache.access c Cache.Write ~addr:64);
  ignore (Cache.access c Cache.Read ~addr:128);
  Alcotest.(check int) "two dirty lines" 2 (Cache.dirty_lines c);
  let lat = Cache.flush c in
  Alcotest.(check int) "flushed both" 2 !writes_below;
  Alcotest.(check bool) "flush has cost" true (lat > 0);
  Alcotest.(check int) "cache empty" 0 (Cache.dirty_lines c);
  ignore (Cache.access c Cache.Read ~addr:0);
  Alcotest.(check int) "everything invalidated" 4 (Cache.stats c).Cache.misses;
  Alcotest.(check int) "flushed bytes tracked" 128 (Cache.stats c).Cache.flushed_bytes

let qcheck_cache_latency_positive =
  QCheck.Test.make ~name:"cache access latency is always positive" ~count:200
    QCheck.(pair (int_bound 100_000) bool)
    (fun (addr, write) ->
      let c = Cache.create ~next:(flat_next 1000) () in
      let op = if write then Cache.Write else Cache.Read in
      Cache.access c op ~addr > 0)

(* A brute-force model of the same cache: the lines of each set in a
   plain array, and a flush that sweeps every (set, way) in order. The
   simulator's flush visits only the sets filled since the previous
   flush; the property below checks that nothing observable differs. *)
module Sweep_cache = struct
  type line = { mutable tag : int; mutable valid : bool; mutable dirty : bool; mutable lru : int }

  type t = {
    cfg : Cache.config;
    sets : line array array;
    next : Cache.op -> addr:int -> bytes:int -> int;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable writebacks : int;
    mutable flushes : int;
    mutable flushed_bytes : int;
  }

  let create cfg ~next =
    let nsets = cfg.Cache.size_bytes / cfg.Cache.line_bytes / cfg.Cache.ways in
    {
      cfg;
      sets =
        Array.init nsets (fun _ ->
            Array.init cfg.Cache.ways (fun _ ->
                { tag = 0; valid = false; dirty = false; lru = 0 }));
      next;
      clock = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      writebacks = 0;
      flushes = 0;
      flushed_bytes = 0;
    }

  let tick t =
    t.clock <- t.clock + 1;
    t.clock

  let line_base t set tag = ((tag * Array.length t.sets) + set) * t.cfg.Cache.line_bytes

  let access t op ~addr =
    let lb = t.cfg.Cache.line_bytes in
    let line_addr = addr / lb in
    let set_idx = line_addr mod Array.length t.sets and tag = line_addr / Array.length t.sets in
    let set = t.sets.(set_idx) in
    match List.find_opt (fun l -> l.valid && l.tag = tag) (Array.to_list set) with
    | Some l ->
        l.lru <- tick t;
        if op = Cache.Write then l.dirty <- true;
        t.hits <- t.hits + 1;
        t.cfg.Cache.hit_latency_ps
    | None ->
        t.misses <- t.misses + 1;
        let victim =
          match List.find_opt (fun l -> not l.valid) (Array.to_list set) with
          | Some l -> l
          | None ->
              Array.fold_left (fun best l -> if l.lru < best.lru then l else best) set.(0) set
        in
        let wb =
          if victim.valid then t.evictions <- t.evictions + 1;
          if victim.valid && victim.dirty then begin
            t.writebacks <- t.writebacks + 1;
            t.next Cache.Write ~addr:(line_base t set_idx victim.tag) ~bytes:lb
          end
          else 0
        in
        let fill = t.next Cache.Read ~addr:(line_addr * lb) ~bytes:lb in
        victim.tag <- tag;
        victim.valid <- true;
        victim.dirty <- op = Cache.Write;
        victim.lru <- tick t;
        t.cfg.Cache.hit_latency_ps + wb + fill

  let flush t =
    let lb = t.cfg.Cache.line_bytes in
    let total = ref 0 and lines = ref 0 in
    Array.iteri
      (fun set_idx set ->
        Array.iter
          (fun l ->
            if l.valid && l.dirty then begin
              total := !total + t.next Cache.Write ~addr:(line_base t set_idx l.tag) ~bytes:lb;
              incr lines
            end;
            l.valid <- false;
            l.dirty <- false)
          set)
      t.sets;
    t.flushes <- t.flushes + 1;
    t.writebacks <- t.writebacks + !lines;
    t.flushed_bytes <- t.flushed_bytes + (!lines * lb);
    !total

  let dirty_lines t =
    Array.fold_left
      (fun n set ->
        Array.fold_left (fun n l -> if l.valid && l.dirty then n + 1 else n) n set)
      0 t.sets

  (* [Cache.access_run] by definition: [count] single accesses, each
     latency rounded up to whole periods *)
  let access_run t op ~addr ~count ~cycle_ps =
    let cycles = ref 0 in
    for k = 0 to count - 1 do
      let lat = access t op ~addr:(addr + (4 * k)) in
      cycles := !cycles + ((lat + cycle_ps - 1) / cycle_ps)
    done;
    !cycles

  let stats t =
    {
      Cache.hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      writebacks = t.writebacks;
      flushes = t.flushes;
      flushed_bytes = t.flushed_bytes;
    }
end

type cache_cmd =
  | Access of Cache.op * int
  | Run of Cache.op * int * int
  | Probe of int * Cache.op * int
  | Probe_update of int * int
  | Flush

(* The next level records each (op, addr) it is asked for, and answers
   with a latency that depends on both, so a reordered or dropped
   write-back shows in the log and in the returned latencies. *)
let recording_next log op ~addr ~bytes:_ =
  log := (op, addr) :: !log;
  1 + (addr land 255) + if op = Cache.Write then 1000 else 0

(* 8 or 64 sets (so that the filled-set bitmap spans more than one
   word) of 2, 3, 4 or 8 ways: three ways, which [Cache.create]
   accepts, makes a set's first line index no power of two. Runs start
   anywhere 4-aligned, mid-line included, and are charged in periods of
   7 ps so the per-access rounding shows. Probes go through four memo
   sites, half of them over a few lines so that a site often finds its
   line again; the reference does [access], and a [Write] access after
   it for an update. The dirty lines are compared after every command,
   each flush included. *)
let qcheck_flush_matches_full_sweep =
  let op = QCheck.Gen.map (fun w -> if w then Cache.Write else Cache.Read) QCheck.Gen.bool in
  let probe_addr = QCheck.Gen.(oneof [ int_bound 8191; int_bound 127 ]) in
  let cmd =
    QCheck.Gen.(
      frequency
        [
          (6, map2 (fun op a -> Access (op, a)) op (int_bound 8191));
          (2, map3 (fun op a n -> Run (op, 4 * a, n)) op (int_bound 2047) (int_bound 40));
          (3, map3 (fun site op a -> Probe (site, op, a)) (int_bound 3) op probe_addr);
          (2, map2 (fun site a -> Probe_update (site, a)) (int_bound 3) probe_addr);
          (1, return Flush);
        ])
  in
  let op_char = function Cache.Read -> 'r' | Cache.Write -> 'w' in
  let print ((sets, ways), cmds) =
    Printf.sprintf "%d sets x %d ways: %s" sets ways
      (String.concat " "
         (List.map
            (function
              | Access (op, a) -> Printf.sprintf "%c%d" (op_char op) a
              | Run (op, a, n) -> Printf.sprintf "%c%d*%d" (op_char op) a n
              | Probe (site, op, a) -> Printf.sprintf "p%d%c%d" site (op_char op) a
              | Probe_update (site, a) -> Printf.sprintf "u%d:%d" site a
              | Flush -> "F")
            cmds))
  in
  QCheck.Test.make ~name:"flush over filled sets equals a full sweep" ~count:300
    (QCheck.make ~print
       QCheck.Gen.(
         pair (pair (oneofl [ 8; 64 ]) (oneofl [ 2; 3; 4; 8 ])) (list_size (0 -- 150) cmd)))
    (fun ((sets, ways), cmds) ->
      let cfg =
        { Cache.name = "small"; size_bytes = sets * ways * 16; line_bytes = 16; ways;
          hit_latency_ps = 3 }
      in
      let log = ref [] and ref_log = ref [] in
      let c = Cache.create ~config:cfg ~next:(recording_next log) () in
      let memo = Cache.memo () in
      let r = Sweep_cache.create cfg ~next:(recording_next ref_log) in
      let step cmd =
        let lat, ref_lat =
          match cmd with
          | Access (op, addr) -> (Cache.access c op ~addr, Sweep_cache.access r op ~addr)
          | Run (op, addr, count) ->
              ( Cache.access_run c op ~addr ~count ~cycle_ps:7,
                Sweep_cache.access_run r op ~addr ~count ~cycle_ps:7 )
          | Probe (site, op, addr) ->
              (Cache.probe c memo ~site op ~addr, Sweep_cache.access r op ~addr)
          | Probe_update (site, addr) ->
              let ref_lat = Sweep_cache.access r Cache.Read ~addr in
              ignore (Sweep_cache.access r Cache.Write ~addr);
              (Cache.probe_update c memo ~site ~addr, ref_lat)
          | Flush -> (Cache.flush c, Sweep_cache.flush r)
        in
        ((lat, Cache.dirty_lines c), (ref_lat, Sweep_cache.dirty_lines r))
      in
      (* a trailing flush, so every run ends by sweeping what is left *)
      let lat = List.map step (cmds @ [ Flush ]) in
      List.for_all (fun (a, b) -> a = b) lat
      && Cache.stats c = Sweep_cache.stats r
      && !log = !ref_log)

let test_cache_rejects_non_power_of_two_sets () =
  let raises config =
    match Cache.create ~config ~next:(flat_next 1) () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let cfg sets =
    { Cache.name = "odd"; size_bytes = sets * 2 * 16; line_bytes = 16; ways = 2;
      hit_latency_ps = 1 }
  in
  Alcotest.(check bool) "3 sets rejected" true (raises (cfg 3));
  Alcotest.(check bool) "12 sets rejected" true (raises (cfg 12));
  Alcotest.(check bool) "4 sets accepted" false (raises (cfg 4));
  (* 3 ways over 4 sets is fine: only the set count must be a power of two *)
  Alcotest.(check bool) "3 ways accepted" false
    (raises { (cfg 4) with Cache.ways = 3; size_bytes = 4 * 3 * 16 })

(* The flush before every offload costs host work in proportion to the
   lines the launch touched, not to the 32,768 lines of the L2. *)
let test_flush_allocation_is_per_touched_set () =
  let c = Cache.create ~config:Cache.l2_arm_a7 ~next:(flat_next 7) () in
  for i = 0 to 99 do
    ignore (Cache.access c Cache.Write ~addr:(i * 64 * 3))
  done;
  let w0 = Gc.minor_words () in
  let lat = Cache.flush c in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every dirty line written back" (100 * 7) lat;
  Alcotest.(check bool) (Printf.sprintf "flush allocates little (%.0f words)" words) true
    (words < 1000.0);
  Alcotest.(check int) "nothing left dirty" 0 (Cache.dirty_lines c)

(* ---------- Bus / DMA / MMIO ---------- *)

let test_bus_latency_and_traffic () =
  let b = Bus.create () in
  let l1 = Bus.transfer b ~master:"cpu" ~bytes:64 in
  let l2 = Bus.transfer b ~master:"cim-dma" ~bytes:4096 in
  Alcotest.(check bool) "bigger transfer slower" true (l2 > l1);
  Alcotest.(check (list (pair string int)))
    "per-master traffic"
    [ ("cim-dma", 4096); ("cpu", 64) ]
    (Bus.traffic b);
  Alcotest.(check int) "total" 4160 (Bus.total_bytes b);
  (* interleaved masters, a name first seen late, and a master name
     built at run time (equal by contents, not the same string) *)
  List.iter
    (fun (master, bytes) -> ignore (Bus.transfer b ~master ~bytes))
    [ ("cpu", 64); ("cim-dma", 12); ("zz-probe", 0); (String.concat "" [ "c"; "pu" ], 64);
      ("cim-dma", 4); ("abc", 8); ("cpu", 0) ];
  Alcotest.(check (list (pair string int)))
    "per-master traffic, sorted by name"
    [ ("abc", 8); ("cim-dma", 4112); ("cpu", 192); ("zz-probe", 0) ]
    (Bus.traffic b);
  Alcotest.(check int) "total over every master" 4312 (Bus.total_bytes b);
  Alcotest.(check int) "every transfer counted" 9 (Bus.transfers b);
  (* [memo_sizes] on [b], whose memo holds the last size above, and on
     a fresh bus: every latency is the formula's, and [b]'s counters
     move by exactly what the fresh bus counts *)
  let cfg = Bus.config b in
  let fresh = Bus.create () in
  let total = Bus.total_bytes b and transfers = Bus.transfers b and traffic = Bus.traffic b in
  List.iteri
    (fun i bytes ->
      let master = if i land 1 = 0 then "cpu" else "cim-dma" in
      let expected =
        rounded_latency ~fixed_ps:cfg.Bus.arbitration_ps ~bytes_per_ps:cfg.Bus.bytes_per_ps bytes
      in
      Alcotest.(check int) (Printf.sprintf "%d-byte transfer" bytes) expected
        (Bus.transfer b ~master ~bytes);
      Alcotest.(check int) (Printf.sprintf "%d-byte transfer, fresh bus" bytes) expected
        (Bus.transfer fresh ~master ~bytes))
    memo_sizes;
  Alcotest.(check (list (pair string int)))
    "fresh bus per master" [ ("cim-dma", 76); ("cpu", 4224) ] (Bus.traffic fresh);
  Alcotest.(check int) "bytes moved as on a fresh bus" (Bus.total_bytes fresh)
    (Bus.total_bytes b - total);
  Alcotest.(check int) "transfers as on a fresh bus" (Bus.transfers fresh)
    (Bus.transfers b - transfers);
  List.iter
    (fun master ->
      Alcotest.(check int) (master ^ " bytes as on a fresh bus")
        (List.assoc master (Bus.traffic fresh))
        (List.assoc master (Bus.traffic b) - List.assoc master traffic))
    [ "cim-dma"; "cpu" ]

let test_dma_roundtrip () =
  let bus = Bus.create () in
  let memory = Memory.create () in
  let dma = Dma.create ~bus ~memory () in
  let lat_w = Dma.write dma ~addr:4096 (Bytes.of_string "hello-cim") in
  let data, lat_r = Dma.read dma ~addr:4096 ~bytes:9 in
  Alcotest.(check string) "data through DMA" "hello-cim" (Bytes.to_string data);
  Alcotest.(check bool) "latencies positive" true (lat_w > 0 && lat_r > 0);
  Alcotest.(check int) "bytes read" 9 (Dma.bytes_read dma);
  Alcotest.(check int) "bytes written" 9 (Dma.bytes_written dma);
  Alcotest.(check int) "dma traffic visible on bus" 18 (Bus.total_bytes bus)

(* One descriptor moving [bytes], on a fresh system — the unit the
   engine's transfer accounting is built from. *)
let dma_read_latency ~bytes =
  let bus = Bus.create () in
  let memory = Memory.create () in
  let dma = Dma.create ~bus ~memory () in
  snd (Dma.read dma ~addr:0 ~bytes)

let test_dma_strided_full_charge () =
  let bus = Bus.create () in
  let memory = Memory.create () in
  let dma = Dma.create ~bus ~memory () in
  for i = 0 to 255 do
    Memory.write_bytes memory (4096 + i) (Bytes.make 1 (Char.chr (i land 0xff)))
  done;
  let data, lat = Dma.read_strided dma ~addr:4096 ~row_bytes:16 ~rows:4 ~stride_bytes:64 in
  Alcotest.(check int) "packed result" 64 (Bytes.length data);
  (* a strided gather is one descriptor over the total payload: it must
     be charged exactly like a contiguous burst of the same size *)
  Alcotest.(check int) "charged as one full-size burst" (dma_read_latency ~bytes:64) lat;
  Alcotest.(check int) "all gathered bytes counted" 64 (Dma.bytes_read dma);
  Alcotest.(check int) "one descriptor" 1 (Dma.transfers dma)

let test_dma_charge_matches_read () =
  let bus = Bus.create () in
  let memory = Memory.create () in
  let dma = Dma.create ~bus ~memory () in
  let lat = Dma.charge dma ~bytes:256 in
  Alcotest.(check int) "charge = real transfer cost" (dma_read_latency ~bytes:256) lat;
  Alcotest.(check int) "charged bytes counted" 256 (Dma.bytes_read dma);
  Alcotest.(check int) "charge counts a descriptor" 1 (Dma.transfers dma);
  Alcotest.(check bool) "negative charge rejected" true
    (try
       ignore (Dma.charge dma ~bytes:(-1));
       false
     with Invalid_argument _ -> true)

(* The law that keeps double buffering honest: splitting a transfer
   into more descriptors can never cost less than one descriptor over
   the whole payload, so overlapping split transfers with compute never
   undercharges total DMA cycles. *)
let qcheck_dma_split_never_undercharges =
  QCheck.Test.make ~name:"split transfers cost at least the merged burst" ~count:100
    QCheck.(pair (int_range 1 4096) (int_range 1 4096))
    (fun (b1, b2) ->
      dma_read_latency ~bytes:b1 + dma_read_latency ~bytes:b2
      >= dma_read_latency ~bytes:(b1 + b2))

let test_mmio_dispatch () =
  let io = Mmio.create () in
  let reg = ref 0l in
  let handler =
    {
      Mmio.read = (fun ~offset -> if offset = 0 then !reg else Int32.of_int offset);
      write = (fun ~offset v -> if offset = 0 then reg := v);
    }
  in
  Mmio.map io ~base:0x4000 ~size:64 handler;
  Mmio.write io ~addr:0x4000 42l;
  Alcotest.(check int32) "register write visible" 42l (Mmio.read io ~addr:0x4000);
  Alcotest.(check int32) "offset dispatch" 8l (Mmio.read io ~addr:0x4008);
  Alcotest.(check int) "read count" 2 (Mmio.reads io)

let test_mmio_overlap_rejected () =
  let io = Mmio.create () in
  let handler = { Mmio.read = (fun ~offset:_ -> 0l); write = (fun ~offset:_ _ -> ()) } in
  Mmio.map io ~base:0x1000 ~size:0x100 handler;
  Alcotest.(check bool) "overlap raises" true
    (try
       Mmio.map io ~base:0x10F0 ~size:0x20 handler;
       false
     with Invalid_argument _ -> true)

let test_mmio_unmapped () =
  let io = Mmio.create () in
  Alcotest.check_raises "unmapped read" (Failure "Mmio: unmapped address 0x99") (fun () ->
      ignore (Mmio.read io ~addr:0x99))

(* ---------- CPU ---------- *)

let make_hierarchy () =
  let memory = Memory.create () in
  let next_mem op ~addr:_ ~bytes =
    ignore op;
    Memory.burst_latency memory ~bytes
  in
  let l2 = Cache.create ~config:Cache.l2_arm_a7 ~next:next_mem () in
  let l1d = Cache.create ~config:Cache.l1d_arm_a7 ~next:(fun op ~addr ~bytes:_ -> Cache.access l2 op ~addr) () in
  (memory, l1d, l2)

let test_cpu_counts_and_cycles () =
  let _, l1d, _ = make_hierarchy () in
  let cpu = Cpu.create ~l1d () in
  Cpu.issue cpu Cpu.Int_alu;
  Cpu.issue cpu Cpu.Fp_mac;
  Cpu.issue cpu ~addr:64 Cpu.Load;
  Alcotest.(check int) "instructions" 3 (Cpu.instructions cpu);
  Alcotest.(check int) "class count" 1 (Cpu.class_count cpu Cpu.Fp_mac);
  Alcotest.(check bool) "cycles include memory latency" true (Cpu.cycles cpu > 1 + 8 + 1)

let test_cpu_load_requires_addr () =
  let _, l1d, _ = make_hierarchy () in
  let cpu = Cpu.create ~l1d () in
  Alcotest.(check bool) "load without addr raises" true
    (try
       Cpu.issue cpu Cpu.Load;
       false
     with Invalid_argument _ -> true)

let test_cpu_locality_speedup () =
  (* Streaming the same line must be much faster than striding lines. *)
  let _, l1d_a, _ = make_hierarchy () in
  let cpu_hit = Cpu.create ~l1d:l1d_a () in
  for _ = 1 to 1000 do
    Cpu.issue cpu_hit ~addr:0 Cpu.Load
  done;
  let _, l1d_b, _ = make_hierarchy () in
  let cpu_miss = Cpu.create ~l1d:l1d_b () in
  for i = 0 to 999 do
    Cpu.issue cpu_miss ~addr:(i * 4096 * 64) Cpu.Load
  done;
  Alcotest.(check bool) "cache locality visible in cycles" true
    (Cpu.cycles cpu_miss > 10 * Cpu.cycles cpu_hit)

let test_cpu_roi () =
  let _, l1d, _ = make_hierarchy () in
  let cpu = Cpu.create ~l1d () in
  Cpu.issue cpu Cpu.Int_alu;
  Cpu.roi_begin cpu;
  Cpu.issue cpu Cpu.Int_alu;
  Cpu.issue cpu Cpu.Int_alu;
  Cpu.roi_end cpu;
  Cpu.issue cpu Cpu.Int_alu;
  Cpu.roi_begin cpu;
  Cpu.issue cpu Cpu.Int_alu;
  Cpu.roi_end cpu;
  let r = Cpu.roi cpu in
  Alcotest.(check int) "roi instructions accumulate" 3 r.Cpu.roi_instructions;
  Alcotest.(check int) "roi cycles" 3 r.Cpu.roi_cycles

let test_cpu_roi_misuse () =
  let _, l1d, _ = make_hierarchy () in
  let cpu = Cpu.create ~l1d () in
  Alcotest.check_raises "end without begin" (Failure "Cpu.roi_end: no ROI window open")
    (fun () -> Cpu.roi_end cpu);
  Cpu.roi_begin cpu;
  Alcotest.check_raises "double begin" (Failure "Cpu.roi_begin: ROI window already open")
    (fun () -> Cpu.roi_begin cpu)

let test_cpu_stall () =
  let _, l1d, _ = make_hierarchy () in
  let cpu = Cpu.create ~l1d () in
  let t0 = Cpu.time_ps cpu in
  Cpu.stall_ps cpu 5000;
  Alcotest.(check int) "stall advances time" (t0 + 5000) (Cpu.time_ps cpu);
  Alcotest.(check int) "stall retires nothing" 0 (Cpu.instructions cpu)

type cpu_cmd =
  | Issue_run of Cpu.iclass * int * int
  | Issue_at of Cpu.iclass * int
  | Flush_both
  | Probe of probe * int * int  (** kind, site, address *)
  | Retire

and probe = P_load | P_store | P_update

(* A core over an L1D and L2 whose next level records every (op, addr)
   it is asked for. *)
let recorded_core (l1_cfg, l2_cfg) =
  let log = ref [] in
  let l2 = Cache.create ~config:l2_cfg ~next:(recording_next log) () in
  let l1d =
    Cache.create ~config:l1_cfg ~next:(fun op ~addr ~bytes:_ -> Cache.access l2 op ~addr) ()
  in
  (Cpu.create ~l1d (), l1d, l2, log)

(* [issue_run] is [count] calls of [issue_at], on the Table I hierarchy
   and on a small one where runs of up to 300 elements evict. So are
   probes retired later: a probed load or store is one [issue_at], an
   update a load and then a store, and at every [Retire] the core
   retires what is pending and must match the reference there. Probe
   sites are 0-7 and their addresses mostly fall in 128 bytes or 2 KB,
   so a site often returns to its last line, and after fills and
   flushes; in half of the cases only probes, flushes and retires run,
   so nothing but the probes' own misses fills a line. *)
let qcheck_issue_run_matches_issue_at =
  let small =
    ( { Cache.name = "l1-small"; size_bytes = 512; line_bytes = 32; ways = 2;
        hit_latency_ps = 2000 },
      { Cache.name = "l2-small"; size_bytes = 2048; line_bytes = 64; ways = 4;
        hit_latency_ps = 10_000 } )
  in
  let cls = QCheck.Gen.map (fun l -> if l then Cpu.Load else Cpu.Store) QCheck.Gen.bool in
  let addr = QCheck.Gen.map (fun a -> 4 * a) (QCheck.Gen.int_bound 16383) in
  let probe = QCheck.Gen.oneofl [ P_load; P_store; P_update ] in
  let near span = QCheck.Gen.(map (fun a -> 4 * a) (int_bound ((span / 4) - 1))) in
  let probe_cmd addr =
    QCheck.Gen.(map3 (fun p site a -> Probe (p, site, a)) probe (int_bound 7) addr)
  in
  let cmd =
    QCheck.Gen.(
      frequency
        [
          (4, map3 (fun c a n -> Issue_run (c, a, n)) cls addr (int_bound 300));
          (4, map2 (fun c a -> Issue_at (c, a)) cls addr);
          (2, return Flush_both);
          (12, probe_cmd (frequency [ (2, near 128); (2, near 2048); (1, addr) ]));
          (2, return Retire);
        ])
  in
  let probes_only =
    QCheck.Gen.(
      frequency
        [
          (6, probe_cmd (frequency [ (3, near 128); (1, near 2048) ]));
          (1, return Flush_both);
          (1, return Retire);
        ])
  in
  let print (table1, cmds) =
    Printf.sprintf "%s: %s"
      (if table1 then "table1" else "small")
      (String.concat " "
         (List.map
            (function
              | Issue_run (c, a, n) ->
                  Printf.sprintf "%s%d*%d" (if c = Cpu.Load then "r" else "w") a n
              | Issue_at (c, a) -> Printf.sprintf "%s%d" (if c = Cpu.Load then "r" else "w") a
              | Flush_both -> "F"
              | Probe (p, site, a) ->
                  Printf.sprintf "%s%d@%d"
                    (match p with P_load -> "pr" | P_store -> "pw" | P_update -> "pu")
                    a site
              | Retire -> "R")
            cmds))
  in
  QCheck.Test.make ~name:"issue_run equals issue_at per element" ~count:400
    (QCheck.make ~print
       QCheck.Gen.(
         pair bool
           (frequency [ (1, list_size (0 -- 40) cmd); (1, list_size (0 -- 40) probes_only) ])))
    (fun (table1, cmds) ->
      let cfgs = if table1 then (Cache.l1d_arm_a7, Cache.l2_arm_a7) else small in
      let cpu, l1, l2, log = recorded_core cfgs in
      let ref_cpu, ref_l1, ref_l2, ref_log = recorded_core cfgs in
      let loads = ref 0 and stores = ref 0 and cycles = ref 0 in
      let counters_match () =
        Cpu.retire_probed cpu ~loads:!loads ~stores:!stores ~cycles:!cycles;
        loads := 0;
        stores := 0;
        cycles := 0;
        Cpu.cycles cpu = Cpu.cycles ref_cpu
        && Cpu.instructions cpu = Cpu.instructions ref_cpu
        && Cpu.time_ps cpu = Cpu.time_ps ref_cpu
        && List.for_all
             (fun c -> Cpu.class_count cpu c = Cpu.class_count ref_cpu c)
             [ Cpu.Int_alu; Cpu.Load; Cpu.Store ]
      in
      List.for_all
        (function
          | Issue_run (cls, addr, count) ->
              Cpu.issue_run cpu ~addr ~count cls;
              for k = 0 to count - 1 do
                Cpu.issue_at ref_cpu ~addr:(addr + (4 * k)) cls
              done;
              true
          | Issue_at (cls, addr) ->
              Cpu.issue_at cpu ~addr cls;
              Cpu.issue_at ref_cpu ~addr cls;
              true
          | Flush_both ->
              (* the driver's order: L2, then L1D *)
              List.iter (fun c -> ignore (Cache.flush c)) [ l2; l1; ref_l2; ref_l1 ];
              true
          | Probe (P_load, site, addr) ->
              incr loads;
              cycles := !cycles + Cpu.probe_load cpu ~site ~addr;
              Cpu.issue_at ref_cpu ~addr Cpu.Load;
              true
          | Probe (P_store, site, addr) ->
              incr stores;
              cycles := !cycles + Cpu.probe_store cpu ~site ~addr;
              Cpu.issue_at ref_cpu ~addr Cpu.Store;
              true
          | Probe (P_update, site, addr) ->
              incr loads;
              incr stores;
              cycles := !cycles + Cpu.probe_update cpu ~site ~addr;
              Cpu.issue_at ref_cpu ~addr Cpu.Load;
              Cpu.issue_at ref_cpu ~addr Cpu.Store;
              true
          | Retire -> counters_match ())
        cmds
      && counters_match ()
      && Cache.stats l1 = Cache.stats ref_l1
      && Cache.stats l2 = Cache.stats ref_l2
      && Cache.dirty_lines l1 = Cache.dirty_lines ref_l1
      && !log = !ref_log)

let test_cpu_issue_run_rejects () =
  let _, l1d, _ = make_hierarchy () in
  let cpu = Cpu.create ~l1d () in
  let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "non-memory class" true
    (raises (fun () -> Cpu.issue_run cpu ~addr:0 ~count:4 Cpu.Int_alu));
  Alcotest.(check bool) "negative count" true
    (raises (fun () -> Cpu.issue_run cpu ~addr:0 ~count:(-1) Cpu.Load));
  Alcotest.(check bool) "negative address" true
    (raises (fun () -> Cpu.issue_run cpu ~addr:(-4) ~count:1 Cpu.Load));
  Cpu.issue_run cpu ~addr:0 ~count:0 Cpu.Store;
  Alcotest.(check int) "rejected and empty runs retire nothing" 0 (Cpu.instructions cpu);
  Alcotest.(check int) "and touch no line" 0 (Cache.stats l1d).Cache.misses

let suites =
  [
    ( "sim.time",
      [ Alcotest.test_case "conversions" `Quick test_time_conversions ] );
    ( "sim.events",
      [
        Alcotest.test_case "time order" `Quick test_event_order;
        Alcotest.test_case "FIFO ties" `Quick test_event_same_time_fifo;
        Alcotest.test_case "cascade" `Quick test_event_cascade;
        Alcotest.test_case "run_until" `Quick test_event_run_until;
        Alcotest.test_case "no past scheduling" `Quick test_event_past_rejected;
      ] );
    ( "sim.memory",
      [
        Alcotest.test_case "byte/i32 roundtrip" `Quick test_memory_rw;
        Alcotest.test_case "f32 semantics" `Quick test_memory_f32;
        Alcotest.test_case "chunk boundary" `Quick test_memory_chunk_boundary;
        Alcotest.test_case "bounds" `Quick test_memory_bounds;
        Alcotest.test_case "burst latency" `Quick test_memory_burst_latency;
        QCheck_alcotest.to_alcotest qcheck_bulk_transfers;
      ] );
    ( "sim.cache",
      [
        Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
        Alcotest.test_case "line granularity" `Quick test_cache_line_granularity;
        Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
        Alcotest.test_case "writeback on eviction" `Quick test_cache_writeback_on_eviction;
        Alcotest.test_case "flush (coherence)" `Quick test_cache_flush;
        QCheck_alcotest.to_alcotest qcheck_cache_latency_positive;
        QCheck_alcotest.to_alcotest qcheck_flush_matches_full_sweep;
        Alcotest.test_case "set count must be a power of two" `Quick
          test_cache_rejects_non_power_of_two_sets;
        Alcotest.test_case "flush cost follows the touched sets" `Quick
          test_flush_allocation_is_per_touched_set;
      ] );
    ( "sim.interconnect",
      [
        Alcotest.test_case "bus latency/traffic" `Quick test_bus_latency_and_traffic;
        Alcotest.test_case "dma roundtrip" `Quick test_dma_roundtrip;
        Alcotest.test_case "dma strided full charge" `Quick test_dma_strided_full_charge;
        Alcotest.test_case "dma charge matches read" `Quick test_dma_charge_matches_read;
        QCheck_alcotest.to_alcotest qcheck_dma_split_never_undercharges;
        Alcotest.test_case "mmio dispatch" `Quick test_mmio_dispatch;
        Alcotest.test_case "mmio overlap" `Quick test_mmio_overlap_rejected;
        Alcotest.test_case "mmio unmapped" `Quick test_mmio_unmapped;
      ] );
    ( "sim.cpu",
      [
        Alcotest.test_case "counts/cycles" `Quick test_cpu_counts_and_cycles;
        Alcotest.test_case "load needs addr" `Quick test_cpu_load_requires_addr;
        Alcotest.test_case "locality speedup" `Quick test_cpu_locality_speedup;
        Alcotest.test_case "roi windows" `Quick test_cpu_roi;
        Alcotest.test_case "roi misuse" `Quick test_cpu_roi_misuse;
        Alcotest.test_case "stall" `Quick test_cpu_stall;
        QCheck_alcotest.to_alcotest qcheck_issue_run_matches_issue_at;
        Alcotest.test_case "issue_run rejects" `Quick test_cpu_issue_run_rejects;
      ] );
  ]

(* ---------- additional edge cases ---------- *)

let test_event_advance_to () =
  let q = Event_queue.create () in
  Event_queue.advance_to q ~time:500;
  Alcotest.(check int) "clock moved" 500 (Event_queue.now q);
  Event_queue.advance_to q ~time:100;
  Alcotest.(check int) "never backwards" 500 (Event_queue.now q);
  Alcotest.(check int) "nothing executed" 0 (Event_queue.executed q)

let test_event_executed_count () =
  let q = Event_queue.create () in
  for i = 1 to 5 do
    Event_queue.schedule q ~delay:i ~name:"e" (fun () -> ())
  done;
  Event_queue.run_all q;
  Alcotest.(check int) "five executed" 5 (Event_queue.executed q);
  Alcotest.(check bool) "empty queue run_next" false (Event_queue.run_next q)

let test_memory_access_counters () =
  let m = Memory.create () in
  Memory.write_f32 m 0 1.0;
  ignore (Memory.read_f32 m 0);
  ignore (Memory.read_bytes m 0 16);
  Alcotest.(check int) "write bytes counted" 4 (Memory.writes m);
  Alcotest.(check int) "read bytes counted" 20 (Memory.reads m)

let test_bus_transfer_count () =
  let b = Bus.create () in
  ignore (Bus.transfer b ~master:"cpu" ~bytes:64);
  ignore (Bus.transfer b ~master:"cpu" ~bytes:0);
  Alcotest.(check int) "transfers counted" 2 (Bus.transfers b);
  Alcotest.(check bool) "zero-byte transfer still arbitrates" true
    (Bus.transfer b ~master:"cpu" ~bytes:0 > 0)

let test_cache_dirty_then_reset () =
  let c = Cache.create ~next:(fun _ ~addr:_ ~bytes:_ -> 10) () in
  ignore (Cache.access c Cache.Write ~addr:0);
  ignore (Cache.access c Cache.Write ~addr:4);
  Alcotest.(check int) "same line stays one dirty line" 1 (Cache.dirty_lines c);
  Cache.reset_stats c;
  Alcotest.(check int) "stats cleared" 0 (Cache.stats c).Cache.hits;
  Alcotest.(check int) "state survives stats reset" 1 (Cache.dirty_lines c)

let test_time_roundtrip () =
  Alcotest.(check int) "ps_of_seconds inverse" 1_500_000
    (Time_base.ps_of_seconds (Time_base.seconds_of_ps 1_500_000))

let edge_suite =
  ( "sim.edges",
    [
      Alcotest.test_case "advance_to" `Quick test_event_advance_to;
      Alcotest.test_case "executed count" `Quick test_event_executed_count;
      Alcotest.test_case "memory counters" `Quick test_memory_access_counters;
      Alcotest.test_case "bus transfer count" `Quick test_bus_transfer_count;
      Alcotest.test_case "cache dirty/reset" `Quick test_cache_dirty_then_reset;
      Alcotest.test_case "time roundtrip" `Quick test_time_roundtrip;
    ] )

let suites = suites @ [ edge_suite ]
