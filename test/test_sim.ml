open Tdo_sim

(* ---------- Time ---------- *)

let test_time_conversions () =
  Alcotest.(check int) "1 GHz period" 1000 (Time_base.period_ps ~freq_hz:1e9);
  Alcotest.(check int) "1.2 GHz period" 833 (Time_base.period_ps ~freq_hz:1.2e9);
  Alcotest.(check (float 1e-15)) "seconds" 1e-6 (Time_base.seconds_of_ps Time_base.ps_per_us)

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

(* Words [f] allocates on either heap, the 64 KB chunks and the
   256-slot leaves of [Memory]'s table included. *)
let allocated_words f =
  let minor0, promoted0, major0 = Gc.counters () in
  f ();
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* A chunk is 8,193 words and a leaf 257: an access that allocates
   neither, even one raising with a formatted message, stays below. *)
let check_allocates_nothing what f =
  let words = allocated_words f in
  Alcotest.(check bool)
    (Printf.sprintf "%s allocates no leaf or chunk (%.0f words)" what words)
    true (words < 257.0)

let chunk = 65536

(* the first byte of chunk [c]; a leaf holds 256 chunks *)
let chunk_addr c = c * chunk

let test_memory_untouched_reads_zero () =
  let m = Memory.create () in
  let u8 = ref (-1) and i32 = ref 1l and f32 = ref 1.0 and straddling = ref 1.0 in
  let f32s = [| 1.0; 1.0 |] in
  check_allocates_nothing "reading untouched memory" (fun () ->
      u8 := Memory.read_u8 m (chunk_addr 300 + 5);
      i32 := Memory.read_i32 m (chunk_addr 12_288);
      f32 := Memory.read_f32 m (chunk_addr 32_767 + 8);
      straddling := Memory.read_f32 m (chunk_addr 7 - 2);
      Memory.read_f32s m (chunk_addr 2) f32s ~pos:0 ~len:2);
  Alcotest.(check int) "u8" 0 !u8;
  Alcotest.(check int32) "i32" 0l !i32;
  Alcotest.(check (float 0.0)) "f32" 0.0 !f32;
  Alcotest.(check (float 0.0)) "straddling f32" 0.0 !straddling;
  Alcotest.(check (array (float 0.0))) "f32s" [| 0.0; 0.0 |] f32s;
  (* a copy from untouched memory writes zeros over old data *)
  Memory.write_f32 m (chunk_addr 9) 2.5;
  Memory.copy m ~src:(chunk_addr 400) ~dst:(chunk_addr 9) ~len:4;
  Alcotest.(check (float 0.0)) "copied zeros" 0.0 (Memory.read_f32 m (chunk_addr 9));
  check_allocates_nothing "reading the chunk after a written one" (fun () ->
      f32 := Memory.read_f32 m (chunk_addr 10));
  Alcotest.(check (float 0.0)) "the chunk after a written one" 0.0 !f32

let test_memory_last_f32 () =
  let m = Memory.create () in
  let last = (Memory.config m).Memory.size_bytes - 4 in
  Memory.write_f32 m last 1.25;
  Alcotest.(check (float 0.0)) "last f32" 1.25 (Memory.read_f32 m last);
  Alcotest.(check int) "its last byte" 0x3F (Memory.read_u8 m (last + 3));
  Alcotest.(check (float 0.0)) "the f32 before it untouched" 0.0 (Memory.read_f32 m (last - 4))

let raises_invalid f = match f () with () -> false | exception Invalid_argument _ -> true

let test_memory_past_end () =
  let m = Memory.create () in
  let size = (Memory.config m).Memory.size_bytes in
  let bytes = Bytes.make 4 'x' and floats = [| 1.0; 2.0 |] in
  List.iter
    (fun (what, f) ->
      let raised = ref false in
      check_allocates_nothing what (fun () -> raised := raises_invalid f);
      Alcotest.(check bool) (what ^ " raises") true !raised)
    [
      ("an f32 write at the end", fun () -> Memory.write_f32 m size 1.0);
      ("an f32 write over the end", fun () -> Memory.write_f32 m (size - 2) 1.0);
      ("an f32 read at the end", fun () -> ignore (Memory.read_f32 m size));
      ("an f32 read below 0", fun () -> ignore (Memory.read_f32 m (-4)));
      ("a u8 write at the end", fun () -> Memory.write_u8 m size 1);
      ("an i32 write far past the end", fun () -> Memory.write_i32 m (4 * size) 1l);
      ("a byte write over the end", fun () -> Memory.write_bytes m (size - 3) bytes);
      ("an f32s write over the end", fun () -> Memory.write_f32s m (size - 4) floats ~pos:0 ~len:2);
    ];
  Alcotest.(check int32) "the last word untouched" 0l (Memory.read_i32 m (size - 4))

(* A memory whose last chunk is partial (3.5 chunks and 12 bytes), one
   whose second leaf is partial (300 chunks less 8 bytes) and one of 6
   bytes. *)
let test_memory_odd_sizes () =
  List.iter
    (fun size ->
      let m = Memory.create ~config:{ Memory.default_config with Memory.size_bytes = size } () in
      let last = size - 4 in
      Memory.write_f32 m last 3.5;
      Memory.write_u8 m 0 0x7F;
      Alcotest.(check (float 0.0)) (Printf.sprintf "last f32 of %d bytes" size) 3.5
        (Memory.read_f32 m last);
      Alcotest.(check int) (Printf.sprintf "first byte of %d bytes" size) 0x7F (Memory.read_u8 m 0);
      Alcotest.(check bool) (Printf.sprintf "an f32 over the end of %d bytes" size) true
        (raises_invalid (fun () -> Memory.write_f32 m (size - 3) 0.0)))
    [ (3 * chunk) + (chunk / 2) + 12; (300 * chunk) - 8; 6 ]

(* A chunk in the fourth leaf and then one in the first, at the same
   slot of their leaves, then a word in every chunk of the second leaf:
   each value stays where it was written, and the first and third
   leaves' chunks stay zero. *)
let test_memory_high_chunk_first () =
  let m = Memory.create () in
  let high = chunk_addr ((3 * 256) + 5) + 40 and low = chunk_addr 5 + 40 in
  Memory.write_f32 m high 7.0;
  Alcotest.(check (float 0.0)) "low chunk still zero" 0.0 (Memory.read_f32 m low);
  Memory.write_f32 m low (-3.0);
  Alcotest.(check (float 0.0)) "high" 7.0 (Memory.read_f32 m high);
  Alcotest.(check (float 0.0)) "low" (-3.0) (Memory.read_f32 m low);
  for c = 256 to 511 do
    Memory.write_i32 m (chunk_addr c) (Int32.of_int c)
  done;
  for c = 256 to 511 do
    Alcotest.(check int32) (Printf.sprintf "chunk %d" c) (Int32.of_int c)
      (Memory.read_i32 m (chunk_addr c));
    Alcotest.(check int32) (Printf.sprintf "chunk %d untouched" (c - 256)) 0l
      (Memory.read_i32 m (chunk_addr (c - 256)));
    Alcotest.(check int32) (Printf.sprintf "chunk %d untouched" (c + 256)) 0l
      (Memory.read_i32 m (chunk_addr (c + 256)))
  done;
  Alcotest.(check (float 0.0)) "high after the leaf fill" 7.0 (Memory.read_f32 m high);
  Alcotest.(check (float 0.0)) "low after the leaf fill" (-3.0) (Memory.read_f32 m low)

(* An f32 whose low half is in the last chunk of one leaf and whose
   high half is in the first chunk of the next. *)
let test_memory_f32_across_leaves () =
  let m = Memory.create () in
  let boundary = chunk_addr 256 in
  let v = Int32.float_of_bits 0x3FC0_1234l in
  Memory.write_f32 m (boundary - 2) v;
  Alcotest.(check (float 0.0)) "straddling f32" v (Memory.read_f32 m (boundary - 2));
  Alcotest.(check int) "low half in leaf 0" 0x12 (Memory.read_u8 m (boundary - 1));
  Alcotest.(check int) "high half in leaf 1" 0xC0 (Memory.read_u8 m boundary);
  let out = [| 0.0; 0.0; 0.0 |] in
  Memory.write_f32s m (boundary - 6) [| 1.0; 2.0; 3.0 |] ~pos:0 ~len:3;
  Memory.read_f32s m (boundary - 6) out ~pos:0 ~len:3;
  Alcotest.(check (array (float 0.0))) "bulk across the leaves" [| 1.0; 2.0; 3.0 |] out

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
    memo_sizes

(* The bulk transfers against the same transfer made one element (or
   one byte) at a time on a second memory: the bytes around the range
   and, for the f32 forms, the floats bit for bit. Ranges straddle 64 KB
   chunk boundaries, sit in a chunk nothing touched, or run past the
   end of an 8-chunk memory, where the transfer must raise and move
   nothing. *)
type bulk_op = Bulk_write | Bulk_read | Bulk_copy

let qcheck_bulk_transfers =
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
      match op with
      | Bulk_write ->
          if not (in_range a n) then
            raises (fun () -> Memory.write_f32s m1 a values ~pos ~len) && same_bytes a n
          else begin
            Memory.write_f32s m1 a values ~pos ~len;
            for i = 0 to len - 1 do
              Memory.write_f32 m2 (a + (4 * i)) values.(pos + i)
            done;
            let back1 = Array.make len 0.0 in
            Memory.read_f32s m1 a back1 ~pos:0 ~len;
            let back2 = Array.init len (fun i -> Memory.read_f32 m2 (a + (4 * i))) in
            bits back1 = bits back2 && same_bytes a n
          end
      | Bulk_read ->
          let d1 = Array.copy values and d2 = Array.copy values in
          if not (in_range a n) then
            raises (fun () -> Memory.read_f32s m1 a d1 ~pos ~len) && bits d1 = bits values
          else begin
            Memory.read_f32s m1 a d1 ~pos ~len;
            for i = 0 to len - 1 do
              d2.(pos + i) <- Memory.read_f32 m2 (a + (4 * i))
            done;
            bits d1 = bits d2
          end
      | Bulk_copy ->
          if (n > 0 && a < b + n && b < a + n) || not (in_range a n && in_range b n) then
            raises (fun () -> Memory.copy m1 ~src:b ~dst:a ~len:n) && same_bytes a n
          else begin
            Memory.copy m1 ~src:b ~dst:a ~len:n;
            for i = 0 to n - 1 do
              Memory.write_u8 m2 (a + i) (Memory.read_u8 m2 (b + i))
            done;
            same_bytes a n && same_bytes b n
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

(* Accesses through the deferred-hit entry leave the cache as probing
   each of them does. Two sites take lines [x] (written) and [y] of one
   set of a 2-way cache, then three rounds of y and x follow, skipped:
   their ticks count as hits, and each line gets the stamp of its last
   access. [probe_hit] reports a fill in the full set as a miss and
   changes nothing; the fill itself then evicts [y], whose last access
   came before [x]'s, as it does after three probed rounds. Without the
   stamps it would evict [x], the line probed first. *)
let test_cache_deferred_hits_match_probes () =
  let config =
    { Cache.name = "tiny"; size_bytes = 4 * 2 * 16; line_bytes = 16; ways = 2; hit_latency_ps = 3 }
  in
  (* 4 sets: x, y and z all fall in set 0 *)
  let x = 0 and y = 64 and z = 128 in
  let run rounds =
    let log = ref [] in
    let c = Cache.create ~config ~next:(recording_next log) () in
    let memo = Cache.memo () in
    ignore (Cache.probe c memo ~site:0 Cache.Write ~addr:x);
    ignore (Cache.probe c memo ~site:1 Cache.Read ~addr:y);
    rounds c memo;
    let stats = Cache.stats c in
    let missed = Cache.probe_hit c memo ~site:2 Cache.Read ~update:false ~addr:z in
    Alcotest.(check bool) "a fill is reported as a miss" false missed;
    Alcotest.(check bool) "and changes nothing" true (stats = Cache.stats c);
    let fill = Cache.probe c memo ~site:2 Cache.Read ~addr:z in
    let hit_x = Cache.probe_hit c memo ~site:0 Cache.Write ~update:false ~addr:(x + 4) in
    let again_y = Cache.access c Cache.Read ~addr:y in
    (fill, hit_x, again_y, Cache.clock c, Cache.stats c, Cache.dirty_lines c, !log)
  in
  let probed =
    run (fun c memo ->
        for _ = 1 to 3 do
          ignore (Cache.probe c memo ~site:1 Cache.Read ~addr:(y + 4));
          ignore (Cache.probe c memo ~site:0 Cache.Write ~addr:(x + 8))
        done)
  in
  let deferred ~stamps =
    run (fun c memo ->
        let t = Cache.clock c in
        if stamps then begin
          Cache.stamp_site c memo ~site:1 (t + 5);
          Cache.stamp_site c memo ~site:0 (t + 6)
        end;
        Cache.skip_hits c ~until:(t + 6))
  in
  let _, hit_x, again_y, _, _, _, _ = probed in
  Alcotest.(check bool) "x survives the fill" true hit_x;
  Alcotest.(check bool) "y was evicted" true (again_y > 3);
  Alcotest.(check bool) "deferred hits equal probed ones" true (deferred ~stamps:true = probed);
  Alcotest.(check bool) "unstamped, the fill evicts x" false (deferred ~stamps:false = probed);
  Alcotest.check_raises "the clock never runs backwards"
    (Invalid_argument "Cache.skip_hits: the clock runs backwards") (fun () ->
      let c = Cache.create ~config ~next:(flat_next 1) () in
      ignore (Cache.access c Cache.Read ~addr:x);
      Cache.skip_hits c ~until:0)

(* [probe_fill] after a [probe_hit] that missed is one [probe]: on a
   full 2-way set whose lines [x] (written) and [y] took skipped hits,
   stamped between the two calls, the fill of [z] has the same latency,
   evicts the same line, and leaves the same clock, stats, dirty lines,
   next-level calls and memo entry ([z]'s site names the line it
   filled, so stamping that site decides the next eviction). For reads,
   writes and read-modify-writes. *)
let test_cache_probe_fill_is_one_probe () =
  let config =
    { Cache.name = "tiny"; size_bytes = 4 * 2 * 16; line_bytes = 16; ways = 2; hit_latency_ps = 3 }
  in
  let x = 0 and y = 64 and z = 128 and w = 192 in
  let run ~split op ~update =
    let log = ref [] in
    let c = Cache.create ~config ~next:(recording_next log) () in
    let memo = Cache.memo () in
    ignore (Cache.probe c memo ~site:0 Cache.Write ~addr:x);
    ignore (Cache.probe c memo ~site:1 Cache.Read ~addr:y);
    let t = Cache.clock c in
    Cache.skip_hits c ~until:(t + 4);
    let stamp () =
      Cache.stamp_site c memo ~site:1 (t + 3);
      Cache.stamp_site c memo ~site:0 (t + 4)
    in
    let fill =
      if split then begin
        let missed = Cache.probe_hit c memo ~site:2 op ~update ~addr:z in
        Alcotest.(check bool) "the fill is reported as a miss" false missed;
        stamp ();
        Cache.probe_fill c memo ~site:2 op ~update ~addr:z
      end
      else begin
        stamp ();
        if update then Cache.probe_update c memo ~site:2 ~addr:z
        else Cache.probe c memo ~site:2 op ~addr:z
      end
    in
    let state = (Cache.clock c, Cache.stats c, Cache.dirty_lines c) in
    let kept_x = Cache.probe_hit c memo ~site:0 Cache.Read ~update:false ~addr:x in
    let kept_y = Cache.probe_hit c memo ~site:1 Cache.Read ~update:false ~addr:y in
    (* the memo: [z]'s line becomes the most recent, so [w] evicts the other *)
    Cache.stamp_site c memo ~site:2 (Cache.clock c + 1);
    Cache.skip_hits c ~until:(Cache.clock c + 1);
    ignore (Cache.access c Cache.Read ~addr:w);
    let kept_z = Cache.probe_hit c memo ~site:2 Cache.Read ~update:false ~addr:z in
    (fill, state, kept_x, kept_y, kept_z, Cache.stats c, !log)
  in
  List.iter
    (fun (name, op, update) ->
      let probed = run ~split:false op ~update and split = run ~split:true op ~update in
      let _, _, kept_x, kept_y, kept_z, _, _ = probed in
      Alcotest.(check bool) (name ^ ": x survives") true kept_x;
      Alcotest.(check bool) (name ^ ": y was the victim") false kept_y;
      Alcotest.(check bool) (name ^ ": z survives w") true kept_z;
      Alcotest.(check bool) (name ^ ": probe_fill equals probe") true (split = probed))
    [ ("read", Cache.Read, false); ("write", Cache.Write, false); ("update", Cache.Read, true) ]

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
  let l1 = Bus.transfer b ~bytes:64 in
  let l2 = Bus.transfer b ~bytes:4096 in
  Alcotest.(check bool) "bigger transfer slower" true (l2 > l1);
  (* [memo_sizes] on [b], whose memo holds the last size above, and on
     a fresh bus: every latency is the formula's *)
  let cfg = Bus.default_config in
  let fresh = Bus.create () in
  List.iter
    (fun bytes ->
      let expected =
        rounded_latency ~fixed_ps:cfg.Bus.arbitration_ps ~bytes_per_ps:cfg.Bus.bytes_per_ps bytes
      in
      Alcotest.(check int) (Printf.sprintf "%d-byte transfer" bytes) expected
        (Bus.transfer b ~bytes);
      Alcotest.(check int) (Printf.sprintf "%d-byte transfer, fresh bus" bytes) expected
        (Bus.transfer fresh ~bytes))
    memo_sizes

let test_dma_roundtrip () =
  let bus = Bus.create () in
  let memory = Memory.create () in
  let dma = Dma.create ~bus ~memory () in
  Memory.write_bytes memory 4096 (Bytes.of_string "hello-cim");
  let data, lat = Dma.read dma ~addr:4096 ~bytes:9 in
  Alcotest.(check string) "data through DMA" "hello-cim" (Bytes.to_string data);
  Alcotest.(check bool) "latency positive" true (lat > 0)

(* One descriptor moving [bytes], on a fresh system — the unit the
   engine's transfer accounting is built from. *)
let dma_read_latency ~bytes =
  let bus = Bus.create () in
  let memory = Memory.create () in
  let dma = Dma.create ~bus ~memory () in
  snd (Dma.read dma ~addr:0 ~bytes)

let test_dma_charge_matches_read () =
  let bus = Bus.create () in
  let memory = Memory.create () in
  let dma = Dma.create ~bus ~memory () in
  let lat = Dma.charge dma ~bytes:256 in
  Alcotest.(check int) "charge = real transfer cost" (dma_read_latency ~bytes:256) lat;
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
  let reg = ref 0 in
  let handler =
    {
      Mmio.read = (fun ~offset -> if offset = 0 then !reg else offset);
      write = (fun ~offset v -> if offset = 0 then reg := v);
    }
  in
  Mmio.map io ~base:0x4000 ~size:64 handler;
  Mmio.write io ~addr:0x4000 42;
  Alcotest.(check int) "register write visible" 42 (Mmio.read io ~addr:0x4000);
  Alcotest.(check int) "offset dispatch" 8 (Mmio.read io ~addr:0x4008)

let test_mmio_overlap_rejected () =
  let io = Mmio.create () in
  let handler = { Mmio.read = (fun ~offset:_ -> 0); write = (fun ~offset:_ _ -> ()) } in
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
  Cpu.issue_at cpu ~addr:64 Cpu.Load;
  Alcotest.(check int) "instructions" 3 (Cpu.instructions cpu);
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
    Cpu.issue_at cpu_hit ~addr:0 Cpu.Load
  done;
  let _, l1d_b, _ = make_hierarchy () in
  let cpu_miss = Cpu.create ~l1d:l1d_b () in
  for i = 0 to 999 do
    Cpu.issue_at cpu_miss ~addr:(i * 4096 * 64) Cpu.Load
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
    ( "sim.memory",
      [
        Alcotest.test_case "byte/i32 roundtrip" `Quick test_memory_rw;
        Alcotest.test_case "f32 semantics" `Quick test_memory_f32;
        Alcotest.test_case "chunk boundary" `Quick test_memory_chunk_boundary;
        Alcotest.test_case "bounds" `Quick test_memory_bounds;
        Alcotest.test_case "burst latency" `Quick test_memory_burst_latency;
        QCheck_alcotest.to_alcotest qcheck_bulk_transfers;
        Alcotest.test_case "untouched memory reads zero" `Quick test_memory_untouched_reads_zero;
        Alcotest.test_case "last f32" `Quick test_memory_last_f32;
        Alcotest.test_case "past the end" `Quick test_memory_past_end;
        Alcotest.test_case "odd sizes" `Quick test_memory_odd_sizes;
        Alcotest.test_case "high chunk first" `Quick test_memory_high_chunk_first;
        Alcotest.test_case "f32 across leaves" `Quick test_memory_f32_across_leaves;
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
        Alcotest.test_case "deferred hits equal probed ones" `Quick
          test_cache_deferred_hits_match_probes;
        Alcotest.test_case "a reported miss fills as one probe" `Quick
          test_cache_probe_fill_is_one_probe;
        Alcotest.test_case "set count must be a power of two" `Quick
          test_cache_rejects_non_power_of_two_sets;
        Alcotest.test_case "flush cost follows the touched sets" `Quick
          test_flush_allocation_is_per_touched_set;
      ] );
    ( "sim.interconnect",
      [
        Alcotest.test_case "bus latency/traffic" `Quick test_bus_latency_and_traffic;
        Alcotest.test_case "dma roundtrip" `Quick test_dma_roundtrip;
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

let test_bus_transfer_count () =
  let b = Bus.create () in
  ignore (Bus.transfer b ~bytes:64);
  Alcotest.(check int) "zero-byte transfer still arbitrates" Bus.default_config.Bus.arbitration_ps
    (Bus.transfer b ~bytes:0);
  Alcotest.(check bool) "negative size rejected" true
    (match Bus.transfer b ~bytes:(-1) with _ -> false | exception Invalid_argument _ -> true)

let edge_suite =
  ( "sim.edges",
    [
      Alcotest.test_case "bus transfer count" `Quick test_bus_transfer_count;
    ] )

let suites = suites @ [ edge_suite ]
