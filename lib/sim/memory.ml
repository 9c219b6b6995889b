type config = {
  size_bytes : int;
  access_latency_ps : Time_base.ps;
  bytes_per_ps : float;
}

let default_config =
  {
    size_bytes = 2 * 1024 * 1024 * 1024;
    access_latency_ps = 50 * Time_base.ps_per_ns;
    bytes_per_ps = 7.46e9 /. 1e12;
  }

let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits

(* Direct-mapped chunk cache: a kernel like GEMM streams three arrays
   at once, and with a single cached chunk the A/B/C accesses evict
   each other every instruction, sending almost everything down the
   allocating slow path. Eight slots keep every active region's chunk
   resident at a cost of one extra indexed load on the fast path. *)
let slot_bits = 3
let slots = 1 lsl slot_bits
let slot_mask = slots - 1

type t = {
  config : config;
  limit : int;  (** [config.size_bytes], one field load on the fast path *)
  chunks : (int, Bytes.t) Hashtbl.t;
  mutable reads : int;
  mutable writes : int;
  slot_idx : int array;  (** chunk index cached in each slot, -1 when empty *)
  slot_chunk : Bytes.t array;
  mutable last_bytes : int;  (** size of the last burst priced, -1 before the first *)
  mutable last_ps : Time_base.ps;  (** its latency *)
}

let no_chunk = Bytes.create 0

let create ?(config = default_config) () =
  if config.size_bytes <= 0 then invalid_arg "Memory.create: size must be positive";
  {
    config;
    limit = config.size_bytes;
    chunks = Hashtbl.create 64;
    reads = 0;
    writes = 0;
    slot_idx = Array.make slots (-1);
    slot_chunk = Array.make slots no_chunk;
    last_bytes = -1;
    last_ps = 0;
  }

let config t = t.config

let check_range t addr len =
  if addr < 0 || len < 0 || addr + len > t.config.size_bytes then
    invalid_arg (Printf.sprintf "Memory: access [%d, %d) out of range" addr (addr + len))

let chunk t idx =
  let slot = idx land slot_mask in
  if Array.unsafe_get t.slot_idx slot = idx then Array.unsafe_get t.slot_chunk slot
  else
    let c =
      match Hashtbl.find t.chunks idx with
      | c -> c
      | exception Not_found ->
          let c = Bytes.make chunk_size '\000' in
          Hashtbl.add t.chunks idx c;
          c
    in
    Array.unsafe_set t.slot_idx slot idx;
    Array.unsafe_set t.slot_chunk slot c;
    c

let read_u8 t addr =
  check_range t addr 1;
  t.reads <- t.reads + 1;
  Char.code (Bytes.get (chunk t (addr lsr chunk_bits)) (addr land (chunk_size - 1)))

let write_u8 t addr v =
  check_range t addr 1;
  if v < 0 || v > 255 then invalid_arg "Memory.write_u8: byte out of range";
  t.writes <- t.writes + 1;
  Bytes.set (chunk t (addr lsr chunk_bits)) (addr land (chunk_size - 1)) (Char.chr v)

let offset_mask = chunk_size - 1

(* Bulk transfers check their whole range once, bump the counters by
   the bytes they move, and then work one chunk segment at a time: the
   part of the range that lies inside one 64 KB chunk. *)

let[@inline always] segment_bytes a left = Int.min left (chunk_size - (a land offset_mask))

(* Unchecked and uncounted: bytes [addr, addr + len) to [buf] at [pos],
   and back. *)
let blit_out t addr buf pos len =
  let moved = ref 0 in
  while !moved < len do
    let a = addr + !moved in
    let n = segment_bytes a (len - !moved) in
    Bytes.blit (chunk t (a lsr chunk_bits)) (a land offset_mask) buf (pos + !moved) n;
    moved := !moved + n
  done

let blit_in t buf pos addr len =
  let moved = ref 0 in
  while !moved < len do
    let a = addr + !moved in
    let n = segment_bytes a (len - !moved) in
    Bytes.blit buf (pos + !moved) (chunk t (a lsr chunk_bits)) (a land offset_mask) n;
    moved := !moved + n
  done

let read_bytes t addr len =
  check_range t addr len;
  t.reads <- t.reads + len;
  let out = Bytes.create len in
  blit_out t addr out 0 len;
  out

let write_bytes t addr data =
  let len = Bytes.length data in
  check_range t addr len;
  t.writes <- t.writes + len;
  blit_in t data 0 addr len

let copy t ~src ~dst ~len =
  check_range t src len;
  check_range t dst len;
  if len > 0 && src < dst + len && dst < src + len then invalid_arg "Memory.copy: ranges overlap";
  t.reads <- t.reads + len;
  t.writes <- t.writes + len;
  let pos = ref 0 in
  while !pos < len do
    let s = src + !pos and d = dst + !pos in
    let n = segment_bytes d (segment_bytes s (len - !pos)) in
    let from = chunk t (s lsr chunk_bits) in
    Bytes.blit from (s land offset_mask) (chunk t (d lsr chunk_bits)) (d land offset_mask) n;
    pos := !pos + n
  done

let check_slice name (a : float array) pos len =
  if pos < 0 || len < 0 || pos + len > Array.length a then invalid_arg (name ^ ": slice out of range")

let write_f32s t addr src ~pos ~len =
  check_slice "Memory.write_f32s" src pos len;
  check_range t addr (4 * len);
  t.writes <- t.writes + (4 * len);
  let i = ref 0 in
  while !i < len do
    let a = addr + (4 * !i) in
    let n = segment_bytes a (4 * (len - !i)) / 4 in
    if n = 0 then begin
      (* an f32 at an unaligned address that straddles two chunks *)
      let b = Bytes.create 4 in
      Bytes.set_int32_le b 0 (Int32.bits_of_float (Array.unsafe_get src (pos + !i)));
      blit_in t b 0 a 4;
      incr i
    end
    else begin
      let c = chunk t (a lsr chunk_bits) and off = a land offset_mask and from = pos + !i in
      for k = 0 to n - 1 do
        Bytes.set_int32_le c (off + (4 * k)) (Int32.bits_of_float (Array.unsafe_get src (from + k)))
      done;
      i := !i + n
    end
  done

let read_f32s t addr dst ~pos ~len =
  check_slice "Memory.read_f32s" dst pos len;
  check_range t addr (4 * len);
  t.reads <- t.reads + (4 * len);
  let i = ref 0 in
  while !i < len do
    let a = addr + (4 * !i) in
    let n = segment_bytes a (4 * (len - !i)) / 4 in
    if n = 0 then begin
      let b = Bytes.create 4 in
      blit_out t a b 0 4;
      Array.unsafe_set dst (pos + !i) (Int32.float_of_bits (Bytes.get_int32_le b 0));
      incr i
    end
    else begin
      let c = chunk t (a lsr chunk_bits) and off = a land offset_mask and into = pos + !i in
      for k = 0 to n - 1 do
        Array.unsafe_set dst (into + k) (Int32.float_of_bits (Bytes.get_int32_le c (off + (4 * k))))
      done;
      i := !i + n
    end
  done

(* 32-bit accesses that stay inside one chunk (every 4-aligned address,
   i.e. all array elements) go straight to the chunk without building an
   intermediate [Bytes.t]. *)

let read_i32 t addr =
  let off = addr land offset_mask in
  if off <= chunk_size - 4 then begin
    check_range t addr 4;
    t.reads <- t.reads + 4;
    Bytes.get_int32_le (chunk t (addr lsr chunk_bits)) off
  end
  else
    let b = read_bytes t addr 4 in
    Bytes.get_int32_le b 0

let write_i32 t addr v =
  let off = addr land offset_mask in
  if off <= chunk_size - 4 then begin
    check_range t addr 4;
    t.writes <- t.writes + 4;
    Bytes.set_int32_le (chunk t (addr lsr chunk_bits)) off v
  end
  else begin
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 v;
    write_bytes t addr b
  end

(* The f32 accessors are the executor's hottest operations. The slow
   path funnels through the i32 accessors (chunk lookup, range errors,
   sub-word split); the fast path below hits when the access lands in
   the cached chunk, and is written as one composed expression so the
   intermediate int32 never materialises — inlined at the call site,
   neither does the float, making streaming f32 access allocation-free. *)

let read_f32_slow t addr = Int32.float_of_bits (read_i32 t addr)

let[@inline always] read_f32 t addr =
  let off = addr land offset_mask in
  let idx = addr lsr chunk_bits in
  let slot = idx land slot_mask in
  if
    Array.unsafe_get t.slot_idx slot = idx
    && off <= chunk_size - 4
    && addr >= 0
    && addr + 4 <= t.limit
  then begin
    t.reads <- t.reads + 4;
    Int32.float_of_bits (Bytes.get_int32_le (Array.unsafe_get t.slot_chunk slot) off)
  end
  else read_f32_slow t addr

let write_f32_slow t addr v = write_i32 t addr (Int32.bits_of_float v)

let[@inline always] write_f32 t addr v =
  let off = addr land offset_mask in
  let idx = addr lsr chunk_bits in
  let slot = idx land slot_mask in
  if
    Array.unsafe_get t.slot_idx slot = idx
    && off <= chunk_size - 4
    && addr >= 0
    && addr + 4 <= t.limit
  then begin
    t.writes <- t.writes + 4;
    Bytes.set_int32_le (Array.unsafe_get t.slot_chunk slot) off (Int32.bits_of_float v)
  end
  else write_f32_slow t addr v

(* The latency is a function of the size alone, so the last (size,
   latency) pair is reused exactly while the size repeats: every L2
   fill and write-back is one 64-byte line. *)
let burst_latency t ~bytes =
  if bytes < 0 then invalid_arg "Memory.burst_latency: negative size";
  if bytes <> t.last_bytes then begin
    t.last_bytes <- bytes;
    t.last_ps <-
      t.config.access_latency_ps
      + int_of_float (Float.round (float_of_int bytes /. t.config.bytes_per_ps))
  end;
  t.last_ps

let reads t = t.reads
let writes t = t.writes
