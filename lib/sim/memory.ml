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
let offset_mask = chunk_size - 1

(* Chunks are found through a two-level table: a directory of leaves,
   each leaf [leaf_slots] chunk slots, indexed by the chunk number's
   high and low bits. The directory is allocated at [create] (128 words
   for 2 GB); a leaf and a chunk are allocated when a write first
   touches them. Every untouched slot holds [no_chunk], one shared
   chunk of zeros that is never written, so reads of untouched memory
   read zeros and allocate nothing, and every untouched directory entry
   holds [empty_leaf], one shared leaf that is never written. A flat
   table would cost a word per chunk below the highest one touched, and
   the device region starts at chunk 12,288. *)
let leaf_bits = 8
let leaf_slots = 1 lsl leaf_bits
let leaf_mask = leaf_slots - 1
let no_chunk = Bytes.make chunk_size '\000'
let empty_leaf = Array.make leaf_slots no_chunk

type t = {
  config : config;
  limit : int;  (** [config.size_bytes], one field load on the fast path *)
  directory : Bytes.t array array;
  mutable last_bytes : int;  (** size of the last burst priced, -1 before the first *)
  mutable last_ps : Time_base.ps;  (** its latency *)
}

let create ?(config = default_config) () =
  if config.size_bytes <= 0 then invalid_arg "Memory.create: size must be positive";
  let chunks = ((config.size_bytes - 1) lsr chunk_bits) + 1 in
  {
    config;
    limit = config.size_bytes;
    directory = Array.make (((chunks - 1) lsr leaf_bits) + 1) empty_leaf;
    last_bytes = -1;
    last_ps = 0;
  }

let config t = t.config

let check_range t addr len =
  if addr < 0 || len < 0 || addr + len > t.limit then
    invalid_arg (Printf.sprintf "Memory: access [%d, %d) out of range" addr (addr + len))

(* Both lookups take the chunk number of an address inside memory.
   [stored] is the read side: the chunk, or [no_chunk] if nothing was
   written to it. [chunk] is the write side: it allocates the chunk,
   and its leaf, on first touch. *)

let[@inline always] stored t idx =
  Array.unsafe_get (Array.unsafe_get t.directory (idx lsr leaf_bits)) (idx land leaf_mask)

let chunk t idx =
  let c = stored t idx in
  if c != no_chunk then c
  else begin
    let d = idx lsr leaf_bits in
    if Array.unsafe_get t.directory d == empty_leaf then
      Array.unsafe_set t.directory d (Array.make leaf_slots no_chunk);
    let c = Bytes.make chunk_size '\000' in
    Array.unsafe_set (Array.unsafe_get t.directory d) (idx land leaf_mask) c;
    c
  end

let[@inline] chunk_at t addr =
  if addr < 0 || addr >= t.limit then check_range t addr 1;
  let idx = addr lsr chunk_bits in
  let c = stored t idx in
  if c != no_chunk then c else chunk t idx

let read_u8 t addr =
  check_range t addr 1;
  Char.code (Bytes.get (stored t (addr lsr chunk_bits)) (addr land offset_mask))

let write_u8 t addr v =
  check_range t addr 1;
  if v < 0 || v > 255 then invalid_arg "Memory.write_u8: byte out of range";
  Bytes.set (chunk t (addr lsr chunk_bits)) (addr land offset_mask) (Char.chr v)

(* Bulk transfers check their whole range once and then work one chunk
   segment at a time: the part of the range that lies inside one 64 KB
   chunk. *)

let[@inline always] segment_bytes a left = Int.min left (chunk_size - (a land offset_mask))

(* Unchecked: bytes [addr, addr + len) to [buf] at [pos], and back. *)
let blit_out t addr buf pos len =
  let moved = ref 0 in
  while !moved < len do
    let a = addr + !moved in
    let n = segment_bytes a (len - !moved) in
    Bytes.blit (stored t (a lsr chunk_bits)) (a land offset_mask) buf (pos + !moved) n;
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
  let out = Bytes.create len in
  blit_out t addr out 0 len;
  out

let write_bytes t addr data =
  let len = Bytes.length data in
  check_range t addr len;
  blit_in t data 0 addr len

let copy t ~src ~dst ~len =
  check_range t src len;
  check_range t dst len;
  if len > 0 && src < dst + len && dst < src + len then invalid_arg "Memory.copy: ranges overlap";
  let pos = ref 0 in
  while !pos < len do
    let s = src + !pos and d = dst + !pos in
    let n = segment_bytes d (segment_bytes s (len - !pos)) in
    let from = stored t (s lsr chunk_bits) in
    Bytes.blit from (s land offset_mask) (chunk t (d lsr chunk_bits)) (d land offset_mask) n;
    pos := !pos + n
  done

let check_slice name (a : float array) pos len =
  if pos < 0 || len < 0 || pos + len > Array.length a then invalid_arg (name ^ ": slice out of range")

let write_f32s t addr src ~pos ~len =
  check_slice "Memory.write_f32s" src pos len;
  check_range t addr (4 * len);
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
      let c = stored t (a lsr chunk_bits) and off = a land offset_mask and into = pos + !i in
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
    Bytes.get_int32_le (stored t (addr lsr chunk_bits)) off
  end
  else
    let b = read_bytes t addr 4 in
    Bytes.get_int32_le b 0

let write_i32 t addr v =
  let off = addr land offset_mask in
  if off <= chunk_size - 4 then begin
    check_range t addr 4;
    Bytes.set_int32_le (chunk t (addr lsr chunk_bits)) off v
  end
  else begin
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 v;
    write_bytes t addr b
  end

(* The f32 accessors are the executor's hottest operations. The slow
   path funnels through the i32 accessors (range errors, first touch,
   sub-word split). The fast path takes every in-range access that
   stays inside one chunk: a read reads the stored chunk, [no_chunk]'s
   zeros included, and a write takes it when the chunk exists. Each is
   written as one composed expression so the intermediate int32 never
   materialises — inlined at the call site, neither does the float,
   making streaming f32 access allocation-free. *)

let read_f32_slow t addr = Int32.float_of_bits (read_i32 t addr)

let[@inline always] read_f32 t addr =
  let off = addr land offset_mask in
  if addr >= 0 && addr + 4 <= t.limit && off <= chunk_size - 4 then
    Int32.float_of_bits (Bytes.get_int32_le (stored t (addr lsr chunk_bits)) off)
  else read_f32_slow t addr

let write_f32_slow t addr v = write_i32 t addr (Int32.bits_of_float v)

let[@inline always] write_f32 t addr v =
  let off = addr land offset_mask in
  if addr >= 0 && addr + 4 <= t.limit && off <= chunk_size - 4 then begin
    let c = stored t (addr lsr chunk_bits) in
    if c != no_chunk then Bytes.set_int32_le c off (Int32.bits_of_float v)
    else write_f32_slow t addr v
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
