type op = Read | Write

type config = {
  name : string;
  size_bytes : int;
  line_bytes : int;
  ways : int;
  hit_latency_ps : Time_base.ps;
}

let l1d_arm_a7 =
  {
    name = "l1d";
    size_bytes = 32 * 1024;
    line_bytes = 64;
    ways = 4;
    hit_latency_ps = 2 * Time_base.ps_per_ns;
  }

let l2_arm_a7 =
  {
    name = "l2";
    size_bytes = 2 * 1024 * 1024;
    line_bytes = 64;
    ways = 8;
    hit_latency_ps = 10 * Time_base.ps_per_ns;
  }

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;
  flushes : int;
  flushed_bytes : int;
}

(* Line state lives in flat per-cache arrays indexed [set * ways +
   way], not in a record per line: [access] sits under every simulated
   load and store, so a probe must not chase pointers, and a platform
   builds a 32,768-line L2 per run. A line's state byte is [invalid],
   [clean] or [dirty] (the last two valid). The set count and line size
   are powers of two, so the set and tag of an address are a mask and a
   shift.

   Counters are plain mutable ints, and the immutable [stats] snapshot
   is built only when asked for.

   A set's valid ways are a prefix: only a fill makes a line valid, a
   fill takes the set's first invalid way, and only a flush invalidates
   lines, all of them. [valid] keeps, per set, the count [n] of that
   prefix, so ways [0, n) are valid and every way at or beyond [n] is
   invalid. A probe compares the tags of the first [n] ways only, a
   miss in a set that is not full takes way [n] without a scan, and a
   set with [n = 0] misses without a search.

   [filled] is a bitmap with one bit per set, [filled_bits] sets per
   word, marking the sets with [n > 0]: the miss path sets a bit when
   it fills a set's first way, and [flush] clears every bit, so [flush]
   visits only those sets, and only their [n] valid ways.

   [generation] counts fills and flushes, the only events that change
   which line an index holds; a {!memo} entry is current while it is
   unchanged. *)
type t = {
  config : config;
  ways : int;
  line_shift : int;  (** log2 line_bytes *)
  set_shift : int;  (** log2 of the set count *)
  set_mask : int;
  tags : int array;
  stamps : int array;  (** LRU clock value of each line's last access *)
  state : Bytes.t;
  valid : int array;  (** per set, the count of its valid ways *)
  filled : int array;
  next : op -> addr:int -> bytes:int -> Time_base.ps;
  mutable clock : int;  (** logical timestamp for LRU ordering *)
  mutable generation : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable flushes : int;
  mutable flushed_bytes : int;
}

let invalid = '\000'
let clean = '\001'
let dirty = '\002'
let is_power_of_two n = n > 0 && n land (n - 1) = 0
let filled_shift = 5
let filled_bits = 1 lsl filled_shift

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let create ?(config = l1d_arm_a7) ~next () =
  if not (is_power_of_two config.line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  if config.ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  let lines = config.size_bytes / config.line_bytes in
  if lines mod config.ways <> 0 || lines / config.ways = 0 then
    invalid_arg "Cache.create: size / line / ways mismatch";
  let nsets = lines / config.ways in
  if not (is_power_of_two nsets) then
    invalid_arg "Cache.create: set count must be a power of two";
  let nlines = nsets * config.ways in
  {
    config;
    ways = config.ways;
    line_shift = log2 config.line_bytes;
    set_shift = log2 nsets;
    set_mask = nsets - 1;
    tags = Array.make nlines 0;
    stamps = Array.make nlines 0;
    state = Bytes.make nlines invalid;
    valid = Array.make nsets 0;
    filled = Array.make ((nsets + filled_bits - 1) / filled_bits) 0;
    next;
    clock = 0;
    generation = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
    flushes = 0;
    flushed_bytes = 0;
  }

let config t = t.config
let line_shift t = t.line_shift
let[@inline always] set_of t addr = (addr lsr t.line_shift) land t.set_mask

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let line_base t set tag = ((tag lsl t.set_shift) lor set) lsl t.line_shift

(* Index of the line among [tags.(i) .. tags.(stop - 1)], a set's
   valid ways, that holds [tag], or -1. Top-level and closed over
   nothing, so a probe does not allocate; the types are spelled out so
   that [=] is an integer comparison, not a polymorphic one. *)
let rec find (tags : int array) (tag : int) i stop =
  if i = stop then -1 else if Array.unsafe_get tags i = tag then i else find tags tag (i + 1) stop

(* The replacement victim of the set starting at [base] with [n] valid
   ways: its first invalid way, way [n], if it has one, otherwise its
   least recently used way. *)
let victim t base n =
  if n < t.ways then base + n
  else begin
    let lru = ref base in
    for i = base + 1 to base + n - 1 do
      if Array.unsafe_get t.stamps i < Array.unsafe_get t.stamps !lru then lru := i
    done;
    !lru
  end

let[@inline always] hit t op i =
  Array.unsafe_set t.stamps i (tick t);
  if op = Write then Bytes.unsafe_set t.state i dirty;
  t.hits <- t.hits + 1

(* The miss path: write back line [i], the victim, if it is dirty,
   then fill it with [line_addr]. An invalid victim is the way just
   beyond the set's valid prefix, which grows by one. Returns the access
   latency. *)
let fill t op ~set ~line_addr i =
  t.misses <- t.misses + 1;
  t.generation <- t.generation + 1;
  let line_bytes = t.config.line_bytes in
  let state = Bytes.unsafe_get t.state i in
  let writeback_latency =
    if state = dirty then begin
      t.evictions <- t.evictions + 1;
      t.writebacks <- t.writebacks + 1;
      t.next Write ~addr:(line_base t set (Array.unsafe_get t.tags i)) ~bytes:line_bytes
    end
    else if state = clean then begin
      t.evictions <- t.evictions + 1;
      0
    end
    else begin
      let n = Array.unsafe_get t.valid set in
      Array.unsafe_set t.valid set (n + 1);
      if n = 0 then begin
        let w = set lsr filled_shift in
        t.filled.(w) <- t.filled.(w) lor (1 lsl (set land (filled_bits - 1)))
      end;
      0
    end
  in
  let fill_latency = t.next Read ~addr:(line_addr lsl t.line_shift) ~bytes:line_bytes in
  Array.unsafe_set t.tags i (line_addr lsr t.set_shift);
  Bytes.unsafe_set t.state i (if op = Write then dirty else clean);
  Array.unsafe_set t.stamps i (tick t);
  t.config.hit_latency_ps + writeback_latency + fill_latency

let access t op ~addr =
  if addr < 0 then invalid_arg "Cache.access: negative address";
  let line_addr = addr lsr t.line_shift in
  let set = line_addr land t.set_mask in
  let base = set * t.ways in
  let n = Array.unsafe_get t.valid set in
  let i = find t.tags (line_addr lsr t.set_shift) base (base + n) in
  if i >= 0 then begin
    hit t op i;
    t.config.hit_latency_ps
  end
  else fill t op ~set ~line_addr (victim t base n)

(* A memo keeps, for each access site, the line address its last
   probe touched, the index that line resolved to and the generation
   then: three ints per site, stale (line -1) until first written. *)
type memo = { mutable entries : int array }

let memo () = { entries = [||] }

let grow memo ~site =
  let grown = Array.make (3 * max (site + 1) (2 * Array.length memo.entries / 3)) (-1) in
  Array.blit memo.entries 0 grown 0 (Array.length memo.entries);
  memo.entries <- grown

let[@inline always] remember memo ~site ~line_addr i generation =
  let j = 3 * site in
  if j >= Array.length memo.entries then grow memo ~site;
  let e = memo.entries in
  Array.unsafe_set e j line_addr;
  Array.unsafe_set e (j + 1) i;
  Array.unsafe_set e (j + 2) generation

(* The index that holds [line_addr], or -1. A site whose memo entry
   holds this line in the current generation finds its index without
   the set search: no fill or flush since means the index still holds
   that line. A search that finds the line is remembered. *)
let[@inline always] lookup t memo ~site ~line_addr ~addr =
  let e = memo.entries in
  let j = 3 * site in
  if
    j >= 0
    && j < Array.length e
    && Array.unsafe_get e j = line_addr
    && Array.unsafe_get e (j + 2) = t.generation
  then Array.unsafe_get e (j + 1)
  else begin
    if addr < 0 then invalid_arg "Cache.probe: negative address";
    if site < 0 then invalid_arg "Cache.probe: negative site";
    let set = line_addr land t.set_mask in
    let base = set * t.ways in
    let i = find t.tags (line_addr lsr t.set_shift) base (base + Array.unsafe_get t.valid set) in
    if i >= 0 then remember memo ~site ~line_addr i t.generation;
    i
  end

(* The miss path of a probe: [line_addr] is in no way of its set. *)
let[@inline always] probe_miss t memo ~site op ~update ~line_addr =
  let set = line_addr land t.set_mask in
  let base = set * t.ways in
  let v = victim t base (Array.unsafe_get t.valid set) in
  let latency = fill t op ~set ~line_addr v in
  if update then hit t Write v;
  remember memo ~site ~line_addr v t.generation;
  latency

(* [access t op ~addr], and with [update] then [access t Write ~addr],
   which hits the line the first access left resident. *)
let[@inline always] probe_gen t memo ~site op ~update ~addr =
  let line_addr = addr lsr t.line_shift in
  let i = lookup t memo ~site ~line_addr ~addr in
  if i >= 0 then begin
    hit t op i;
    if update then hit t Write i;
    t.config.hit_latency_ps
  end
  else probe_miss t memo ~site op ~update ~line_addr

let probe t memo ~site op ~addr = probe_gen t memo ~site op ~update:false ~addr
let probe_update t memo ~site ~addr = probe_gen t memo ~site Read ~update:true ~addr

(* Deferred hits. Every access ticks the clock once, hit or miss (a
   read-modify-write twice), and each tick is one hit or one miss, so
   [hits + misses - clock] never changes: ticks skipped up to [until]
   are hits. A skipped hit changes nothing else but its line's stamp,
   which [stamp_site] writes later; it cannot change a dirty bit, since
   the line's first access in the caller's run was a probe, nor the
   generation, so the site's memo entry still names the line. *)
let clock t = t.clock

let[@inline always] skip_hits t ~until =
  if until < t.clock then invalid_arg "Cache.skip_hits: the clock runs backwards";
  t.hits <- t.hits + (until - t.clock);
  t.clock <- until

let[@inline always] stamp_site t memo ~site tick =
  let i = Array.unsafe_get memo.entries ((3 * site) + 1) in
  if tick > Array.unsafe_get t.stamps i then Array.unsafe_set t.stamps i tick

(* [probe_gen] when the access hits; a miss returns false before it
   touches anything. *)
let[@inline always] probe_hit t memo ~site op ~update ~addr =
  let i = lookup t memo ~site ~line_addr:(addr lsr t.line_shift) ~addr in
  i >= 0
  && begin
       hit t op i;
       if update then hit t Write i;
       true
     end

(* The line is still absent: since [probe_hit] searched the set, only
   stamps may have changed, and the victim is chosen by them now. *)
let probe_fill t memo ~site op ~update ~addr =
  probe_miss t memo ~site op ~update ~line_addr:(addr lsr t.line_shift)

(* A line's first access goes through the [access] path; the others
   hit the line it left resident, so they are charged together: one
   clock step and one hit each, and the line's stamp is the last
   step. *)
let access_run t op ~addr ~count ~cycle_ps =
  if count < 0 then invalid_arg "Cache.access_run: negative count";
  if count > 0 && addr < 0 then invalid_arg "Cache.access_run: negative address";
  let hit_latency = t.config.hit_latency_ps in
  let hit_cycles = (hit_latency + cycle_ps - 1) / cycle_ps in
  let cycles = ref 0 in
  let addr = ref addr in
  let left = ref count in
  while !left > 0 do
    let line_addr = !addr lsr t.line_shift in
    let set = line_addr land t.set_mask in
    let base = set * t.ways in
    let in_line = Int.min !left ((((line_addr + 1) lsl t.line_shift) - !addr + 3) lsr 2) in
    let n = Array.unsafe_get t.valid set in
    let i = find t.tags (line_addr lsr t.set_shift) base (base + n) in
    let i =
      if i >= 0 then begin
        hit t op i;
        cycles := !cycles + hit_cycles;
        i
      end
      else begin
        let v = victim t base n in
        let latency = fill t op ~set ~line_addr v in
        cycles := !cycles + ((latency + cycle_ps - 1) / cycle_ps);
        v
      end
    in
    let rest = in_line - 1 in
    if rest > 0 then begin
      t.clock <- t.clock + rest;
      Array.unsafe_set t.stamps i t.clock;
      t.hits <- t.hits + rest;
      cycles := !cycles + (rest * hit_cycles)
    end;
    addr := !addr + (4 * in_line);
    left := !left - in_line
  done;
  !cycles

(* Walks the filled sets in ascending set order and each set's valid
   ways in ascending order: the order of a sweep over the whole cache,
   which finds no valid line anywhere else. The order is observable,
   since each write-back is an access to the next level, which updates
   that level's LRU state and so its latency. *)
let flush t =
  let total = ref 0 in
  let lines = ref 0 in
  let line_bytes = t.config.line_bytes in
  let filled = t.filled in
  for w = 0 to Array.length filled - 1 do
    let bits = ref (Array.unsafe_get filled w) in
    let set = ref (w lsl filled_shift) in
    Array.unsafe_set filled w 0;
    while !bits <> 0 do
      if !bits land 1 <> 0 then begin
        let base = !set * t.ways in
        for i = base to base + Array.unsafe_get t.valid !set - 1 do
          if Bytes.unsafe_get t.state i = dirty then begin
            total :=
              !total
              + t.next Write ~addr:(line_base t !set (Array.unsafe_get t.tags i)) ~bytes:line_bytes;
            incr lines
          end;
          Bytes.unsafe_set t.state i invalid
        done;
        Array.unsafe_set t.valid !set 0
      end;
      bits := !bits lsr 1;
      incr set
    done
  done;
  t.flushes <- t.flushes + 1;
  t.generation <- t.generation + 1;
  t.writebacks <- t.writebacks + !lines;
  t.flushed_bytes <- t.flushed_bytes + (!lines * line_bytes);
  !total

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    writebacks = t.writebacks;
    flushes = t.flushes;
    flushed_bytes = t.flushed_bytes;
  }

let dirty_lines t =
  let n = ref 0 in
  Bytes.iter (fun s -> if s = dirty then incr n) t.state;
  !n
