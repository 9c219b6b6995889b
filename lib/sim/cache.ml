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

let zero_stats =
  { hits = 0; misses = 0; evictions = 0; writebacks = 0; flushes = 0; flushed_bytes = 0 }

type line = { mutable tag : int; mutable valid : bool; mutable dirty : bool; mutable lru : int }

(* Counters are plain mutable ints: [access] sits under every simulated
   load and store, and rebuilding a 6-field stats record per access was
   the dominant allocation of the whole simulator. The immutable [stats]
   snapshot is built only when asked for.

   [filled] is a bitmap with one bit per set, [filled_bits] sets per
   word, marking the sets the miss path has filled since the last
   flush. Only a fill makes a line valid and a flush invalidates every
   line, so every other set holds no valid line and [flush] can skip
   it. *)
type t = {
  config : config;
  sets : line array array;
  filled : int array;
  next : op -> addr:int -> bytes:int -> Time_base.ps;
  mutable clock : int;  (** logical timestamp for LRU ordering *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable flushes : int;
  mutable flushed_bytes : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0
let filled_shift = 5
let filled_bits = 1 lsl filled_shift

let create ?(config = l1d_arm_a7) ~next () =
  if not (is_power_of_two config.line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  if config.ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  let lines = config.size_bytes / config.line_bytes in
  if lines mod config.ways <> 0 || lines / config.ways = 0 then
    invalid_arg "Cache.create: size / line / ways mismatch";
  let nsets = lines / config.ways in
  let sets =
    Array.init nsets (fun _ ->
        Array.init config.ways (fun _ -> { tag = 0; valid = false; dirty = false; lru = 0 }))
  in
  {
    config;
    sets;
    filled = Array.make ((nsets + filled_bits - 1) / filled_bits) 0;
    next;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
    flushes = 0;
    flushed_bytes = 0;
  }

let config t = t.config

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let line_base t set tag =
  let nsets = Array.length t.sets in
  ((tag * nsets) + set) * t.config.line_bytes

let access t op ~addr =
  if addr < 0 then invalid_arg "Cache.access: negative address";
  let line_addr = addr / t.config.line_bytes in
  let nsets = Array.length t.sets in
  let set_idx = line_addr mod nsets in
  let tag = line_addr / nsets in
  let set = t.sets.(set_idx) in
  (* One scan finds the hit and, failing that, the victim: the first
     invalid way if any, otherwise the least recently used valid way. *)
  let ways = Array.length set in
  let hit = ref (-1) in
  let invalid = ref (-1) in
  let lru = ref 0 in
  let i = ref 0 in
  while !hit < 0 && !i < ways do
    let l = Array.unsafe_get set !i in
    if l.valid then begin
      if l.tag = tag then hit := !i
      else if !invalid < 0 && l.lru < set.(!lru).lru then lru := !i
    end
    else if !invalid < 0 then invalid := !i;
    incr i
  done;
  if !hit >= 0 then begin
    let l = set.(!hit) in
    l.lru <- tick t;
    if op = Write then l.dirty <- true;
    t.hits <- t.hits + 1;
    t.config.hit_latency_ps
  end
  else begin
    t.misses <- t.misses + 1;
    let victim = if !invalid >= 0 then set.(!invalid) else set.(!lru) in
    let writeback_latency =
      if victim.valid && victim.dirty then begin
        t.evictions <- t.evictions + 1;
        t.writebacks <- t.writebacks + 1;
        t.next Write ~addr:(line_base t set_idx victim.tag) ~bytes:t.config.line_bytes
      end
      else begin
        if victim.valid then t.evictions <- t.evictions + 1;
        0
      end
    in
    let fill_latency =
      t.next Read ~addr:(line_addr * t.config.line_bytes) ~bytes:t.config.line_bytes
    in
    victim.tag <- tag;
    victim.valid <- true;
    let w = set_idx lsr filled_shift in
    t.filled.(w) <- t.filled.(w) lor (1 lsl (set_idx land (filled_bits - 1)));
    victim.dirty <- op = Write;
    victim.lru <- tick t;
    t.config.hit_latency_ps + writeback_latency + fill_latency
  end

(* Walks the filled sets in ascending set order and each set's ways in
   ascending order: the order of a sweep over the whole cache. The
   order is observable, since each write-back is an access to the next
   level, which updates that level's LRU state and so its latency. *)
let flush t =
  let total = ref 0 in
  let flushed = ref 0 in
  let line_bytes = t.config.line_bytes in
  let filled = t.filled in
  for w = 0 to Array.length filled - 1 do
    let bits = ref (Array.unsafe_get filled w) in
    let set_idx = ref (w lsl filled_shift) in
    Array.unsafe_set filled w 0;
    while !bits <> 0 do
      if !bits land 1 <> 0 then begin
        let set = Array.unsafe_get t.sets !set_idx in
        for way = 0 to Array.length set - 1 do
          let l = Array.unsafe_get set way in
          if l.valid && l.dirty then begin
            total := !total + t.next Write ~addr:(line_base t !set_idx l.tag) ~bytes:line_bytes;
            flushed := !flushed + line_bytes
          end;
          l.valid <- false;
          l.dirty <- false
        done
      end;
      bits := !bits lsr 1;
      incr set_idx
    done
  done;
  t.flushes <- t.flushes + 1;
  t.writebacks <- t.writebacks + (!flushed / line_bytes);
  t.flushed_bytes <- t.flushed_bytes + !flushed;
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

let reset_stats t =
  t.hits <- zero_stats.hits;
  t.misses <- zero_stats.misses;
  t.evictions <- zero_stats.evictions;
  t.writebacks <- zero_stats.writebacks;
  t.flushes <- zero_stats.flushes;
  t.flushed_bytes <- zero_stats.flushed_bytes

let dirty_lines t =
  Array.fold_left
    (fun acc set ->
      Array.fold_left (fun acc l -> if l.valid && l.dirty then acc + 1 else acc) acc set)
    0 t.sets
