(** Set-associative write-back, write-allocate cache with LRU
    replacement.

    The cache is a {e timing and statistics} model: data always lives in
    {!Memory} (the simulator is functionally coherent by construction),
    and the cache decides how long each access takes and how much
    traffic reaches the next level. This mirrors how the paper uses
    gem5: what matters for the evaluation is run time, energy and the
    flush cost the driver pays before each offload. *)

type op = Read | Write

type config = {
  name : string;
  size_bytes : int;
  line_bytes : int;  (** power of two *)
  ways : int;
  hit_latency_ps : Time_base.ps;
}

val l1d_arm_a7 : config
(** 32 KB, 64-byte lines, 4-way, 2 ns. *)

val l2_arm_a7 : config
(** 2 MB shared, 64-byte lines, 8-way, 10 ns. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;
  flushes : int;
  flushed_bytes : int;
}

type t
(** The valid lines of each set are always its first ways: a miss
    fills the first invalid way, and only {!flush} invalidates lines,
    all of them. The cache keeps that count per set, so a lookup
    compares only the valid ways' tags, a miss in a set with a free way
    takes it without a scan, and a flush visits only the valid lines.
    Nothing observable depends on this: latencies, LRU order, counters
    and next-level calls are those of a search over every way. *)

val create :
  ?config:config ->
  next:(op -> addr:int -> bytes:int -> Time_base.ps) ->
  unit ->
  t
(** [next] is the access function of the next level (another cache or
    main memory) and returns that level's latency. Raises
    [Invalid_argument] unless the line size and the set count
    ([size_bytes / line_bytes / ways]) are both powers of two. *)

val config : t -> config

val line_shift : t -> int
(** [log2 line_bytes]: an address's line is [addr lsr line_shift t]. *)

val set_of : t -> int -> int
(** The set an address falls in. *)

val access : t -> op -> addr:int -> Time_base.ps
(** Latency of one access at [addr]. A miss fetches the line from the
    next level (and writes back the victim first if dirty). *)

type memo
(** Per-access-site memory of the line each site's last {!probe}
    resolved to. Growing on demand, it serves one cache. *)

val memo : unit -> memo

val probe : t -> memo -> site:int -> op -> addr:int -> Time_base.ps
(** [access t op ~addr], exactly: the same latency, LRU stamps, dirty
    bits, counters and next-level calls. [site] names the access in
    [memo]: when that site's last probe was on the same line and no fill
    or flush has happened since, the probe hits the line it found then
    without searching the set. Raises [Invalid_argument] on a negative
    [addr] or [site]. *)

val probe_update : t -> memo -> site:int -> addr:int -> Time_base.ps
(** [probe t memo ~site Read ~addr] followed by [access t Write ~addr]
    in one probe, as a read-modify-write issues them. The write always
    hits the line the read left resident; the result is the read's
    latency. *)

(** {2 Deferred hits}

    A caller that knows an access hits may skip it and account for it
    later, at a cost per line rather than per access. The clock ticks
    once per access ({!probe_update}: twice), hit or miss, and a
    line's LRU stamp is the tick of its last access. A hit changes
    only its line's stamp, the clock and the hit count: an access is a
    guaranteed hit when its site's last probe was on the same line and
    fewer than [ways] distinct other lines were accessed since, because
    a line leaves the cache only as the least recently used line of its
    full set when another line fills it. Such a hit writes no dirty bit
    that the site's own earlier access did not write.

    The caller keeps the cache exact. Before every {!probe} it moves
    the clock over the skipped ticks with {!skip_hits}. Before a probe
    that misses, since a fill chooses its victim by the stamps of its
    set, and before the cache is read in any other way, it stamps
    each line of that set (of every set) that skipped hits touched
    with {!stamp_site}; {!probe_hit} tells a miss before it happens.
    Then stamps, clock, counters, dirty bits and next-level calls are
    those of probing every access. *)

val clock : t -> int
(** The tick of the latest access. *)

val skip_hits : t -> until:int -> unit
(** [skip_hits t ~until] records the accesses of ticks [clock t + 1] to
    [until] as hits: the clock becomes [until] and the hit count grows
    by the difference. No line changes. Raises [Invalid_argument] when
    [until < clock t]. *)

val stamp_site : t -> memo -> site:int -> int -> unit
(** [stamp_site t memo ~site tick]: the line [site]'s last {!probe}
    resolved to, which must still be resident, was accessed at [tick].
    Its stamp becomes [tick] unless it is already later, so two sites
    on one line leave the later of their ticks. *)

val probe_hit : t -> memo -> site:int -> op -> update:bool -> addr:int -> bool
(** [probe t memo ~site op ~addr] ([probe_update] when [update]) if
    the access hits, and [true]; [false], with nothing changed, if it
    would miss. A hit chooses no victim, so only the stamps of the
    lines in a missing access's set need be current. *)

val probe_fill : t -> memo -> site:int -> op -> update:bool -> addr:int -> Time_base.ps
(** [probe t memo ~site op ~addr] ([probe_update] when [update]) for an
    access that {!probe_hit} has just reported a miss, without searching
    the set again: it fills the line, choosing the victim by the set's
    stamps as they are now. Exact when, since that {!probe_hit}, only
    {!stamp_site} and {!skip_hits} touched the cache: they change no
    tag, valid count or generation, so the line is still absent. *)

val access_run : t -> op -> addr:int -> count:int -> cycle_ps:int -> int
(** [count] consecutive 4-byte accesses at [addr], [addr + 4], ...:
    the lines, counters and next-level calls end exactly as after
    [count] calls of {!access}. The result is the sum of the [count]
    latencies, each rounded up to whole [cycle_ps] periods, in periods.
    The first access to each line goes through {!access}; the others
    hit that line and are recorded in bulk, so the host cost is per
    line, not per access. Raises [Invalid_argument] on a negative
    [count], or a negative [addr] when [count > 0]. *)

val flush : t -> Time_base.ps
(** Write back every dirty line and invalidate the whole cache; the
    result is the total write-back latency. The CIM driver performs
    this before triggering the accelerator (paper Section II-E).
    Write-backs reach the next level in ascending (set, way) order, as
    in a sweep over the whole cache, but the host cost is proportional
    to the number of lines filled since the previous flush. *)

val stats : t -> stats

val dirty_lines : t -> int
