(** In-order timing model of the host core (Arm-A7-class, Table I).

    Each dynamic instruction is charged a per-class base cost, loads and
    stores also their latency through the data-cache hierarchy, and the
    model accumulates cycles, instruction counts, and region-of-interest
    (ROI) windows — the same quantities the paper profiles with gem5 ROI
    markers. Instructions are issued one at a time ({!issue},
    {!issue_at}) or in bulk ({!issue_many}, {!issue_run}); the IR
    executor probes its loads and stores as they run and retires them
    in bulk ({!probe_load}, {!retire_probed}).

    Instruction fetch is folded into the per-class base cost (the L1I
    hit rate of these dense loop kernels is ~100%), which keeps the
    model fast without changing kernel-to-kernel comparisons. *)

type iclass =
  | Int_alu
  | Int_mul
  | Fp_add
  | Fp_mul
  | Fp_mac
  | Fp_div
  | Load
  | Store
  | Branch
  | Call
  | Ret

type config = {
  name : string;
  freq_hz : float;
  class_base_cycles : iclass -> int;
}

val arm_a7 : config
(** 1.2 GHz in-order core with A7-like latencies. *)

type t

val create : ?config:config -> l1d:Cache.t -> unit -> t
val config : t -> config

val issue : t -> iclass -> unit
(** Account one dynamic non-memory instruction. Raises
    [Invalid_argument] for [Load]/[Store]: those go through
    {!issue_at}. *)

val issue_at : t -> addr:int -> iclass -> unit
(** Account one [Load] or [Store] at [addr], charging its latency
    through the data-cache hierarchy. Raises [Invalid_argument] for
    non-memory classes. *)

val issue_run : t -> addr:int -> count:int -> iclass -> unit
(** [count] consecutive 4-byte [Load]s or [Store]s at [addr],
    [addr + 4], ...: equivalent to [count] calls of {!issue_at} with
    those addresses — the same cycles and instruction count,
    and L1D and L2 state, counters and traffic — at a host cost per
    cache line rather than per access ({!Cache.access_run}). Used by
    the element copy loops around each offload. Raises
    [Invalid_argument] for non-memory classes or a negative [count]. *)

(** {2 Probed accesses}

    A caller that batches its charges accesses the L1D at once, in
    program order, and retires later: {!probe_load}, {!probe_store} and
    {!probe_update} access the cache exactly as {!issue_at} does but
    retire nothing. Each returns the cycles its access costs beyond an
    L1D hit, rounded per access as {!issue_at} rounds it, so that
    {!retire_probed} with the summed counts and cycles leaves the core
    as the same {!issue_at} calls would. Cycles are a sum and no latency
    reads the core's clock, so only the core's readers need the probes
    retired first.

    [site] names the access's place in the caller's program. The core
    remembers the line each site last touched (see {!Cache.probe}), so
    a site still on that line skips the set search; sites are small
    non-negative integers and the memory grows to the largest seen.
    Site numbers need not be unique to one program: a remembered line
    is a fact about the cache, whoever recorded it. *)

val probe_load : t -> site:int -> addr:int -> int
val probe_store : t -> site:int -> addr:int -> int

val probe_update : t -> site:int -> addr:int -> int
(** A load and then a store at [addr], back to back: the store hits the
    line the load left, so only the load can cost beyond a hit. Retire
    it as one load and one store. *)

val retire_probed : t -> loads:int -> stores:int -> cycles:int -> unit
(** Retire [loads] loads and [stores] stores that were probed, plus
    [cycles], the sum of their probes' results. Raises
    [Invalid_argument] on a negative argument. *)

(** {2 Deferred hits}

    The L1D's deferred-hit entry ({!Cache.skip_hits}) over the probes'
    memory: an access that is a guaranteed hit costs nothing beyond a
    hit, so it is retired like a probed one and its cache effects are
    settled later, per line. *)

val l1d_clock : t -> int
(** {!Cache.clock} of the L1D. *)

val skip_hits : t -> until:int -> unit
(** {!Cache.skip_hits} on the L1D. *)

val stamp_site : t -> site:int -> int -> unit
(** {!Cache.stamp_site} on the L1D, for the line [site]'s last probe
    resolved to. *)

val probe_hit : t -> site:int -> Cache.op -> update:bool -> addr:int -> bool
(** {!Cache.probe_hit} on the L1D: a hit costs nothing beyond a hit. *)

val probe_fill : t -> site:int -> Cache.op -> update:bool -> addr:int -> int
(** {!Cache.probe_fill} on the L1D, after {!probe_hit} reported a
    miss: the cycles beyond an L1D hit, as {!probe_load} returns. *)

val issue_many : t -> iclass -> int -> unit
(** Account [count] identical non-memory instructions in one step (used
    for modelled fixed-cost loops like the driver's set/way cache
    flush). Raises [Invalid_argument] for [Load]/[Store]. *)

val stall_ps : t -> Time_base.ps -> unit
(** Advance time without retiring instructions — e.g. spinning on the
    accelerator status register or waiting out a cache flush. *)

val cycles : t -> int
val instructions : t -> int
val time_ps : t -> Time_base.ps

(** ROI markers (paper Section IV: "Dynamic instruction count and
    run-time are profiled in Gem5 by inserting ROI markers"). Multiple
    begin/end windows accumulate. *)

val roi_begin : t -> unit
(** Raises [Failure] if a window is already open. *)

val roi_end : t -> unit
(** Raises [Failure] if no window is open. *)

type roi = { roi_instructions : int; roi_cycles : int; roi_time_ps : Time_base.ps }

val roi : t -> roi
(** Accumulated ROI totals over all closed windows. *)
