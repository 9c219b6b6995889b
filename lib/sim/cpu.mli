(** In-order timing model of the host core (Arm-A7-class, Table I).

    The IR executor drives the model by issuing one instruction at a
    time ({!issue}); the model charges a per-class base cost, sends
    loads and stores through the data-cache hierarchy, and accumulates
    cycles, instruction counts, and region-of-interest (ROI) windows —
    the same quantities the paper profiles with gem5 ROI markers.

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

val issue : t -> ?addr:int -> iclass -> unit
(** Account one dynamic instruction. [addr] is required for [Load] and
    [Store] (raises [Invalid_argument] if missing) and ignored
    otherwise. *)

val issue_at : t -> addr:int -> iclass -> unit
(** {!issue} for [Load]/[Store] with a mandatory address — the
    executor's hot path, avoiding the [Some addr] box per charged
    memory access. Raises [Invalid_argument] for non-memory classes. *)

val issue_run : t -> addr:int -> count:int -> iclass -> unit
(** [count] consecutive 4-byte [Load]s or [Store]s at [addr],
    [addr + 4], ...: equivalent to [count] calls of {!issue_at} with
    those addresses — the same cycles, instruction and class counts,
    and L1D and L2 state, counters and traffic — at a host cost per
    cache line rather than per access ({!Cache.access_run}). Used by
    the element copy loops around each offload. Raises
    [Invalid_argument] for non-memory classes or a negative [count]. *)

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
val class_count : t -> iclass -> int

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
