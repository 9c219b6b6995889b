(** Start-Gap wear-leveling (Qureshi et al., MICRO'09 — the paper's
    reference [9]).

    An architectural technique orthogonal to TDO-CIM's compile-time
    approach: [lines] logical lines are spread over [lines + 1]
    physical lines; one physical line is a {e gap}. Every
    [gap_interval] writes the gap moves one position (copying a line),
    and after [lines + 1] gap movements the whole mapping has rotated
    by one ([start] advances), so hot logical lines migrate across all
    physical lines over time.

    The module tracks per-physical-line wear and lets experiments
    compare max wear with and without leveling under skewed write
    traffic. *)

type t

val create : lines:int -> gap_interval:int -> t
(** [lines] logical lines over [lines + 1] physical lines; the gap
    moves every [gap_interval] logical writes. Both must be positive. *)

val lines : t -> int

val physical_of_logical : t -> int -> int
(** Current mapping. Raises [Invalid_argument] for an out-of-range
    logical line. *)

val write : t -> int -> unit
(** Record one write to a logical line: wear accrues on its current
    physical line (plus the copy traffic of any gap movement this write
    triggers). *)

val wear : t -> int array
(** Per-physical-line write counts, length [lines + 1]. *)

val max_wear : t -> int
val gap_movements : t -> int

val quarantine : t -> int -> unit
(** Mark a {e physical} line as dead: {!physical_of_logical} probes past
    it, {!write} never lands on it, and gap copies into it are elided.
    Raises [Invalid_argument] if the line is out of range or if
    quarantining it would leave no healthy line. Idempotent. *)

val is_quarantined : t -> int -> bool

type stats = {
  writes : int;  (** logical writes recorded *)
  max_per_cell : int;  (** hottest physical line, = {!max_wear} *)
  remaps : int;  (** gap movements performed, = {!gap_movements} *)
  quarantined : int;  (** physical lines marked dead *)
}

val stats : t -> stats
(** One read-only snapshot of the wear counters, so observers (the
    serving layer's device pool, tests) need not reach for the
    individual accessors or the raw wear array. *)

val ideal_max_wear : t -> int
(** [ceil (total line writes / physical lines)] — the perfectly
    levelled bound, for normalisation. *)
