(** Execution timeline of the accelerator (paper Fig. 2(d)).

    The micro-engine appends one entry per pipeline phase; the
    experiment driver renders the trace to reproduce the figure. *)

type phase =
  | Trigger  (** host wrote the command register *)
  | Dma_fill  (** operand fetched from shared memory into local buffers *)
  | Program_crossbar  (** conductances written *)
  | Compute  (** analog GEMV *)
  | Accumulate  (** digital post-processing (weighted sum, alpha/beta) *)
  | Store_result  (** result DMA-ed back to shared memory *)
  | Result_ready  (** status register flipped to done *)

type event = { at : Tdo_sim.Time_base.ps; phase : phase; detail : string }

val phase_to_string : phase -> string
val pp_event : Format.formatter -> event -> unit

(** What an event says, kept as integers until it is read. *)
type detail =
  | Job of { op : int; m : int; n : int; k : int }
      (** "job op=%d m=%d n=%d k=%d" (0 GEMV, 1 GEMM, 2 batched) *)
  | Pinned_operand of { rows : int; cols : int }  (** "pinned operand %dx%d" *)
  | Program_tile of { tile : int; rows : int }  (** "tile %d, %d rows" *)
  | Vector of int  (** "vector %d" *)
  | Gemv of int  (** "gemv %d" *)
  | Abft_verify of int  (** "abft verify %d" *)
  | Epilogue of int  (** "epilogue %d" *)
  | Slice of int  (** "slice %d" *)
  | Status_done  (** "status <- done" *)

type t

val create : ?capacity:int -> unit -> t
(** Ring-limited recorder: at most [capacity] events are kept (default
    10000); later events are dropped but counted. *)

val record : t -> at:Tdo_sim.Time_base.ps -> phase:phase -> detail -> unit

val active : t -> bool
(** [true] while the next {!record} would still be kept. Hot paths use
    this to skip building the [detail] once the ring is full, calling
    {!count_dropped} instead so the drop statistics stay exact. *)

val count_dropped : t -> unit
(** Count one event without recording it — the fast-path companion of
    {!active}. *)

val events : t -> event list
(** In chronological (insertion) order, details formatted. *)

val dropped : t -> int
val clear : t -> unit

val render_gantt : ?width:int -> event list -> string
(** ASCII Gantt chart of an event list (paper Fig. 2(d)): one lane per
    phase, time flowing left to right over [width] columns (default
    72). Each event marks the instant its phase begins; the mark
    extends until the next event so phase overlap (double buffering) is
    visible. Returns "" for an empty list. *)
