(** Execution timeline of the accelerator (paper Fig. 2(d)).

    A log the caller attaches to a micro-engine with
    {!Micro_engine.record_timeline}; from then on the engine appends one
    event per pipeline phase, and the experiment driver renders the
    trace to reproduce the figure. An engine with no log attached
    records nothing. *)

type phase =
  | Trigger  (** host wrote the command register *)
  | Dma_fill  (** operand fetched from shared memory into local buffers *)
  | Program_crossbar  (** conductances written *)
  | Compute  (** analog GEMV *)
  | Accumulate  (** digital post-processing (weighted sum, alpha/beta) *)
  | Store_result  (** result DMA-ed back to shared memory *)
  | Result_ready  (** status register flipped to done *)

(** What an event says. *)
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

type event = { at : Tdo_sim.Time_base.ps; phase : phase; detail : detail }

val detail_to_string : detail -> string
(** The text in each constructor's comment above. *)

val phase_to_string : phase -> string

val pp_event : Format.formatter -> event -> unit
(** Time, phase and {!detail_to_string} on one line. *)

type t

val create : unit -> t
(** An empty log. It keeps every event recorded into it. *)

val record : t -> at:Tdo_sim.Time_base.ps -> phase:phase -> detail -> unit

val events : t -> event list
(** In the order they were recorded. *)

val render_gantt : ?width:int -> event list -> string
(** ASCII Gantt chart of an event list (paper Fig. 2(d)): one lane per
    phase, time flowing left to right over [width] columns (default
    72). Each event marks the instant its phase begins; the mark
    extends until the next event so phase overlap (double buffering) is
    visible. Returns "" for an empty list. *)
