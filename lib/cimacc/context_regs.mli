(** Context-register file of the CIM accelerator (Sections II-C/II-E).

    The host controls the accelerator exclusively through these
    memory-mapped 32-bit registers: it fills in the operation
    parameters, then writes the command register to trigger execution
    and polls the status register for completion. The register file
    snapshots its contents into a {!job} on trigger, so the host can
    prepare the next call while the engine runs (register double
    buffering). Each register keeps its 32-bit word as an unboxed
    [int] (see {!Tdo_sim.Mmio}): integer fields decode as the word,
    [alpha] and [beta] as the binary32 whose bits it is. *)

type op = Gemv | Gemm | Gemm_batched

type pin = Pin_a | Pin_b
(** Which operand is written into the crossbar; the other one is
    streamed through the row buffers. The compiler's "smart mapping"
    picks the shared/reused operand (paper Section III-B). *)

type job = {
  op : op;
  m : int;
  n : int;
  k : int;
  trans_a : bool;
  trans_b : bool;
  alpha : float;
  beta : float;
  a_addr : int;
  b_addr : int;
  c_addr : int;
  lda : int;
  ldb : int;
  ldc : int;
  batch_count : int;
  batch_desc_addr : int;
  pin : pin;
  generation : int;
      (** version stamp of the pinned operand's buffer; the engine skips
          reprogramming when address, shape and generation all match *)
}

type status = Idle | Busy | Done | Error


(** Register word offsets (byte offset = 4 x word). *)

val reg_command : int
val reg_status : int
val reg_op : int
val reg_m : int
val reg_n : int
val reg_k : int
val reg_trans : int
val reg_alpha : int
val reg_beta : int
val reg_a_addr : int
val reg_b_addr : int
val reg_c_addr : int
val reg_lda : int
val reg_ldb : int
val reg_ldc : int
val reg_batch_count : int
val reg_batch_desc : int
val reg_pin : int
val reg_generation : int
val register_file_bytes : int

type t

val create : unit -> t

val set_on_trigger : t -> (job -> unit) -> unit
(** Install the engine callback invoked when the command register is
    written with a non-zero value. *)

val handler : t -> Tdo_sim.Mmio.handler
(** The PMIO interface to map on the system's IO space. *)

val status : t -> status
val set_status : t -> status -> unit

val decode_job : t -> (job, string) result
(** Decode the current register contents (also done on trigger);
    exposed for tests and for the driver's sanity checks. *)

val triggers : t -> int
