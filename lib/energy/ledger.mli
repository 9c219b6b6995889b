(** Energy accounting from the platform's event counters (Section IV:
    "For energy estimates, we use the numbers shown in Table I"; DRAM
    energy is excluded on both sides, as in the paper). *)

type breakdown = {
  host_j : float;  (** instructions x 128 pJ, driver included *)
  crossbar_compute_j : float;
  crossbar_write_j : float;
  mixed_signal_j : float;
  buffers_j : float;
  digital_j : float;
  dma_engine_j : float;
}

val accelerator_j : breakdown -> float
(** Everything but the host term. *)

val total_j : breakdown -> float

val collect :
  ?table:Table1.t -> Tdo_runtime.Platform.t -> host_instructions:int -> breakdown
(** Read the accumulated counters of the platform's accelerator
    (crossbar, ADC bank, digital logic, micro-engine) and combine them
    with [host_instructions] (typically the ROI instruction count). *)

val edp : energy_j:float -> time_s:float -> float
(** Energy-delay product in joule-seconds. *)
