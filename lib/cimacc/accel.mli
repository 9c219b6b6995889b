(** The standalone CIM accelerator (Fig. 2(b)): context registers +
    micro-engine + DMA + crossbar, attached to the system bus and the
    IO space.

    Writing the command register triggers the engine; completion is
    signalled by flipping the status register to [Done] through the
    discrete-event queue at the simulated finish time, which is what
    the host's poll loop observes. *)

module Sim = Tdo_sim

val default_register_base : int
(** Suggested PMIO base address (0x4000_0000). *)

type t

val create :
  ?engine_config:Micro_engine.config ->
  ?seed:int ->
  queue:Sim.Event_queue.t ->
  bus:Sim.Bus.t ->
  memory:Sim.Memory.t ->
  unit ->
  t
(** [seed] (default 0) feeds {!Micro_engine.create} for per-tile PRNG
    streams. *)

val map_registers : t -> Sim.Mmio.t -> base:int -> unit
(** Expose the context registers on the IO space. *)

val regs : t -> Context_regs.t
val engine : t -> Micro_engine.t
val dma : t -> Sim.Dma.t
val status : t -> Context_regs.status

val last_error : t -> string option
(** Reason for the last rejected job, if any. *)

val completion_time : t -> Sim.Time_base.ps option
(** Simulated finish time of the most recent successful job. *)
