(** The standalone CIM accelerator (Fig. 2(b)): context registers +
    micro-engine + DMA + crossbar, attached to the system bus and the
    IO space.

    Writing the command register triggers the engine, which starts the
    job at the host clock's current time and works out when it
    finishes. The job's completion is that time, not an event: the
    status register reads [Busy] until {!complete} flips it to [Done],
    which the host's poll loop does once it has waited out the job. *)

module Sim = Tdo_sim

val default_register_base : int
(** Suggested PMIO base address (0x4000_0000). *)

type t

val create :
  ?engine_config:Micro_engine.config ->
  ?seed:int ->
  clock:(unit -> Sim.Time_base.ps) ->
  bus:Sim.Bus.t ->
  memory:Sim.Memory.t ->
  unit ->
  t
(** [clock] is the host core's time; a trigger starts its job at
    [clock ()]. [seed] (default 0) feeds {!Micro_engine.create} for
    per-tile PRNG streams. *)

val map_registers : t -> Sim.Mmio.t -> base:int -> unit
(** Expose the context registers on the IO space. *)

val complete : t -> Sim.Time_base.ps option
(** Deliver the running job's completion: set the status to [Done] and
    return the job's finish time. [None] when no job is running — none
    was triggered, it was rejected, or its completion was already
    delivered. *)

val regs : t -> Context_regs.t
val engine : t -> Micro_engine.t
val dma : t -> Sim.Dma.t
val status : t -> Context_regs.status

val last_error : t -> string option
(** Reason for the last rejected job, if any. *)
