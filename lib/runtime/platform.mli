(** The emulated full system of Fig. 2(a): a dual-core Arm-A7-class
    host with L1/L2 caches, 2 GB of shared main memory, a system bus,
    the PMIO space, and the CIM accelerator.

    Only core 0 runs the (single-threaded) PolyBench kernels, as in the
    paper; core 1 exists to match the configuration of Table I and is
    available to applications that want it. *)

module Sim = Tdo_sim
module Cimacc = Tdo_cimacc

type config = {
  cpu : Sim.Cpu.config;
  l1d : Sim.Cache.config;
  l2 : Sim.Cache.config;
  memory : Sim.Memory.config;
  bus : Sim.Bus.config;
  engine : Cimacc.Micro_engine.config;
  register_base : int;
  cma : Cma.config;
  virt_offset : int;
      (** device buffers are exposed to user space at
          [phys + virt_offset]; the driver translates back *)
}

val default_config : config
(** Table I: 2x Arm-A7 @ 1.2 GHz, 32 KB L1-D, 2 MB shared L2, 2 GB
    LPDDR3, 256x256 8-bit PCM crossbar. *)

type t = {
  config : config;
  queue : Sim.Event_queue.t;
  memory : Sim.Memory.t;
  bus : Sim.Bus.t;
  mmio : Sim.Mmio.t;
  cores : Sim.Cpu.t array;
  l1d : Sim.Cache.t;
  l2 : Sim.Cache.t;
  accel : Cimacc.Accel.t;
  cma : Cma.t;
}

val create : ?config:config -> ?seed:int -> unit -> t
(** [seed] (default 0) gives the accelerator's crossbar tiles distinct,
    reproducible PRNG streams — multi-device pools pass a per-device
    seed so campaigns are replayable. *)

val cpu : t -> Sim.Cpu.t
(** Core 0, the one running the application. *)

val resolve : t -> int -> int
(** MMU view used by host loads/stores: maps a device-buffer virtual
    address back to its physical address, and leaves other addresses
    (identity-mapped application memory) unchanged. *)

val is_device_virtual : t -> int -> bool

val sync_queue_to_cpu : t -> unit
(** Advance the event queue's clock to core 0's current time; call
    before interacting with the accelerator so device events are
    ordered after the host actions that caused them. *)
