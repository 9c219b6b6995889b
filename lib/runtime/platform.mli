(** The emulated full system of Fig. 2(a): an Arm-A7-class host core
    with L1/L2 caches, 2 GB of shared main memory, a system bus, the
    PMIO space, and the CIM accelerator.

    Table I's platform has two A7 cores. The PolyBench kernels and the
    runtime are single-threaded, as in the paper, so only the core that
    runs them is modelled. Its clock is the system's one clock: the
    accelerator starts each job at the core's time. *)

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
(** Table I: Arm-A7 @ 1.2 GHz (one of the platform's two cores), 32 KB
    L1-D, 2 MB shared L2, 2 GB LPDDR3, 256x256 8-bit PCM crossbar. *)

type t = {
  config : config;
  memory : Sim.Memory.t;
  bus : Sim.Bus.t;
  mmio : Sim.Mmio.t;
  cpu : Sim.Cpu.t;
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
(** The host core, which runs the application and the driver. *)

val resolve : t -> int -> int
(** MMU view used by host loads/stores: maps a device-buffer virtual
    address back to its physical address, and leaves other addresses
    (identity-mapped application memory) unchanged. *)

val is_device_virtual : t -> int -> bool
