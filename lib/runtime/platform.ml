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
}

let default_config =
  {
    cpu = Sim.Cpu.arm_a7;
    l1d = Sim.Cache.l1d_arm_a7;
    l2 = Sim.Cache.l2_arm_a7;
    memory = Sim.Memory.default_config;
    bus = Sim.Bus.default_config;
    engine = Cimacc.Micro_engine.default_config;
    register_base = Cimacc.Accel.default_register_base;
    cma = Cma.default_config;
    virt_offset = 0x4000_0000;
  }

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

let create ?(config = default_config) ?(seed = 0) () =
  let memory = Sim.Memory.create ~config:config.memory () in
  let bus = Sim.Bus.create ~config:config.bus () in
  let mmio = Sim.Mmio.create () in
  let l2_next op ~addr:_ ~bytes =
    ignore op;
    Sim.Bus.transfer bus ~bytes + Sim.Memory.burst_latency memory ~bytes
  in
  let l2 = Sim.Cache.create ~config:config.l2 ~next:l2_next () in
  let l1d =
    Sim.Cache.create ~config:config.l1d
      ~next:(fun op ~addr ~bytes:_ -> Sim.Cache.access l2 op ~addr)
      ()
  in
  let cpu = Sim.Cpu.create ~config:config.cpu ~l1d () in
  let clock () = Sim.Cpu.time_ps cpu in
  let accel = Cimacc.Accel.create ~engine_config:config.engine ~seed ~clock ~bus ~memory () in
  Cimacc.Accel.map_registers accel mmio ~base:config.register_base;
  let cma = Cma.create ~config:config.cma () in
  { config; memory; bus; mmio; cpu; l1d; l2; accel; cma }

let cpu t = t.cpu

let is_device_virtual t addr =
  let base = t.config.cma.Cma.base + t.config.virt_offset in
  addr >= base && addr < base + t.config.cma.Cma.size

let resolve t addr = if is_device_virtual t addr then addr - t.config.virt_offset else addr
