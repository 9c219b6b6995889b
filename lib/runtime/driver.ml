module Sim = Tdo_sim
module Regs = Tdo_cimacc.Context_regs

(* The driver's costs, charged to the host core. *)
let syscall_instructions = 180 (* user/kernel crossing, per ioctl *)
let translate_instructions = 12 (* page-table walk, per address *)
let reg_write_instructions = 4
let uncached_access_ps = 20 * Sim.Time_base.ps_per_ns (* one PMIO register access *)
let poll_instructions = 8 (* one spin iteration's loop body *)
let flush_instructions_per_line = 2 (* set/way walk, per line of L1D and L2 *)

type t = {
  platform : Platform.t;
  mutable ioctls : int;
  mutable cache_flushes : int;
  mutable reg_writes : int;
  mutable translations : int;
  mutable flush_stall_ps : Sim.Time_base.ps;
  mutable wait_stall_ps : Sim.Time_base.ps;
}

let create platform =
  {
    platform;
    ioctls = 0;
    cache_flushes = 0;
    reg_writes = 0;
    translations = 0;
    flush_stall_ps = 0;
    wait_stall_ps = 0;
  }

let charge_instructions t n = Sim.Cpu.issue_many (Platform.cpu t.platform) Sim.Cpu.Int_alu n

let translate t addr =
  charge_instructions t translate_instructions;
  t.translations <- t.translations + 1;
  if Platform.is_device_virtual t.platform addr then Platform.resolve t.platform addr
  else if addr >= 0 && addr < (Sim.Memory.config t.platform.Platform.memory).Sim.Memory.size_bytes
  then addr
  else invalid_arg (Printf.sprintf "Driver.translate: unmapped address 0x%x" addr)

let cache_lines cache =
  let cfg = Sim.Cache.config cache in
  cfg.Sim.Cache.size_bytes / cfg.Sim.Cache.line_bytes

let flush_caches t =
  let cpu = Platform.cpu t.platform in
  (* set/way walk over both caches: real instructions on the host *)
  let lines = cache_lines t.platform.Platform.l1d + cache_lines t.platform.Platform.l2 in
  Sim.Cpu.issue_many cpu Sim.Cpu.Int_alu (lines * flush_instructions_per_line);
  (* L2 is flushed first, then L1D, so L1D's dirty lines are written
     back into an L2 that was just cleaned and stay dirty there. Each
     write-back is an L2 access, so this order sets the flush latency
     and every simulated number downstream; whether it should be the
     other way round is an open modelling question (DESIGN.md,
     modelling decision 7). *)
  let l2_lat = Sim.Cache.flush t.platform.Platform.l2 in
  let l1_lat = Sim.Cache.flush t.platform.Platform.l1d in
  let lat = l1_lat + l2_lat in
  Sim.Cpu.stall_ps cpu lat;
  t.cache_flushes <- t.cache_flushes + 1;
  t.flush_stall_ps <- t.flush_stall_ps + lat

let write_reg t ~reg value =
  charge_instructions t reg_write_instructions;
  Sim.Cpu.stall_ps (Platform.cpu t.platform) uncached_access_ps;
  t.reg_writes <- t.reg_writes + 1;
  Sim.Mmio.write t.platform.Platform.mmio
    ~addr:(t.platform.Platform.config.Platform.register_base + (4 * reg))
    value

let read_reg t ~reg =
  charge_instructions t poll_instructions;
  Sim.Cpu.stall_ps (Platform.cpu t.platform) uncached_access_ps;
  Sim.Mmio.read t.platform.Platform.mmio
    ~addr:(t.platform.Platform.config.Platform.register_base + (4 * reg))

(* A binary32's bits as a register word. *)
let float_word v = Int32.to_int (Int32.bits_of_float v) land 0xFFFF_FFFF

let launch t (job : Regs.job) =
  t.ioctls <- t.ioctls + 1;
  charge_instructions t syscall_instructions;
  (* Coherence: make every host-side store visible to the device's
     uncacheable reads before it starts. *)
  flush_caches t;
  write_reg t ~reg:Regs.reg_op
    (match job.Regs.op with Regs.Gemv -> 0 | Regs.Gemm -> 1 | Regs.Gemm_batched -> 2);
  write_reg t ~reg:Regs.reg_m job.Regs.m;
  write_reg t ~reg:Regs.reg_n job.Regs.n;
  write_reg t ~reg:Regs.reg_k job.Regs.k;
  write_reg t ~reg:Regs.reg_trans
    ((if job.Regs.trans_a then 1 else 0) lor if job.Regs.trans_b then 2 else 0);
  write_reg t ~reg:Regs.reg_alpha (float_word job.Regs.alpha);
  write_reg t ~reg:Regs.reg_beta (float_word job.Regs.beta);
  write_reg t ~reg:Regs.reg_a_addr (translate t job.Regs.a_addr);
  write_reg t ~reg:Regs.reg_b_addr (translate t job.Regs.b_addr);
  write_reg t ~reg:Regs.reg_c_addr (translate t job.Regs.c_addr);
  write_reg t ~reg:Regs.reg_lda job.Regs.lda;
  write_reg t ~reg:Regs.reg_ldb job.Regs.ldb;
  write_reg t ~reg:Regs.reg_ldc job.Regs.ldc;
  write_reg t ~reg:Regs.reg_batch_count job.Regs.batch_count;
  write_reg t ~reg:Regs.reg_batch_desc
    (if job.Regs.batch_desc_addr = 0 then 0 else translate t job.Regs.batch_desc_addr);
  write_reg t ~reg:Regs.reg_pin (match job.Regs.pin with Regs.Pin_a -> 0 | Regs.Pin_b -> 1);
  write_reg t ~reg:Regs.reg_generation job.Regs.generation;
  write_reg t ~reg:Regs.reg_command 1

(* The device's completion is a time ([Accel.complete]), so the spin
   loop is not simulated one poll at a time: at the first busy poll the
   host is charged, in one step, the polls that fit before the job
   finishes, and the next poll reads [Done]. *)
let rec await t =
  match read_reg t ~reg:Regs.reg_status with
  | 2 (* done *) -> Ok ()
  | 3 (* error *) ->
      Error
        (Option.value ~default:"device error"
           (Tdo_cimacc.Accel.last_error t.platform.Platform.accel))
  | 0 | 1 -> (
      match Tdo_cimacc.Accel.complete t.platform.Platform.accel with
      | None -> failwith "Driver.await: device busy with no pending completion event"
      | Some finish ->
          let cpu = Platform.cpu t.platform in
          let ahead = finish - Sim.Cpu.time_ps cpu in
          if ahead > 0 then begin
            (* one poll iteration = the loop body's instructions plus
               the uncached status read; issue the instructions (they
               advance the clock by themselves) and stall only for the
               register-access share of the wait *)
            let cycle_ps = Sim.Time_base.period_ps ~freq_hz:(Sim.Cpu.config cpu).Sim.Cpu.freq_hz in
            let iteration_ps = (poll_instructions * cycle_ps) + uncached_access_ps in
            let iterations = ahead / iteration_ps in
            let instructions = iterations * poll_instructions in
            Sim.Cpu.issue_many cpu Sim.Cpu.Int_alu instructions;
            let remaining = ahead - (instructions * cycle_ps) in
            if remaining > 0 then Sim.Cpu.stall_ps cpu remaining;
            t.wait_stall_ps <- t.wait_stall_ps + ahead
          end;
          await t)
  | code -> failwith (Printf.sprintf "Driver.await: unknown status code %d" code)

let ioctls t = t.ioctls
let cache_flushes t = t.cache_flushes
let reg_writes t = t.reg_writes
let translations t = t.translations
let flush_stall_ps t = t.flush_stall_ps
let wait_stall_ps t = t.wait_stall_ps
