module Platform = Tdo_runtime.Platform
module Flow = Tdo_cim.Flow
module Interp = Tdo_lang.Interp
module Ast = Tdo_lang.Ast
module Sim = Tdo_sim
module Cimacc = Tdo_cimacc
module Crossbar = Tdo_pcm.Crossbar
module Wear_leveling = Tdo_pcm.Wear_leveling
module Endurance = Tdo_pcm.Endurance
module Backend = Tdo_backend.Backend
module Table1 = Tdo_energy.Table1

type exec_stats = {
  service_ps : int;
  roi_instructions : int;
  used_cim : bool;
  launches : int;
  write_bytes : int;
  cell_writes : int;
  macs : int;
  energy_j : float;
  abft_checks : int;
  abft_mismatches : int;
  abft_fault : (int * (int * int * int * int)) option;
}

type wear = {
  total_cell_writes : int;
  max_per_cell : int;
  per_tile_cell_writes : int array;
  per_tile_write_bytes : int array;
  worn_out_fraction : float;
  leveling : Wear_leveling.stats;
  budget_consumed : float;
}

type t = {
  dev_id : int;
  backend : Backend.profile;
  platform : Platform.t option;  (** [None] for the host-BLAS class *)
  leveler : Wear_leveling.t;
  tracker : Endurance.Tracker.t;
  mutable mode : Backend.mode;
  mutable to_compute : int;
  mutable to_memory : int;
  mutable energy : float;
  mutable available_ps : int;
  mutable served : int;
  mutable quarantined : bool;
  mutable resident : string option;
      (** residency key of the graph program whose weight tiles are
          still pinned from the previous run; [None] = latches invalid *)
  mutable drafted_at_ps : int;
      (** virtual time a dual tile was last drafted to compute; [-1]
          when serving its memory role *)
  mutable displaced_bytes : float;
      (** lifetime memory-role traffic forgone while drafted *)
}

let platform_exn t =
  match t.platform with
  | Some p -> p
  | None ->
      invalid_arg
        (Printf.sprintf "Device.platform: device %d is host-class (no emulated platform)"
           t.dev_id)

let engine t = Cimacc.Accel.engine (platform_exn t).Platform.accel

let create ?(platform_config = Platform.default_config) ?cell_endurance ?seed
    ?(backend = Backend.pcm) ~id () =
  (* Default each device's PRNG stream to its pool id: distinct and
     reproducible without any campaign configuration. *)
  let seed = match seed with Some s -> s | None -> id in
  let cell_endurance =
    match cell_endurance with Some e -> e | None -> backend.Backend.cell_endurance
  in
  (* The class profile reshapes the base platform (latencies, noise)
     before the emulated machine is built; host-class devices build no
     machine at all — they are the host. *)
  let platform_config = Backend.platform_config ~base:platform_config backend in
  match backend.Backend.cls with
  | Backend.Host_blas ->
      {
        dev_id = id;
        backend;
        platform = None;
        leveler = Wear_leveling.create ~lines:1 ~gap_interval:1;
        tracker = Endurance.Tracker.create ~cell_endurance ~crossbar_bytes:1;
        mode = Backend.Compute_mode;
        to_compute = 0;
        to_memory = 0;
        energy = 0.0;
        available_ps = 0;
        served = 0;
        quarantined = false;
        resident = None;
        drafted_at_ps = -1;
        displaced_bytes = 0.0;
      }
  | Backend.Pcm_crossbar | Backend.Digital_tile ->
      let platform = Platform.create ~config:platform_config ~seed () in
      let xbar = platform_config.Platform.engine.Cimacc.Micro_engine.xbar in
      let tiles = platform_config.Platform.engine.Cimacc.Micro_engine.tiles in
      {
        dev_id = id;
        backend;
        platform = Some platform;
        (* Start-Gap over the crossbar's wordlines: the row-write stream of
           every programmed operand is pushed through the remapper, so the
           pool can report levelled wear next to the raw per-cell counters. *)
        leveler =
          Wear_leveling.create ~lines:xbar.Crossbar.rows
            ~gap_interval:(max 1 (xbar.Crossbar.rows / 2));
        tracker =
          Endurance.Tracker.create ~cell_endurance
            ~crossbar_bytes:(xbar.Crossbar.size_bytes * max 1 tiles);
        mode =
          (if backend.Backend.dual_mode then Backend.Memory_mode else Backend.Compute_mode);
        to_compute = 0;
        to_memory = 0;
        energy = 0.0;
        available_ps = 0;
        served = 0;
        quarantined = false;
        resident = None;
        drafted_at_ps = -1;
        displaced_bytes = 0.0;
      }

let id t = t.dev_id
let profile t = t.backend
let device_class t = t.backend.Backend.cls
let platform t = platform_exn t
let available_ps t = t.available_ps
let set_available_ps t ps = t.available_ps <- ps
let requests_served t = t.served
let write_pressure t = Endurance.Tracker.bytes_written t.tracker
let is_quarantined t = t.quarantined
let energy_j t = t.energy
let mode t = t.mode
let resident t = t.resident
let clear_resident t = t.resident <- None
let displaced_mem_bytes t = t.displaced_bytes

(* Charge the memory-role traffic the tile has forgone since it was
   drafted (or last charged) up to [at_ps], and advance the charge
   cursor so the interval is never double-billed. *)
let accrue_displacement t ~at_ps =
  if t.drafted_at_ps >= 0 && at_ps > t.drafted_at_ps then begin
    let us =
      float_of_int (at_ps - t.drafted_at_ps) /. float_of_int Tdo_sim.Time_base.ps_per_us
    in
    let bytes = us *. t.backend.Backend.memory_bw_bytes_per_us in
    t.displaced_bytes <- t.displaced_bytes +. bytes;
    t.drafted_at_ps <- at_ps;
    bytes
  end
  else 0.0

let finalize_displacement t ~at_ps = accrue_displacement t ~at_ps

let convert ?at_ps t ~to_compute =
  (* A role flip rebuilds the tile's peripheral state; any pinned
     weights are gone either way. *)
  t.resident <- None;
  if to_compute then begin
    t.mode <- Backend.Compute_mode;
    t.to_compute <- t.to_compute + 1;
    (match at_ps with
    | Some ps when t.backend.Backend.dual_mode -> t.drafted_at_ps <- ps
    | _ -> ());
    0.0
  end
  else begin
    t.mode <- Backend.Memory_mode;
    t.to_memory <- t.to_memory + 1;
    let displaced =
      match at_ps with Some ps -> accrue_displacement t ~at_ps:ps | None -> 0.0
    in
    t.drafted_at_ps <- -1;
    displaced
  end

let conversions t = (t.to_compute, t.to_memory)

let quarantine t ~rows:(row_off, nrows) =
  t.quarantined <- true;
  t.resident <- None;
  (* Feed the localisation into the Start-Gap remap: the faulty rows'
     current physical lines stop taking traffic. A line that cannot be
     quarantined (it would kill the device's last healthy line) is left
     alone — the device-level flag already keeps work away. *)
  let lines = Wear_leveling.lines t.leveler in
  for r = row_off to min (row_off + nrows - 1) (lines - 1) do
    try Wear_leveling.quarantine t.leveler (Wear_leveling.physical_of_logical t.leveler r)
    with Invalid_argument _ -> ()
  done

(* Price one run against the class's Table-I-style energy table. The
   launch term bundles the per-GEMV mixed-signal, combine and DMA
   control costs; host instructions are priced at the Table I host
   rate. *)
let device_energy_j (table : Table1.t) ~macs ~write_bytes ~launches ~roi_instructions =
  (float_of_int macs *. table.Table1.crossbar_compute_j_per_mac)
  +. (float_of_int write_bytes *. table.Table1.crossbar_write_j_per_byte)
  +. float_of_int launches
     *. (table.Table1.mixed_signal_j_per_full_gemv
        +. table.Table1.weighted_sum_j_per_gemv
        +. table.Table1.dma_engine_j_per_full_gemv)
  +. (float_of_int roi_instructions *. table.Table1.host_j_per_instruction)

let run ?residency t (compiled : Flow.compiled) ~args =
  (* A fresh user-space runtime is created inside [Exec.exec], so its
     generation counter restarts; a stale pinned operand could alias a
     new tenant's buffer at a recycled CMA address and must not survive
     into this run — UNLESS the run replays the exact program the
     latches were set by. [residency] names that program: the compiled
     entry (digest + options + class) plus the tenant, and the weights
     it programs are model-seeded, so an identical key means the same
     (address, generation, data) programming sequence is about to be
     replayed verbatim. Only then is skipping the invalidation sound. *)
  (match residency with
  | Some key when t.resident = Some key -> ()
  | _ -> Cimacc.Micro_engine.invalidate_pinned (engine t));
  t.resident <- None;
  Cimacc.Micro_engine.clear_abft_fault (engine t);
  let platform = platform_exn t in
  let cpu = Platform.cpu platform in
  let roi0 = Sim.Cpu.roi cpu in
  let xc0 = Cimacc.Micro_engine.total_crossbar_counters (engine t) in
  let ec0 = Cimacc.Micro_engine.counters (engine t) in
  let metrics = Tdo_ir.Exec.exec compiled.Flow.program ~platform ~args in
  let roi1 = Sim.Cpu.roi cpu in
  let xc1 = Cimacc.Micro_engine.total_crossbar_counters (engine t) in
  let ec1 = Cimacc.Micro_engine.counters (engine t) in
  let write_bytes = xc1.Crossbar.write_bytes - xc0.Crossbar.write_bytes in
  let cell_writes = xc1.Crossbar.cell_writes - xc0.Crossbar.cell_writes in
  let logical_writes = xc1.Crossbar.logical_writes - xc0.Crossbar.logical_writes in
  Endurance.Tracker.record t.tracker ~bytes:write_bytes;
  (* Approximate the operand row-write stream for the Start-Gap view:
     programming is row-parallel, so [logical_writes / cols] wordlines
     took a pulse. *)
  let cols =
    (Crossbar.config (Cimacc.Micro_engine.crossbar (engine t))).Crossbar.cols
  in
  let rows_written = logical_writes / max 1 cols in
  let lines = Wear_leveling.lines t.leveler in
  for i = 0 to rows_written - 1 do
    Wear_leveling.write t.leveler (i mod lines)
  done;
  t.served <- t.served + 1;
  let roi_instructions = roi1.Sim.Cpu.roi_instructions - roi0.Sim.Cpu.roi_instructions in
  let macs = xc1.Crossbar.macs - xc0.Crossbar.macs in
  let launches = metrics.Tdo_ir.Exec.cim_launches in
  let energy_j =
    device_energy_j t.backend.Backend.energy ~macs ~write_bytes ~launches ~roi_instructions
  in
  t.energy <- t.energy +. energy_j;
  let abft_mismatches =
    ec1.Cimacc.Micro_engine.abft_mismatches - ec0.Cimacc.Micro_engine.abft_mismatches
  in
  (* Latch the residency key only on a clean completion: a corrupt or
     faulted run's pinned state is not trusted for reuse. *)
  if abft_mismatches = 0 then t.resident <- residency;
  {
    service_ps = roi1.Sim.Cpu.roi_time_ps - roi0.Sim.Cpu.roi_time_ps;
    roi_instructions;
    used_cim = metrics.Tdo_ir.Exec.used_cim;
    launches;
    write_bytes;
    cell_writes;
    macs;
    energy_j;
    abft_checks = ec1.Cimacc.Micro_engine.abft_checks - ec0.Cimacc.Micro_engine.abft_checks;
    abft_mismatches;
    abft_fault = Cimacc.Micro_engine.last_abft_fault (engine t);
  }

let run_host t ~(ast : Ast.func) ~args ~macs =
  (match t.backend.Backend.cls with
  | Backend.Host_blas -> ()
  | _ -> invalid_arg "Device.run_host: not a host-class device");
  (try Interp.run ast ~args
   with
   | Tdo_ir.Exec.Exec_error _ as e -> raise e
   | e -> raise (Tdo_ir.Exec.Exec_error ("host BLAS execution: " ^ Printexc.to_string e)));
  t.served <- t.served + 1;
  let service_ps = t.backend.Backend.cpu_ps_per_mac * macs in
  (* ~3 host instructions per scalar MAC (load, FMA, store/update) at
     the Table I per-instruction energy *)
  let roi_instructions = 3 * macs in
  let energy_j =
    float_of_int roi_instructions *. t.backend.Backend.energy.Table1.host_j_per_instruction
  in
  t.energy <- t.energy +. energy_j;
  {
    service_ps;
    roi_instructions;
    used_cim = false;
    launches = 0;
    write_bytes = 0;
    cell_writes = 0;
    macs;
    energy_j;
    abft_checks = 0;
    abft_mismatches = 0;
    abft_fault = None;
  }

let zero_wear t =
  {
    total_cell_writes = 0;
    max_per_cell = 0;
    per_tile_cell_writes = [||];
    per_tile_write_bytes = [||];
    worn_out_fraction = 0.0;
    leveling = Wear_leveling.stats t.leveler;
    budget_consumed = Endurance.Tracker.budget_consumed t.tracker;
  }

let wear t =
  match t.platform with
  | None -> zero_wear t
  | Some _ when not t.backend.Backend.wears ->
      (* digital tiles accumulate crossbar counters in the engine, but
         SRAM does not wear: report a clean budget *)
      { (zero_wear t) with budget_consumed = 0.0 }
  | Some _ ->
      let xbars = Cimacc.Micro_engine.crossbars (engine t) in
      {
        total_cell_writes =
          Array.fold_left (fun acc xb -> acc + Crossbar.wear_total xb) 0 xbars;
        max_per_cell = Array.fold_left (fun acc xb -> max acc (Crossbar.wear_max xb)) 0 xbars;
        per_tile_cell_writes = Array.map Crossbar.wear_total xbars;
        per_tile_write_bytes =
          Array.map (fun xb -> (Crossbar.counters xb).Crossbar.write_bytes) xbars;
        worn_out_fraction =
          Array.fold_left
            (fun acc xb -> Float.max acc (Crossbar.worn_out_fraction xb))
            0.0 xbars;
        leveling = Wear_leveling.stats t.leveler;
        budget_consumed = Endurance.Tracker.budget_consumed t.tracker;
      }

let lifetime_years t ~elapsed_s =
  if elapsed_s <= 0.0 || not t.backend.Backend.wears then None
  else Endurance.Tracker.lifetime_years t.tracker ~elapsed_seconds:elapsed_s
