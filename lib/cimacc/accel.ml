module Sim = Tdo_sim

let default_register_base = 0x4000_0000

type t = {
  clock : unit -> Sim.Time_base.ps;
  regs : Context_regs.t;
  engine : Micro_engine.t;
  dma : Sim.Dma.t;
  mutable last_error : string option;
  mutable finish : Sim.Time_base.ps option;  (** the running job's, until {!complete} *)
}

let on_trigger t job =
  match Context_regs.status t.regs with
  | Context_regs.Busy ->
      (* The host must not re-trigger a running engine. *)
      t.last_error <- Some "trigger while busy";
      Context_regs.set_status t.regs Context_regs.Error
  | Context_regs.Idle | Context_regs.Done | Context_regs.Error -> (
      Context_regs.set_status t.regs Context_regs.Busy;
      match Micro_engine.run_job t.engine job ~start:(t.clock ()) with
      | Error reason ->
          t.last_error <- Some reason;
          Context_regs.set_status t.regs Context_regs.Error
      | Ok finish -> t.finish <- Some finish)

let create ?engine_config ?(seed = 0) ~clock ~bus ~memory () =
  let dma = Sim.Dma.create ~bus ~memory () in
  let engine = Micro_engine.create ?config:engine_config ~seed ~dma () in
  let t = { clock; regs = Context_regs.create (); engine; dma; last_error = None; finish = None } in
  Context_regs.set_on_trigger t.regs (on_trigger t);
  t

let complete t =
  match t.finish with
  | None -> None
  | Some _ as finish ->
      t.finish <- None;
      Context_regs.set_status t.regs Context_regs.Done;
      finish

let map_registers t mmio ~base =
  Sim.Mmio.map mmio ~base ~size:Context_regs.register_file_bytes (Context_regs.handler t.regs)

let regs t = t.regs
let engine t = t.engine
let dma t = t.dma
let status t = Context_regs.status t.regs
let last_error t = t.last_error
