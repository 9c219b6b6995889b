type iclass =
  | Int_alu
  | Int_mul
  | Fp_add
  | Fp_mul
  | Fp_mac
  | Fp_div
  | Load
  | Store
  | Branch
  | Call
  | Ret

let class_index = function
  | Int_alu -> 0
  | Int_mul -> 1
  | Fp_add -> 2
  | Fp_mul -> 3
  | Fp_mac -> 4
  | Fp_div -> 5
  | Load -> 6
  | Store -> 7
  | Branch -> 8
  | Call -> 9
  | Ret -> 10

type config = { name : string; freq_hz : float; class_base_cycles : iclass -> int }

let arm_a7_base_cycles = function
  | Int_alu -> 1
  | Int_mul -> 3
  | Fp_add -> 4
  | Fp_mul -> 4
  | Fp_mac -> 8
  | Fp_div -> 18
  | Load -> 1
  | Store -> 1
  | Branch -> 1
  | Call -> 2
  | Ret -> 2

let arm_a7 = { name = "arm-a7"; freq_hz = 1.2e9; class_base_cycles = arm_a7_base_cycles }

type roi = { roi_instructions : int; roi_cycles : int; roi_time_ps : Time_base.ps }

(* [base_cycles] (by [class_index]) and the L1D hit cost in cycles are
   taken from the configuration once, so charging an instruction costs
   no closure call, and a memory access divides by the period only on a
   miss. *)
type t = {
  config : config;
  l1d : Cache.t;
  period_ps : int;
  base_cycles : int array;
  hit_ps : Time_base.ps;
  hit_cycles : int;
  mutable cycles : int;
  mutable instructions : int;
  mutable extra_ps : Time_base.ps;  (** stall time not expressed in cycles *)
  mutable roi_open : (int * int * Time_base.ps) option;
  mutable roi_acc : roi;
  memo : Cache.memo;  (** the probes' per-site line memo, over [l1d] *)
}

(* in [class_index] order *)
let all_classes =
  [| Int_alu; Int_mul; Fp_add; Fp_mul; Fp_mac; Fp_div; Load; Store; Branch; Call; Ret |]

let create ?(config = arm_a7) ~l1d () =
  let period_ps = Time_base.period_ps ~freq_hz:config.freq_hz in
  let hit_ps = (Cache.config l1d).Cache.hit_latency_ps in
  {
    config;
    l1d;
    period_ps;
    base_cycles = Array.map config.class_base_cycles all_classes;
    hit_ps;
    hit_cycles = (hit_ps + period_ps - 1) / period_ps;
    cycles = 0;
    instructions = 0;
    extra_ps = 0;
    roi_open = None;
    roi_acc = { roi_instructions = 0; roi_cycles = 0; roi_time_ps = 0 };
    memo = Cache.memo ();
  }

let config t = t.config
let time_ps t = (t.cycles * t.period_ps) + t.extra_ps

let[@inline always] retire t ~count ~cycles =
  t.cycles <- t.cycles + cycles;
  t.instructions <- t.instructions + count

let[@inline always] memory_op name = function
  | Load -> Cache.Read
  | Store -> Cache.Write
  | Int_alu | Int_mul | Fp_add | Fp_mul | Fp_mac | Fp_div | Branch | Call | Ret ->
      invalid_arg (name ^ ": not a memory instruction")

(* A labelled (non-optional) address means no [Some] box per charged
   load/store. *)
let issue_at t ~addr cls =
  let latency = Cache.access t.l1d (memory_op "Cpu.issue_at" cls) ~addr in
  (* rounded up, a partial period being a full cycle, with the period
     taken once at [create] *)
  let mem_cycles =
    if latency = t.hit_ps then t.hit_cycles
    else (latency + t.period_ps - 1) / t.period_ps
  in
  retire t ~count:1 ~cycles:(Array.unsafe_get t.base_cycles (class_index cls) + mem_cycles)

let issue_run t ~addr ~count cls =
  if count < 0 then invalid_arg "Cpu.issue_run: negative count";
  let op = memory_op "Cpu.issue_run" cls in
  let mem_cycles = Cache.access_run t.l1d op ~addr ~count ~cycle_ps:t.period_ps in
  retire t ~count
    ~cycles:((count * Array.unsafe_get t.base_cycles (class_index cls)) + mem_cycles)

(* The probes access the L1D now and leave the retiring to the caller:
   what [issue_at] would charge is [base + hit_cycles] per access plus
   the rounded latency beyond a hit, which they return. *)
let[@inline always] beyond_hit t latency =
  if latency = t.hit_ps then 0 else ((latency + t.period_ps - 1) / t.period_ps) - t.hit_cycles

let[@inline always] probe_load t ~site ~addr =
  beyond_hit t (Cache.probe t.l1d t.memo ~site Cache.Read ~addr)

let[@inline always] probe_store t ~site ~addr =
  beyond_hit t (Cache.probe t.l1d t.memo ~site Cache.Write ~addr)

(* the store hits the line the load left: nothing beyond a hit *)
let[@inline always] probe_update t ~site ~addr =
  beyond_hit t (Cache.probe_update t.l1d t.memo ~site ~addr)

let[@inline always] l1d_clock t = Cache.clock t.l1d
let[@inline always] skip_hits t ~until = Cache.skip_hits t.l1d ~until
let[@inline always] stamp_site t ~site tick = Cache.stamp_site t.l1d t.memo ~site tick
let[@inline always] probe_hit t ~site op ~update ~addr = Cache.probe_hit t.l1d t.memo ~site op ~update ~addr

let[@inline always] probe_fill t ~site op ~update ~addr =
  beyond_hit t (Cache.probe_fill t.l1d t.memo ~site op ~update ~addr)

let retire_probed t ~loads ~stores ~cycles =
  if loads < 0 || stores < 0 || cycles < 0 then invalid_arg "Cpu.retire_probed: negative count";
  let load = class_index Load and store = class_index Store in
  retire t ~count:loads ~cycles:(loads * (Array.unsafe_get t.base_cycles load + t.hit_cycles));
  retire t ~count:stores ~cycles:(stores * (Array.unsafe_get t.base_cycles store + t.hit_cycles));
  t.cycles <- t.cycles + cycles

let issue t cls =
  match cls with
  | Load | Store -> invalid_arg "Cpu.issue: memory instructions need addresses (issue_at)"
  | Int_alu | Int_mul | Fp_add | Fp_mul | Fp_mac | Fp_div | Branch | Call | Ret ->
      retire t ~count:1 ~cycles:(Array.unsafe_get t.base_cycles (class_index cls))

let issue_many t cls count =
  if count < 0 then invalid_arg "Cpu.issue_many: negative count";
  (match cls with
  | Load | Store -> invalid_arg "Cpu.issue_many: memory instructions need addresses"
  | Int_alu | Int_mul | Fp_add | Fp_mul | Fp_mac | Fp_div | Branch | Call | Ret -> ());
  retire t ~count ~cycles:(count * Array.unsafe_get t.base_cycles (class_index cls))

let stall_ps t ps =
  if ps < 0 then invalid_arg "Cpu.stall_ps: negative stall";
  t.extra_ps <- t.extra_ps + ps

let cycles t = t.cycles
let instructions t = t.instructions

let roi_begin t =
  match t.roi_open with
  | Some _ -> failwith "Cpu.roi_begin: ROI window already open"
  | None -> t.roi_open <- Some (t.instructions, t.cycles, time_ps t)

let roi_end t =
  match t.roi_open with
  | None -> failwith "Cpu.roi_end: no ROI window open"
  | Some (insts, cycles, time) ->
      t.roi_open <- None;
      t.roi_acc <-
        {
          roi_instructions = t.roi_acc.roi_instructions + (t.instructions - insts);
          roi_cycles = t.roi_acc.roi_cycles + (t.cycles - cycles);
          roi_time_ps = t.roi_acc.roi_time_ps + (time_ps t - time);
        }

let roi t = t.roi_acc
