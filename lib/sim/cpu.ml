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

let class_count_total = 11

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

type t = {
  config : config;
  l1d : Cache.t;
  period_ps : int;
  mutable cycles : int;
  mutable instructions : int;
  mutable extra_ps : Time_base.ps;  (** stall time not expressed in cycles *)
  class_counts : int array;
  mutable roi_open : (int * int * Time_base.ps) option;
  mutable roi_acc : roi;
}

let create ?(config = arm_a7) ~l1d () =
  {
    config;
    l1d;
    period_ps = Time_base.period_ps ~freq_hz:config.freq_hz;
    cycles = 0;
    instructions = 0;
    extra_ps = 0;
    class_counts = Array.make class_count_total 0;
    roi_open = None;
    roi_acc = { roi_instructions = 0; roi_cycles = 0; roi_time_ps = 0 };
  }

let config t = t.config
let time_ps t = (t.cycles * t.period_ps) + t.extra_ps

(* [issue_at] is the executor's hot entry: a labelled (non-optional)
   address means no [Some] box per charged load/store. *)
let issue_at t ~addr cls =
  let mem_cycles =
    match cls with
    | Load | Store ->
        let op = if cls = Load then Cache.Read else Cache.Write in
        (* [Time_base.ps_to_cycles] with the period computed once at
           [create] rather than from the frequency on every access *)
        let p = t.period_ps in
        (Cache.access t.l1d op ~addr + p - 1) / p
    | Int_alu | Int_mul | Fp_add | Fp_mul | Fp_mac | Fp_div | Branch | Call | Ret ->
        invalid_arg "Cpu.issue_at: not a memory instruction"
  in
  t.cycles <- t.cycles + t.config.class_base_cycles cls + mem_cycles;
  t.instructions <- t.instructions + 1;
  let i = class_index cls in
  t.class_counts.(i) <- t.class_counts.(i) + 1

let issue t ?addr cls =
  match (cls, addr) with
  | (Load | Store), Some a -> issue_at t ~addr:a cls
  | (Load | Store), None -> invalid_arg "Cpu.issue: memory instruction without an address"
  | (Int_alu | Int_mul | Fp_add | Fp_mul | Fp_mac | Fp_div | Branch | Call | Ret), _ ->
      t.cycles <- t.cycles + t.config.class_base_cycles cls;
      t.instructions <- t.instructions + 1;
      let i = class_index cls in
      t.class_counts.(i) <- t.class_counts.(i) + 1

let issue_many t cls count =
  if count < 0 then invalid_arg "Cpu.issue_many: negative count";
  (match cls with
  | Load | Store -> invalid_arg "Cpu.issue_many: memory instructions need addresses"
  | Int_alu | Int_mul | Fp_add | Fp_mul | Fp_mac | Fp_div | Branch | Call | Ret -> ());
  t.cycles <- t.cycles + (count * t.config.class_base_cycles cls);
  t.instructions <- t.instructions + count;
  let i = class_index cls in
  t.class_counts.(i) <- t.class_counts.(i) + count

let stall_ps t ps =
  if ps < 0 then invalid_arg "Cpu.stall_ps: negative stall";
  t.extra_ps <- t.extra_ps + ps

let cycles t = t.cycles
let instructions t = t.instructions
let class_count t cls = t.class_counts.(class_index cls)

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
