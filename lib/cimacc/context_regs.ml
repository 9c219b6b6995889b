type op = Gemv | Gemm | Gemm_batched
type pin = Pin_a | Pin_b

type job = {
  op : op;
  m : int;
  n : int;
  k : int;
  trans_a : bool;
  trans_b : bool;
  alpha : float;
  beta : float;
  a_addr : int;
  b_addr : int;
  c_addr : int;
  lda : int;
  ldb : int;
  ldc : int;
  batch_count : int;
  batch_desc_addr : int;
  pin : pin;
  generation : int;
}

type status = Idle | Busy | Done | Error

let reg_command = 0
let reg_status = 1
let reg_op = 2
let reg_m = 3
let reg_n = 4
let reg_k = 5
let reg_trans = 6
let reg_alpha = 7
let reg_beta = 8
let reg_a_addr = 9
let reg_b_addr = 10
let reg_c_addr = 11
let reg_lda = 12
let reg_ldb = 13
let reg_ldc = 14
let reg_batch_count = 15
let reg_batch_desc = 16
let reg_pin = 17
let reg_generation = 18
let register_words = 20
let register_file_bytes = register_words * 4

let status_code = function Idle -> 0 | Busy -> 1 | Done -> 2 | Error -> 3

(* Each register holds its 32-bit word as an unboxed [int] in
   [0, 0xFFFF_FFFF]: the driver's writes and polls allocate nothing. *)
type t = {
  regs : int array;
  mutable on_trigger : (job -> unit) option;
  mutable status : status;
  mutable triggers : int;
}

let create () =
  { regs = Array.make register_words 0; on_trigger = None; status = Idle; triggers = 0 }

let set_on_trigger t f = t.on_trigger <- Some f
let status t = t.status

let set_status t s =
  t.status <- s;
  t.regs.(reg_status) <- status_code s

let geti t reg = t.regs.(reg)
let getf t reg = Int32.float_of_bits (Int32.of_int t.regs.(reg))

exception Bad_job of string

(* The job the registers hold, or [Bad_job]: a valid one costs the job
   record and nothing else. *)
let decode t =
  let op =
    match geti t reg_op with
    | 0 -> Gemv
    | 1 -> Gemm
    | 2 -> Gemm_batched
    | code -> raise (Bad_job (Printf.sprintf "unknown op code %d" code))
  in
  let m = geti t reg_m and n = geti t reg_n and k = geti t reg_k in
  if m <= 0 || n <= 0 || k <= 0 then
    raise (Bad_job (Printf.sprintf "non-positive dimensions m=%d n=%d k=%d" m n k));
  if op = Gemv && n <> 1 then raise (Bad_job "GEMV requires n = 1");
  let batch_count = geti t reg_batch_count in
  if op = Gemm_batched && batch_count <= 0 then
    raise (Bad_job "batched GEMM requires a batch count");
  let trans = geti t reg_trans in
  let pin = if geti t reg_pin = 1 then Pin_b else Pin_a in
  {
    op;
    m;
    n;
    k;
    trans_a = trans land 1 <> 0;
    trans_b = trans land 2 <> 0;
    alpha = getf t reg_alpha;
    beta = getf t reg_beta;
    a_addr = geti t reg_a_addr;
    b_addr = geti t reg_b_addr;
    c_addr = geti t reg_c_addr;
    lda = geti t reg_lda;
    ldb = geti t reg_ldb;
    ldc = geti t reg_ldc;
    batch_count;
    batch_desc_addr = geti t reg_batch_desc;
    pin;
    generation = geti t reg_generation;
  }

let decode_job t = match decode t with job -> Ok job | exception Bad_job reason -> Error reason

let word_offset offset =
  if offset land 3 <> 0 then invalid_arg "Context_regs: unaligned register access";
  let word = offset / 4 in
  if word < 0 || word >= register_words then
    invalid_arg (Printf.sprintf "Context_regs: offset 0x%x out of the register file" offset);
  word

let handler t =
  {
    Tdo_sim.Mmio.read = (fun ~offset -> t.regs.(word_offset offset));
    write =
      (fun ~offset v ->
        let word = word_offset offset in
        if word = reg_status then
          (* status is device-owned; host writes are ignored *)
          ()
        else begin
          let v = v land 0xFFFF_FFFF in
          t.regs.(word) <- v;
          if word = reg_command && v <> 0 then begin
            t.triggers <- t.triggers + 1;
            match decode t with
            | exception Bad_job _ -> set_status t Error
            | job -> (
                match t.on_trigger with
                | None -> set_status t Error
                | Some f -> f job)
          end
        end);
  }

let triggers t = t.triggers
