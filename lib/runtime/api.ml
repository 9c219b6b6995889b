module Sim = Tdo_sim
module Regs = Tdo_cimacc.Context_regs
module Mat = Tdo_linalg.Mat

type buffer = {
  virt : int;
  phys : int;
  buf_bytes : int;
  mutable generation : int;
  mutable freed : bool;
}

type view = { buf : buffer; offset_elems : int; ld : int }

let view ?(offset_elems = 0) ~ld buf =
  if offset_elems < 0 || 4 * offset_elems >= buf.buf_bytes then
    invalid_arg "Api.view: offset outside the buffer";
  if ld <= 0 then invalid_arg "Api.view: leading dimension must be positive";
  { buf; offset_elems; ld }

type counters = {
  gemm_calls : int;
  gemv_calls : int;
  batched_calls : int;
  launches : int;
  mallocs : int;
  host_to_dev_bytes : int;
  dev_to_host_bytes : int;
}

(* The counters are mutable fields, bumped in place on every call; the
   [counters] snapshot is built on demand. *)
type t = {
  platform : Platform.t;
  driver : Driver.t;
  mutable gemm_calls : int;
  mutable gemv_calls : int;
  mutable batched_calls : int;
  mutable launches : int;
  mutable mallocs : int;
  mutable host_to_dev_bytes : int;
  mutable dev_to_host_bytes : int;
  mutable generation_source : int;
}

let init platform =
  let driver = Driver.create platform in
  let t =
    {
      platform;
      driver;
      gemm_calls = 0;
      gemv_calls = 0;
      batched_calls = 0;
      launches = 0;
      mallocs = 0;
      host_to_dev_bytes = 0;
      dev_to_host_bytes = 0;
      generation_source = 0;
    }
  in
  (* device-open cost of polly_cimInit *)
  Sim.Cpu.issue_many (Platform.cpu platform) Sim.Cpu.Int_alu 400;
  t

let driver t = t.driver

let counters (t : t) =
  {
    gemm_calls = t.gemm_calls;
    gemv_calls = t.gemv_calls;
    batched_calls = t.batched_calls;
    launches = t.launches;
    mallocs = t.mallocs;
    host_to_dev_bytes = t.host_to_dev_bytes;
    dev_to_host_bytes = t.dev_to_host_bytes;
  }

let launches (t : t) = t.launches

let malloc t ~bytes =
  match Cma.alloc t.platform.Platform.cma ~bytes with
  | Error reason -> Error reason
  | Ok phys ->
      t.mallocs <- t.mallocs + 1;
      t.generation_source <- t.generation_source + 1;
      Ok
        {
          virt = phys + t.platform.Platform.config.Platform.virt_offset;
          phys;
          buf_bytes = bytes;
          generation = t.generation_source;
          freed = false;
        }

let free t buffer =
  if buffer.freed then invalid_arg "Api.free: double free";
  buffer.freed <- true;
  Cma.free t.platform.Platform.cma buffer.phys

let check_live name buffer = if buffer.freed then invalid_arg (name ^ ": buffer was freed")

let bump_generation t buffer =
  t.generation_source <- t.generation_source + 1;
  buffer.generation <- t.generation_source

(* A view's [rows x cols] window is [runs] runs of consecutive
   elements in row-major order: one when it is packed (leading
   dimension = cols), else one per row. Run [i] starts at physical
   address [run_addr], at row-major index [i * run_len]. *)
let runs view ~rows ~cols = if view.ld = cols then 1 else rows
let run_len view ~rows ~cols = if view.ld = cols then rows * cols else cols
let run_addr view i = view.buf.phys + (4 * (view.offset_elems + (i * view.ld)))

(* The copies below charge what an element-by-element loop would — one
   address computation and one store or load per element — a cache line
   at a time: [Cpu.issue_run] per run of the view. They check the whole
   view against the buffer before touching anything, and move the data
   a run at a time through the bulk [Sim.Memory] transfers. *)
let charge_copy t view ~rows ~cols ~what cls =
  let last = view.offset_elems + ((rows - 1) * view.ld) + cols in
  if rows > 0 && cols > 0 && 4 * last > view.buf.buf_bytes then
    invalid_arg ("Api: " ^ what ^ " beyond the end of the buffer");
  let cpu = Platform.cpu t.platform in
  Sim.Cpu.issue_many cpu Sim.Cpu.Int_alu (rows * cols);
  let count = run_len view ~rows ~cols in
  for i = 0 to runs view ~rows ~cols - 1 do
    Sim.Cpu.issue_run cpu ~addr:(run_addr view i) ~count cls
  done

let copied_to_dev t dst ~rows ~cols =
  t.host_to_dev_bytes <- t.host_to_dev_bytes + (4 * rows * cols);
  bump_generation t dst.buf

let copied_to_host t ~rows ~cols = t.dev_to_host_bytes <- t.dev_to_host_bytes + (4 * rows * cols)

let host_to_dev t ~src ~dst =
  check_live "Api.host_to_dev" dst.buf;
  let rows = Mat.rows src and cols = Mat.cols src in
  charge_copy t dst ~rows ~cols ~what:"store" Sim.Cpu.Store;
  let memory = t.platform.Platform.memory and data = Mat.data src in
  let len = run_len dst ~rows ~cols in
  for i = 0 to runs dst ~rows ~cols - 1 do
    Sim.Memory.write_f32s memory (run_addr dst i) data ~pos:(i * len) ~len
  done;
  copied_to_dev t dst ~rows ~cols

let dev_to_host t ~src ~rows ~cols =
  check_live "Api.dev_to_host" src.buf;
  let out = Mat.create ~rows ~cols in
  charge_copy t src ~rows ~cols ~what:"load" Sim.Cpu.Load;
  let memory = t.platform.Platform.memory and data = Mat.data out in
  let len = run_len src ~rows ~cols in
  for i = 0 to runs src ~rows ~cols - 1 do
    Sim.Memory.read_f32s memory (run_addr src i) data ~pos:(i * len) ~len
  done;
  copied_to_host t ~rows ~cols;
  out

let host_to_dev_mem t ~src ~dst ~rows ~cols =
  check_live "Api.host_to_dev_mem" dst.buf;
  charge_copy t dst ~rows ~cols ~what:"store" Sim.Cpu.Store;
  let memory = t.platform.Platform.memory in
  let len = run_len dst ~rows ~cols in
  for i = 0 to runs dst ~rows ~cols - 1 do
    Sim.Memory.copy memory ~src:(src + (4 * i * len)) ~dst:(run_addr dst i) ~len:(4 * len)
  done;
  copied_to_dev t dst ~rows ~cols

let dev_to_host_mem t ~src ~dst ~rows ~cols =
  check_live "Api.dev_to_host_mem" src.buf;
  charge_copy t src ~rows ~cols ~what:"load" Sim.Cpu.Load;
  let memory = t.platform.Platform.memory in
  let len = run_len src ~rows ~cols in
  for i = 0 to runs src ~rows ~cols - 1 do
    Sim.Memory.copy memory ~src:(run_addr src i) ~dst:(dst + (4 * i * len)) ~len:(4 * len)
  done;
  copied_to_host t ~rows ~cols

(* Element offset of position (row, col) of op(M) within the physical
   matrix, honouring a transposition flag. *)
let op_offset ~trans ~ld ~row ~col = if trans then (col * ld) + row else (row * ld) + col

let launch_and_wait t job =
  t.launches <- t.launches + 1;
  Driver.launch t.driver job;
  Driver.await t.driver

let sgemm_untiled t ~op ~trans_a ~trans_b ~pin ~m ~n ~k ~alpha ~a ~b ~beta ~c =
  let pinned_buf = match pin with Regs.Pin_a -> a.buf | Regs.Pin_b -> b.buf in
  let job =
    {
      Regs.op;
      m;
      n;
      k;
      trans_a;
      trans_b;
      alpha;
      beta;
      a_addr = a.buf.virt + (4 * a.offset_elems);
      b_addr = b.buf.virt + (4 * b.offset_elems);
      c_addr = c.buf.virt + (4 * c.offset_elems);
      lda = a.ld;
      ldb = b.ld;
      ldc = c.ld;
      batch_count = 0;
      batch_desc_addr = 0;
      pin;
      generation = pinned_buf.generation;
    }
  in
  launch_and_wait t job

let xbar_config t =
  Tdo_pcm.Crossbar.config
    (Tdo_cimacc.Micro_engine.crossbar (Tdo_cimacc.Accel.engine t.platform.Platform.accel))

let subview v ~elems = { v with offset_elems = v.offset_elems + elems }

(* One batched launch; callers have validated liveness and fit. *)
let launch_batched t ~trans_a ~trans_b ~pin ~m ~n ~k ~alpha ~beta ~batch =
  let a0, b0, c0 = List.hd batch in
  let count = List.length batch in
  match malloc t ~bytes:(12 * count) with
  | Error reason -> Error reason
  | Ok scratch ->
      (* Stage physical descriptor triples; the host writes them like
         any other shared-memory data. *)
      List.iteri
        (fun i (a, b, c) ->
          let word j v =
            let cpu = Platform.cpu t.platform in
            Sim.Cpu.issue cpu Sim.Cpu.Int_alu;
            Sim.Cpu.issue_at cpu ~addr:(scratch.phys + (12 * i) + (4 * j)) Sim.Cpu.Store;
            Sim.Memory.write_i32 t.platform.Platform.memory
              (scratch.phys + (12 * i) + (4 * j))
              (Int32.of_int v)
          in
          word 0 (a.buf.phys + (4 * a.offset_elems));
          word 1 (b.buf.phys + (4 * b.offset_elems));
          word 2 (c.buf.phys + (4 * c.offset_elems)))
        batch;
      let pinned_buf = match pin with Regs.Pin_a -> a0.buf | Regs.Pin_b -> b0.buf in
      let job =
        {
          Regs.op = Regs.Gemm_batched;
          m;
          n;
          k;
          trans_a;
          trans_b;
          alpha;
          beta;
          a_addr = a0.buf.virt + (4 * a0.offset_elems);
          b_addr = b0.buf.virt + (4 * b0.offset_elems);
          c_addr = c0.buf.virt + (4 * c0.offset_elems);
          lda = a0.ld;
          ldb = b0.ld;
          ldc = c0.ld;
          batch_count = count;
          batch_desc_addr = scratch.virt;
          pin;
          generation = pinned_buf.generation;
        }
      in
      let result = launch_and_wait t job in
      free t scratch;
      result

let sgemm t ?(trans_a = false) ?(trans_b = false) ?(pin = Regs.Pin_a) ~m ~n ~k ~alpha ~a ~b
    ~beta ~c () =
  check_live "Api.sgemm" a.buf;
  check_live "Api.sgemm" b.buf;
  check_live "Api.sgemm" c.buf;
  t.gemm_calls <- t.gemm_calls + 1;
  let xbar = xbar_config t in
  let xbar_rows = xbar.Tdo_pcm.Crossbar.rows and xbar_cols = xbar.Tdo_pcm.Crossbar.cols in
  let tile_k = min k xbar_rows in
  let fits_untouched =
    k <= xbar_rows && (match pin with Regs.Pin_a -> m <= xbar_cols | Regs.Pin_b -> n <= xbar_cols)
  in
  let outer_total = match pin with Regs.Pin_a -> m | Regs.Pin_b -> n in
  let tile_outer_uniform = min outer_total xbar_cols in
  if fits_untouched then
    sgemm_untiled t ~op:Regs.Gemm ~trans_a ~trans_b ~pin ~m ~n ~k ~alpha ~a ~b ~beta ~c
  else if k <= xbar_rows && outer_total mod tile_outer_uniform = 0 then begin
    (* Only the pinned dimension overflows and it splits into uniform
       tiles: one batched launch (one ioctl, one cache flush) whose
       entries are the tiles. *)
    let tiles = outer_total / tile_outer_uniform in
    let entry idx =
      let o0 = idx * tile_outer_uniform in
      match pin with
      | Regs.Pin_a ->
          ( subview a ~elems:(op_offset ~trans:trans_a ~ld:a.ld ~row:o0 ~col:0),
            b,
            subview c ~elems:(o0 * c.ld) )
      | Regs.Pin_b ->
          ( a,
            subview b ~elems:(op_offset ~trans:trans_b ~ld:b.ld ~row:0 ~col:o0),
            subview c ~elems:o0 )
    in
    let batch = List.init tiles entry in
    let tm, tn =
      match pin with
      | Regs.Pin_a -> (tile_outer_uniform, n)
      | Regs.Pin_b -> (m, tile_outer_uniform)
    in
    launch_batched t ~trans_a ~trans_b ~pin ~m:tm ~n:tn ~k ~alpha ~beta ~batch
  end
  else begin
    (* General fallback: decompose into exact-fit tiles, accumulating
       along k with beta folded into the first k-tile. *)
    let rec loop_outer o0 acc =
      let outer_total = match pin with Regs.Pin_a -> m | Regs.Pin_b -> n in
      if o0 >= outer_total || Result.is_error acc then acc
      else begin
        let tile_outer = min (outer_total - o0) xbar_cols in
        let rec loop_k k0 acc =
          if k0 >= k || Result.is_error acc then acc
          else begin
            let tk = min (k - k0) tile_k in
            let beta' = if k0 = 0 then beta else 1.0 in
            let result =
              match pin with
              | Regs.Pin_a ->
                  let a' = subview a ~elems:(op_offset ~trans:trans_a ~ld:a.ld ~row:o0 ~col:k0) in
                  let b' = subview b ~elems:(op_offset ~trans:trans_b ~ld:b.ld ~row:k0 ~col:0) in
                  let c' = subview c ~elems:(o0 * c.ld) in
                  sgemm_untiled t ~op:Regs.Gemm ~trans_a ~trans_b ~pin ~m:tile_outer ~n ~k:tk
                    ~alpha ~a:a' ~b:b' ~beta:beta' ~c:c'
              | Regs.Pin_b ->
                  let a' = subview a ~elems:(op_offset ~trans:trans_a ~ld:a.ld ~row:0 ~col:k0) in
                  let b' = subview b ~elems:(op_offset ~trans:trans_b ~ld:b.ld ~row:k0 ~col:o0) in
                  let c' = subview c ~elems:o0 in
                  sgemm_untiled t ~op:Regs.Gemm ~trans_a ~trans_b ~pin ~m ~n:tile_outer ~k:tk
                    ~alpha ~a:a' ~b:b' ~beta:beta' ~c:c'
            in
            loop_k (k0 + tk) result
          end
        in
        loop_outer (o0 + tile_outer) (loop_k 0 acc)
      end
    in
    loop_outer 0 (Ok ())
  end

let sgemv t ?(trans_a = false) ~m ~k ~alpha ~a ~x ~beta ~y () =
  check_live "Api.sgemv" a.buf;
  check_live "Api.sgemv" x.buf;
  check_live "Api.sgemv" y.buf;
  t.gemv_calls <- t.gemv_calls + 1;
  let xbar = xbar_config t in
  if k <= xbar.Tdo_pcm.Crossbar.rows && m <= xbar.Tdo_pcm.Crossbar.cols then
    sgemm_untiled t ~op:Regs.Gemv ~trans_a ~trans_b:false ~pin:Regs.Pin_a ~m ~n:1 ~k ~alpha ~a
      ~b:x ~beta ~c:y
  else sgemm t ~trans_a ~pin:Regs.Pin_a ~m ~n:1 ~k ~alpha ~a ~b:x ~beta ~c:y ()

let gemm_batched t ?(trans_a = false) ?(trans_b = false) ?(pin = Regs.Pin_a) ~m ~n ~k ~alpha
    ~beta ~batch () =
  (match batch with [] -> invalid_arg "Api.gemm_batched: empty batch" | _ :: _ -> ());
  List.iter
    (fun (a, b, c) ->
      check_live "Api.gemm_batched" a.buf;
      check_live "Api.gemm_batched" b.buf;
      check_live "Api.gemm_batched" c.buf)
    batch;
  t.batched_calls <- t.batched_calls + 1;
  let xbar = xbar_config t in
  let xbar_rows = xbar.Tdo_pcm.Crossbar.rows and xbar_cols = xbar.Tdo_pcm.Crossbar.cols in
  let pinned_cols = match pin with Regs.Pin_a -> m | Regs.Pin_b -> n in
  if k > xbar_rows || pinned_cols > xbar_cols then
    Error
      (Printf.sprintf "Api.gemm_batched: %dx%d pinned operand exceeds the %dx%d crossbar"
         k pinned_cols xbar_rows xbar_cols)
  else launch_batched t ~trans_a ~trans_b ~pin ~m ~n ~k ~alpha ~beta ~batch

let dev_im2col t ~src ~src_rows ~src_cols ~dst ~kh ~kw ~oh ~ow =
  check_live "Api.dev_im2col" src.buf;
  check_live "Api.dev_im2col" dst.buf;
  if kh <= 0 || kw <= 0 || oh <= 0 || ow <= 0 then
    invalid_arg "Api.dev_im2col: non-positive geometry";
  if oh + kh - 1 > src_rows || ow + kw - 1 > src_cols then
    invalid_arg "Api.dev_im2col: window exceeds the source";
  if dst.ld < kh * kw then invalid_arg "Api.dev_im2col: destination rows too narrow";
  let src_at r c = src.buf.phys + (4 * (src.offset_elems + (r * src.ld) + c)) in
  let dst_at r c = dst.buf.phys + (4 * (dst.offset_elems + (r * dst.ld) + c)) in
  let src_first = src_at 0 0 and src_end = src_at (oh + kh - 2) (ow + kw - 2) + 4 in
  if src_end > src.buf.phys + src.buf.buf_bytes then
    invalid_arg "Api.dev_im2col: window leaves the source buffer";
  let dst_first = dst_at 0 0 and dst_end = dst_at ((oh * ow) - 1) ((kh * kw) - 1) + 4 in
  if dst_end > dst.buf.phys + dst.buf.buf_bytes then
    invalid_arg "Api.dev_im2col: destination too small";
  if src_first < dst_end && dst_first < src_end then
    invalid_arg "Api.dev_im2col: source and destination overlap";
  Tdo_cimacc.Micro_engine.im2col
    (Tdo_cimacc.Accel.engine t.platform.Platform.accel)
    ~src:src_first ~src_ld:src.ld ~dst:dst_first ~dst_ld:dst.ld ~kh ~kw ~oh ~ow;
  (* timing: the engine's DMA moves the gathered bytes in and the packed
     matrix out; the host pays one ioctl and waits *)
  let bytes = 4 * oh * ow * kh * kw in
  let dma = Tdo_cimacc.Accel.dma t.platform.Platform.accel in
  let latency = Sim.Dma.charge dma ~bytes + Sim.Dma.charge dma ~bytes in
  let cpu = Platform.cpu t.platform in
  Sim.Cpu.issue_many cpu Sim.Cpu.Int_alu 200;
  Sim.Cpu.stall_ps cpu latency;
  bump_generation t dst.buf
