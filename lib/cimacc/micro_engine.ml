module Sim = Tdo_sim
module Quant = Tdo_linalg.Quant
module Abft = Tdo_linalg.Abft
module Crossbar = Tdo_pcm.Crossbar

type config = {
  xbar : Crossbar.config;
  tiles : int;
  decode_latency_ps : Sim.Time_base.ps;
  compute_latency_ps : Sim.Time_base.ps;
  min_compute_latency_ps : Sim.Time_base.ps;
  write_latency_per_row_ps : Sim.Time_base.ps;
  alu_latency_ps : Sim.Time_base.ps;
  double_buffering : bool;
  abft : bool;
}

let default_config =
  {
    xbar = Crossbar.default_config;
    tiles = 1;
    decode_latency_ps = 100 * Sim.Time_base.ps_per_ns;
    compute_latency_ps = Sim.Time_base.ps_per_us;
    min_compute_latency_ps = 100 * Sim.Time_base.ps_per_ns;
    write_latency_per_row_ps = 25 * Sim.Time_base.ps_per_us / 10;
    alu_latency_ps = 2 * Sim.Time_base.ps_per_ns;
    double_buffering = true;
    abft = false;
  }

type counters = {
  jobs : int;
  gemv_jobs : int;
  gemm_jobs : int;
  batched_jobs : int;
  streamed_vectors : int;
  programming_skipped : int;
  busy_ps : Sim.Time_base.ps;
  abft_checks : int;
  abft_mismatches : int;
}

(* Internal counter storage is a record of mutable fields: the streamed
   loop bumps [streamed_vectors] (and under ABFT [abft_checks]) once per
   vector, and a functional [{ c with ... }] update there would allocate
   a fresh ten-field record per vector. The public immutable view is
   built on demand. *)
type counters_mut = {
  mutable jobs_m : int;
  mutable gemv_jobs_m : int;
  mutable gemm_jobs_m : int;
  mutable batched_jobs_m : int;
  mutable streamed_vectors_m : int;
  mutable programming_skipped_m : int;
  mutable busy_ps_m : Sim.Time_base.ps;
  mutable abft_checks_m : int;
  mutable abft_mismatches_m : int;
}

(* A tile's latch: the operand programmed into it, so that a launch
   pinning the same operand again skips the programming. Programming
   rewrites the fields in place. *)
type pinned = {
  mutable valid : bool;  (** false before any programming and once invalidated *)
  mutable pin_addr : int;
  mutable pin_rows : int;
  mutable pin_cols : int;
  mutable pin_trans : bool;  (** orientation of the programmed operand *)
  mutable pin_generation : int;
  mutable pin_scale : float;
  mutable pin_check : int array;  (** ABFT per-row checksums of the programmed codes *)
}

type t = {
  config : config;
  dma : Sim.Dma.t;
  xbars : Crossbar.t array;
  digital : Digital_logic.t;
  mutable timeline : Timeline.t option;
      (** the attached log, if any. Each recording site matches on it
          and builds its detail inside the [Some] branch: this compiler
          does not sink allocations, so a helper taking a built detail
          would allocate a block per streamed vector on every device. *)
  pinned : pinned array;  (** per tile *)
  busy_until : Sim.Time_base.ps array;  (** per tile *)
  c : counters_mut;
  (* Buffers of the streamed phase, grown to the largest block seen and
     reused across blocks and launches; only a prefix of each is used,
     and a block writes every element it reads. [xs] holds the block's
     streamed operand as its memory rows lie, [codes] its quantised
     vectors one after another and [scales] each vector's combined
     scale; [raw] holds the column sums vector after vector, and
     [c_old]/[result] the block's old and new C slices as C's memory
     rows lie. *)
  mutable xs : float array;
  mutable codes : int array;
  mutable scales : float array;
  mutable raw : int array;
  mutable c_old : float array;
  mutable result : float array;
  mutable wbuf : float array;
  mutable wcodes : int array;
      (** the pinned operand as its memory rows lie, and its codes
          row-major, while it is programmed; grown to the largest
          operand seen and only their first [rows * cols] elements are
          used *)
  mutable last_abft_fault : (int * (int * int * int * int)) option;
      (** (tile, active region) of the most recent checksum mismatch *)
}

let create ?(config = default_config) ?(seed = 0) ~dma () =
  if config.tiles <= 0 then invalid_arg "Micro_engine.create: need at least one tile";
  {
    config;
    dma;
    xbars =
      (* distinct, reproducible noise stream per tile, derived from the
         engine seed *)
      Array.init config.tiles (fun tile ->
          Crossbar.create ~config:config.xbar ~seed:((seed * 1_000_003) + tile) ());
    digital = Digital_logic.create ();
    timeline = None;
    pinned =
      Array.init config.tiles (fun _ ->
          {
            valid = false;
            pin_addr = 0;
            pin_rows = 0;
            pin_cols = 0;
            pin_trans = false;
            pin_generation = 0;
            pin_scale = 0.0;
            pin_check = [||];
          });
    busy_until = Array.make config.tiles 0;
    c =
      {
        jobs_m = 0;
        gemv_jobs_m = 0;
        gemm_jobs_m = 0;
        batched_jobs_m = 0;
        streamed_vectors_m = 0;
        programming_skipped_m = 0;
        busy_ps_m = 0;
        abft_checks_m = 0;
        abft_mismatches_m = 0;
      };
    xs = [||];
    codes = [||];
    scales = [||];
    raw = [||];
    c_old = [||];
    result = [||];
    wbuf = [||];
    wcodes = [||];
    last_abft_fault = None;
  }

let crossbars t = t.xbars
let crossbar t = t.xbars.(0)

let total_crossbar_counters t =
  Array.fold_left
    (fun (acc : Crossbar.counters) xb ->
      let c = Crossbar.counters xb in
      {
        Crossbar.cell_writes = acc.Crossbar.cell_writes + c.Crossbar.cell_writes;
        logical_writes = acc.Crossbar.logical_writes + c.Crossbar.logical_writes;
        write_bytes = acc.Crossbar.write_bytes + c.Crossbar.write_bytes;
        gemv_ops = acc.Crossbar.gemv_ops + c.Crossbar.gemv_ops;
        macs = acc.Crossbar.macs + c.Crossbar.macs;
        input_buffer_bytes = acc.Crossbar.input_buffer_bytes + c.Crossbar.input_buffer_bytes;
        output_buffer_bytes = acc.Crossbar.output_buffer_bytes + c.Crossbar.output_buffer_bytes;
      })
    (Crossbar.counters t.xbars.(0))
    (Array.sub t.xbars 1 (Array.length t.xbars - 1))

let sum_tiles t f =
  let sum = ref 0 in
  for i = 0 to Array.length t.xbars - 1 do
    sum := !sum + f t.xbars.(i)
  done;
  !sum

let total_adc_conversions t =
  Array.fold_left (fun acc xb -> acc + Tdo_pcm.Adc.conversions (Crossbar.adc xb)) 0 t.xbars

let digital t = t.digital
let record_timeline t =
  let tl = Timeline.create () in
  t.timeline <- Some tl;
  tl

let counters t =
  {
    jobs = t.c.jobs_m;
    gemv_jobs = t.c.gemv_jobs_m;
    gemm_jobs = t.c.gemm_jobs_m;
    batched_jobs = t.c.batched_jobs_m;
    streamed_vectors = t.c.streamed_vectors_m;
    programming_skipped = t.c.programming_skipped_m;
    busy_ps = t.c.busy_ps_m;
    abft_checks = t.c.abft_checks_m;
    abft_mismatches = t.c.abft_mismatches_m;
  }

let abft_checks t = t.c.abft_checks_m
let abft_mismatches t = t.c.abft_mismatches_m
let last_abft_fault t = t.last_abft_fault
let clear_abft_fault t = t.last_abft_fault <- None

let invalidate_pinned t = Array.iter (fun p -> p.valid <- false) t.pinned

let grow_floats n cur = if Array.length cur >= n then cur else Array.make n 0.0
let grow_ints n cur = if Array.length cur >= n then cur else Array.make n 0

(* The functional side of a DMA transfer moves f32 values between
   memory and the engine's float buffers, whole memory rows at a time:
   [rows] rows of [cols] elements each, [ld] elements apart, to or from
   [buf] row-major from 0. A packed window ([ld = cols]) is one run.
   The data end as after the same transfer made one element at a time.
   The timing side is one descriptor per transfer, whatever its layout
   ([Dma.charge]). *)

let read_rows mem ~addr ~ld ~rows ~cols buf =
  if ld = cols then Sim.Memory.read_f32s mem addr buf ~pos:0 ~len:(rows * cols)
  else
    for r = 0 to rows - 1 do
      Sim.Memory.read_f32s mem (addr + (4 * r * ld)) buf ~pos:(r * cols) ~len:cols
    done

let write_rows mem ~addr ~ld ~rows ~cols buf =
  if ld = cols then Sim.Memory.write_f32s mem addr buf ~pos:0 ~len:(rows * cols)
  else
    for r = 0 to rows - 1 do
      Sim.Memory.write_f32s mem (addr + (4 * r * ld)) buf ~pos:(r * cols) ~len:cols
    done

(* Bytes from a window's first element to just past its last: [rows]
   memory rows of [cols] f32 each, [ld] elements apart. *)
let span ~ld ~rows ~cols = 4 * (((rows - 1) * ld) + cols)

(* Largest absolute value of [v.(0 .. len-1)], NaN if any element is
   NaN (a [Float.max] fold from 0). *)
let[@inline] max_abs_prefix v len =
  let m = ref 0.0 in
  for i = 0 to len - 1 do
    let a = Float.abs (Array.unsafe_get v i) in
    if a > !m || Float.is_nan a then m := a
  done;
  !m

(* Where a launch's streamed vectors and C slices lie. Pin_a streams
   the n columns of op(B) and produces columns of C; Pin_b streams the
   m rows of op(A) and produces rows of C. Vector [idx]'s element [i]
   is at [x_addr + 4 * (idx * x_ld + i)] when the vectors are memory
   rows ([x_rows]: rows of A under Pin_b, rows of physical B under
   Pin_a with trans_b), else at [x_addr + 4 * (i * x_ld + idx)].
   Element [e] of C's slice [idx] is at [c_addr + 4 * (idx * ldc + e)]
   when the slices are C's rows ([c_rows], under Pin_b), else at
   [c_addr + 4 * (e * ldc + idx)]. *)
let stream_count (job : Context_regs.job) =
  match job.pin with Context_regs.Pin_a -> job.n | Context_regs.Pin_b -> job.m

let out_len (job : Context_regs.job) =
  match job.pin with Context_regs.Pin_a -> job.m | Context_regs.Pin_b -> job.n

let x_rows (job : Context_regs.job) =
  match (job.pin, job.trans_a, job.trans_b) with
  | Context_regs.Pin_b, false, _ | Context_regs.Pin_a, _, true -> true
  | Context_regs.Pin_b, true, _ | Context_regs.Pin_a, _, false -> false

let x_addr (job : Context_regs.job) ~a_addr ~b_addr =
  match job.pin with Context_regs.Pin_a -> b_addr | Context_regs.Pin_b -> a_addr

let x_ld (job : Context_regs.job) =
  match job.pin with Context_regs.Pin_a -> job.ldb | Context_regs.Pin_b -> job.lda

let c_rows (job : Context_regs.job) =
  match job.pin with Context_regs.Pin_a -> false | Context_regs.Pin_b -> true

(* The functional pass over the block of [count] consecutive vectors
   from [first]: read the block's streamed operand and, when beta <> 0,
   its old C slices; quantise each vector; run every GEMV in one
   crossbar call; verify and finish each vector; write the block's C
   slices. A block's reads all come before its writes, so a block of
   more than one vector needs C disjoint from the streamed operand and
   C's slices disjoint from each other ([run_single] decides). *)
let stream_block t (job : Context_regs.job) ~tile ~a_addr ~b_addr ~c_addr ~scale_w ~pin_check
    ~first ~count =
  let mem = Sim.Dma.memory t.dma and xbar = t.xbars.(tile) in
  let k = job.k and out_len = out_len job and ldc = job.ldc in
  let xs = t.xs and codes = t.codes and scales = t.scales and raw = t.raw in
  let x_rows = x_rows job and x_addr = x_addr job ~a_addr ~b_addr and x_ld = x_ld job in
  (* vector [v]'s element [i] is [xs.(v * xv + i * xi)] *)
  let xv = if x_rows then k else 1 and xi = if x_rows then 1 else count in
  if x_rows then read_rows mem ~addr:(x_addr + (4 * first * x_ld)) ~ld:x_ld ~rows:count ~cols:k xs
  else read_rows mem ~addr:(x_addr + (4 * first)) ~ld:x_ld ~rows:k ~cols:count xs;
  (* The block's C window starts at [c_first] and has [c_mem_rows]
     memory rows of [c_mem_cols]; slice [v]'s element [e] is at
     [v * cv + e * ce] in [c_old] and [result]. *)
  let c_rows = c_rows job in
  let c_first = c_addr + (4 * first * if c_rows then ldc else 1) in
  let c_mem_rows = if c_rows then count else out_len
  and c_mem_cols = if c_rows then out_len else count in
  let cv = if c_rows then out_len else 1 and ce = if c_rows then 1 else count in
  let c_old =
    if job.beta = 0.0 then None
    else begin
      read_rows mem ~addr:c_first ~ld:ldc ~rows:c_mem_rows ~cols:c_mem_cols t.c_old;
      Some t.c_old
    end
  in
  for v = 0 to count - 1 do
    let x0 = v * xv in
    let m = ref 0.0 in
    for i = 0 to k - 1 do
      let a = Float.abs (Array.unsafe_get xs (x0 + (i * xi))) in
      if a > !m then m := a
    done;
    let scale_x = Quant.scale_for ~bits:8 ~max_abs:!m in
    let c0 = v * k in
    for i = 0 to k - 1 do
      Array.unsafe_set codes (c0 + i)
        (Quant.quantize_scaled ~bits:8 ~scale:scale_x (Array.unsafe_get xs (x0 + (i * xi))))
    done;
    Array.unsafe_set scales v (scale_w *. scale_x)
  done;
  Crossbar.gemv_block xbar codes ~vectors:count ~out:raw;
  if t.config.abft then
    for v = 0 to count - 1 do
      t.c.abft_checks_m <- t.c.abft_checks_m + 1;
      match
        Abft.verify ~row_sums:pin_check ~input:codes ~input_pos:(v * k) ~output:raw
          ~output_pos:(v * out_len) ~output_len:out_len
      with
      | Abft.Pass -> ()
      | Abft.Fail _ ->
          t.c.abft_mismatches_m <- t.c.abft_mismatches_m + 1;
          let region =
            match Crossbar.active_region xbar with
            | Some r -> r
            | None -> (0, 0, 0, 0)
          in
          t.last_abft_fault <- Some (tile, region)
    done;
  Digital_logic.postprocess_into t.digital ~alpha:job.alpha ~beta:job.beta ~scales ~raw ~c_old
    ~out:t.result ~passes:count ~len:out_len ~slice_stride:cv ~elem_stride:ce;
  write_rows mem ~addr:c_first ~ld:ldc ~rows:c_mem_rows ~cols:c_mem_cols t.result

(* One GEMM (or GEMV, n = 1) with explicit operand addresses; the
   batched path calls this once per descriptor. Returns the finish
   time. [blocked] lets a launch run as one block when that is exact;
   without it every vector is its own block. *)
let run_single t (job : Context_regs.job) ~blocked ~tile ~a_addr ~b_addr ~c_addr ~start =
  let xbar = t.xbars.(tile) in
  let { Context_regs.m; n; k; trans_a; trans_b; beta; lda; ldb; ldc; pin; generation; _ }
      =
    job
  in
  let cfg = t.config in
  let mem = Sim.Dma.memory t.dma in
  let cursor = ref start in
  (* -- decode ------------------------------------------------------ *)
  cursor := !cursor + cfg.decode_latency_ps;
  (* -- pinned operand: fetch, quantise, program -------------------- *)
  let pin_addr = match pin with Context_regs.Pin_a -> a_addr | Context_regs.Pin_b -> b_addr in
  (* W is what goes into the crossbar: op(A)^T (k x m) or op(B) (k x n). *)
  let w_rows = k in
  let w_cols = match pin with Context_regs.Pin_a -> m | Context_regs.Pin_b -> n in
  if w_rows > cfg.xbar.Crossbar.rows || w_cols > cfg.xbar.Crossbar.cols then
    Error
      (Printf.sprintf "operand %dx%d exceeds the %dx%d crossbar" w_rows w_cols
         cfg.xbar.Crossbar.rows cfg.xbar.Crossbar.cols)
  else begin
    let pin_trans = match pin with Context_regs.Pin_a -> trans_a | Context_regs.Pin_b -> trans_b in
    let p = t.pinned.(tile) in
    if
      p.valid && p.pin_addr = pin_addr && p.pin_rows = w_rows && p.pin_cols = w_cols
      && p.pin_trans = pin_trans
      && p.pin_generation = generation
    then t.c.programming_skipped_m <- t.c.programming_skipped_m + 1
    else begin
      (* Physical layout of A is (m x k) unless transposed, of B
         (k x n); W = op(A)^T or op(B) is stored transposed for an
         untransposed A and for a transposed B. Memory holds W, or
         W^T when [transposed], row-major with leading dimension
         [ld]; its memory rows are read in bulk and charged as one
         [w_rows * w_cols] descriptor. *)
      let transposed, ld =
        match pin with
        | Context_regs.Pin_a -> (not trans_a, lda)
        | Context_regs.Pin_b -> (trans_b, ldb)
      in
      let size = w_rows * w_cols in
      let w = grow_floats size t.wbuf in
      t.wbuf <- w;
      let codes = grow_ints size t.wcodes in
      t.wcodes <- codes;
      let rows, cols = if transposed then (w_cols, w_rows) else (w_rows, w_cols) in
      read_rows mem ~addr:pin_addr ~ld ~rows ~cols w;
      let fill_lat = Sim.Dma.charge t.dma ~bytes:(4 * size) in
      (match t.timeline with
      | None -> ()
      | Some tl ->
          Timeline.record tl ~at:!cursor ~phase:Timeline.Dma_fill
            (Timeline.Pinned_operand { rows = w_rows; cols = w_cols }));
      cursor := !cursor + fill_lat;
      let scale = Quant.scale_for ~bits:8 ~max_abs:(max_abs_prefix w size) in
      (* W(i, j) is code [i * w_cols + j]; it was read from memory row
         i, or row j when transposed *)
      if transposed then
        for r = 0 to rows - 1 do
          for c = 0 to cols - 1 do
            Array.unsafe_set codes ((c * w_cols) + r)
              (Quant.quantize_scaled ~bits:8 ~scale (Array.unsafe_get w ((r * cols) + c)))
          done
        done
      else
        for i = 0 to size - 1 do
          Array.unsafe_set codes i (Quant.quantize_scaled ~bits:8 ~scale (Array.unsafe_get w i))
        done;
      (match t.timeline with
      | None -> ()
      | Some tl ->
          Timeline.record tl ~at:!cursor ~phase:Timeline.Program_crossbar
            (Timeline.Program_tile { tile; rows = w_rows }));
      Crossbar.program_flat xbar ~rows:w_rows ~cols:w_cols codes;
      cursor := !cursor + (w_rows * cfg.write_latency_per_row_ps);
      (* The checksums describe what the host {e asked} the crossbar to
         store; a stuck cell diverges from them, which is exactly what
         the per-GEMV verify catches. *)
      p.pin_check <-
        (if cfg.abft then Abft.row_sums_flat ~rows:w_rows ~cols:w_cols codes else [||]);
      p.valid <- true;
      p.pin_addr <- pin_addr;
      p.pin_rows <- w_rows;
      p.pin_cols <- w_cols;
      p.pin_trans <- pin_trans;
      p.pin_generation <- generation;
      p.pin_scale <- scale
    end;
    let scale_w = p.pin_scale and pin_check = p.pin_check in
    (* -- streamed phase -------------------------------------------- *)
    let stream_count = stream_count job and out_len = out_len job in
    let x_rows = x_rows job and x_addr = x_addr job ~a_addr ~b_addr and x_ld = x_ld job in
    let c_rows = c_rows job in
    (* The whole launch is one block when its reads cannot see its
       writes and nothing can fail part-way: C's slices are disjoint
       from each other (ldc >= n), C's window is disjoint from the
       streamed operand's, and both lie in memory. Any other launch
       runs one vector per block, in the order of one vector at a
       time. *)
    let blocked =
      blocked && ldc >= n
      &&
      let x_span =
        if x_rows then span ~ld:x_ld ~rows:stream_count ~cols:k
        else span ~ld:x_ld ~rows:k ~cols:stream_count
      in
      let c_span =
        if c_rows then span ~ld:ldc ~rows:stream_count ~cols:out_len
        else span ~ld:ldc ~rows:out_len ~cols:stream_count
      in
      let limit = (Sim.Memory.config mem).Sim.Memory.size_bytes in
      x_addr >= 0 && x_addr + x_span <= limit && c_addr >= 0 && c_addr + c_span <= limit
      && (x_addr + x_span <= c_addr || c_addr + c_span <= x_addr)
    in
    let block = if blocked then stream_count else 1 in
    t.xs <- grow_floats (block * k) t.xs;
    t.codes <- grow_ints (block * k) t.codes;
    t.scales <- grow_floats block t.scales;
    t.raw <- grow_ints (block * out_len) t.raw;
    t.result <- grow_floats (block * out_len) t.result;
    if beta <> 0.0 then t.c_old <- grow_floats (block * out_len) t.c_old;
    (* The timing side: every vector moves the same bytes, so one
       descriptor's latency per kind of transfer serves the launch. *)
    let vector_lat = Sim.Dma.charge t.dma ~bytes:(4 * k) in
    let slice_lat = Sim.Dma.charge t.dma ~bytes:(4 * out_len) in
    let c_fill_lat = if beta = 0.0 then 0 else slice_lat in
    (* integration time scales with the number of active wordlines *)
    let gemv_latency =
      max cfg.min_compute_latency_ps (cfg.compute_latency_ps * k / cfg.xbar.Crossbar.rows)
    in
    (* Consecutive streamed vectors that are contiguous rows in memory
       are fetched in row-buffer-sized bursts: one DMA descriptor per
       burst instead of one per vector. Results collect in the output
       buffer and drain one DMA descriptor per buffer-full, mirroring
       the input bursting. [in_burst] and [in_store] are the current
       vector's place in its fill and its store burst. *)
    let row_buffer_bytes = 1536 in
    let burst = if x_rows then max 1 (row_buffer_bytes / (4 * k)) else 1 in
    let store_burst = max 1 (row_buffer_bytes / (4 * out_len)) in
    let in_burst = ref 0 and in_store = ref 0 in
    let fill_channel = ref !cursor in
    let compute_channel = ref !cursor in
    let first = ref 0 in
    while !first < stream_count do
      let count = Int.min block (stream_count - !first) in
      stream_block t job ~tile ~a_addr ~b_addr ~c_addr ~scale_w ~pin_check ~first:!first ~count;
      for idx = !first to !first + count - 1 do
        if not cfg.double_buffering then fill_channel := Int.max !fill_channel !compute_channel;
        (match t.timeline with
        | None -> ()
        | Some tl ->
            Timeline.record tl ~at:!fill_channel ~phase:Timeline.Dma_fill (Timeline.Vector idx));
        (* burst accounting: the descriptor fetched at the head of a
           burst covers the next [burst-1] vectors; their payload time
           is part of that burst's latency *)
        let fill_lat =
          if !in_burst = 0 then
            let vectors = Int.min burst (stream_count - idx) in
            vector_lat + ((vectors - 1) * 4 * k * Sim.Time_base.ps_per_ns / 5)
            (* ~payload share at bus bandwidth for the rest of the burst *)
          else 0
        in
        in_burst := if !in_burst = burst - 1 then 0 else !in_burst + 1;
        fill_channel := !fill_channel + fill_lat + c_fill_lat;
        compute_channel := Int.max !compute_channel !fill_channel;
        (match t.timeline with
        | None -> ()
        | Some tl ->
            Timeline.record tl ~at:!compute_channel ~phase:Timeline.Compute (Timeline.Gemv idx));
        compute_channel := !compute_channel + gemv_latency;
        if cfg.abft then begin
          (* one extra dot product (k MACs) plus the output sum (out_len
             adds), on the digital ALU *)
          (match t.timeline with
          | None -> ()
          | Some tl ->
              Timeline.record tl ~at:!compute_channel ~phase:Timeline.Accumulate
                (Timeline.Abft_verify idx));
          compute_channel := !compute_channel + ((k + out_len) * cfg.alu_latency_ps)
        end;
        (match t.timeline with
        | None -> ()
        | Some tl ->
            Timeline.record tl ~at:!compute_channel ~phase:Timeline.Accumulate
              (Timeline.Epilogue idx));
        compute_channel := !compute_channel + (out_len * cfg.alu_latency_ps);
        (match t.timeline with
        | None -> ()
        | Some tl ->
            Timeline.record tl ~at:!compute_channel ~phase:Timeline.Store_result
              (Timeline.Slice idx));
        let store_lat =
          if !in_store = store_burst - 1 || idx = stream_count - 1 then
            slice_lat
            + ((Int.min store_burst (idx + 1) - 1) * 4 * out_len * Sim.Time_base.ps_per_ns / 5)
          else 0
        in
        in_store := if !in_store = store_burst - 1 then 0 else !in_store + 1;
        compute_channel := !compute_channel + store_lat
      done;
      t.c.streamed_vectors_m <- t.c.streamed_vectors_m + count;
      first := !first + count
    done;
    Ok (Int.max !cursor !compute_channel)
  end

(* The gather stages the source window and the patch matrix in the
   launch buffers [xs] and [result]: no launch is in flight while it
   runs. *)
let im2col t ~src ~src_ld ~dst ~dst_ld ~kh ~kw ~oh ~ow =
  let mem = Sim.Dma.memory t.dma in
  let window = span ~ld:src_ld ~rows:(oh + kh - 1) ~cols:(ow + kw - 1) / 4 in
  let xs = grow_floats window t.xs in
  t.xs <- xs;
  let kk = kh * kw in
  let patches = grow_floats (oh * ow * kk) t.result in
  t.result <- patches;
  Sim.Memory.read_f32s mem src xs ~pos:0 ~len:window;
  for i = 0 to oh - 1 do
    for j = 0 to ow - 1 do
      let row = ((i * ow) + j) * kk in
      for p = 0 to kh - 1 do
        let from = ((i + p) * src_ld) + j and into = row + (p * kw) in
        for q = 0 to kw - 1 do
          Array.unsafe_set patches (into + q) (Array.unsafe_get xs (from + q))
        done
      done
    done
  done;
  write_rows mem ~addr:dst ~ld:dst_ld ~rows:(oh * ow) ~cols:kk patches

let read_batch_descriptors t ~addr ~count =
  let data, latency = Sim.Dma.read t.dma ~addr ~bytes:(12 * count) in
  let entry i =
    let word j = Int32.to_int (Bytes.get_int32_le data ((12 * i) + (4 * j))) land 0xFFFFFFFF in
    (word 0, word 1, word 2)
  in
  (List.init count entry, latency)

(* The operand a job would pin with the given A and B addresses — its
   address, its columns in the crossbar and its orientation; its rows
   are [k] — for tile affinity. *)
let pin_addr (job : Context_regs.job) ~a_addr ~b_addr =
  match job.pin with Context_regs.Pin_a -> a_addr | Context_regs.Pin_b -> b_addr

let pin_cols (job : Context_regs.job) =
  match job.pin with Context_regs.Pin_a -> job.m | Context_regs.Pin_b -> job.n

let pin_trans (job : Context_regs.job) =
  match job.pin with Context_regs.Pin_a -> job.trans_a | Context_regs.Pin_b -> job.trans_b

(* The first tile whose latch holds [job]'s operand at [addr], or -1. *)
let tile_holding t (job : Context_regs.job) ~addr =
  let cols = pin_cols job and trans = pin_trans job in
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < Array.length t.pinned do
    let p = t.pinned.(!i) in
    if
      p.valid && p.pin_addr = addr && p.pin_rows = job.k && p.pin_cols = cols
      && p.pin_trans = trans && p.pin_generation = job.generation
    then found := !i;
    incr i
  done;
  !found

(* The first tile of least [busy]. *)
let least_busy_tile busy =
  let best = ref 0 in
  for i = 1 to Array.length busy - 1 do
    if busy.(i) < busy.(!best) then best := i
  done;
  !best

let tile_for t job ~addr ~busy =
  match tile_holding t job ~addr with -1 -> least_busy_tile busy | tile -> tile

let run t (job : Context_regs.job) ~blocked ~start =
  (match t.timeline with
  | None -> ()
  | Some tl ->
      Timeline.record tl ~at:start ~phase:Timeline.Trigger
        (Timeline.Job
           {
             op =
               (match job.Context_regs.op with
               | Context_regs.Gemv -> 0
               | Context_regs.Gemm -> 1
               | Context_regs.Gemm_batched -> 2);
             m = job.Context_regs.m;
             n = job.Context_regs.n;
             k = job.Context_regs.k;
           }));
  let result =
    match job.Context_regs.op with
    | Context_regs.Gemv | Context_regs.Gemm -> (
        let a_addr = job.Context_regs.a_addr and b_addr = job.Context_regs.b_addr in
        let tile = tile_for t job ~addr:(pin_addr job ~a_addr ~b_addr) ~busy:t.busy_until in
        let begin_time = Int.max start t.busy_until.(tile) in
        match
          run_single t job ~blocked ~tile ~a_addr ~b_addr ~c_addr:job.Context_regs.c_addr
            ~start:begin_time
        with
        | Ok finish as result ->
            t.busy_until.(tile) <- finish;
            result
        | Error _ as result -> result)
    | Context_regs.Gemm_batched ->
        let descriptors, desc_lat =
          read_batch_descriptors t ~addr:job.Context_regs.batch_desc_addr
            ~count:job.Context_regs.batch_count
        in
        let t0 = start + desc_lat in
        (* Group the batch entries by the operand they would pin — the
           job fixes all of it but the address; groups with different
           pinned operands run on different tiles in parallel, entries
           within a group run back-to-back on their tile and reuse its
           programming. *)
        let groups = ref [] in
        List.iter
          (fun ((a_addr, b_addr, _) as entry) ->
            let key = pin_addr job ~a_addr ~b_addr in
            match List.assoc_opt key !groups with
            | Some entries -> entries := entry :: !entries
            | None -> groups := !groups @ [ (key, ref [ entry ]) ])
          descriptors;
        let tile_free = Array.map (fun busy -> max busy t0) t.busy_until in
        let run_group acc (key, entries) =
          Result.bind acc (fun latest ->
              let tile = tile_for t job ~addr:key ~busy:tile_free in
              let group_result =
                List.fold_left
                  (fun acc (a_addr, b_addr, c_addr) ->
                    Result.bind acc (fun time ->
                        run_single t job ~blocked ~tile ~a_addr ~b_addr ~c_addr ~start:time))
                  (Ok tile_free.(tile))
                  (List.rev !entries)
              in
              Result.map
                (fun finish ->
                  tile_free.(tile) <- finish;
                  t.busy_until.(tile) <- finish;
                  max latest finish)
                group_result)
        in
        List.fold_left run_group (Ok t0) !groups
  in
  (match result with
  | Ok finish ->
      (match t.timeline with
      | None -> ()
      | Some tl -> Timeline.record tl ~at:finish ~phase:Timeline.Result_ready Timeline.Status_done);
      t.c.jobs_m <- t.c.jobs_m + 1;
      (match job.Context_regs.op with
      | Context_regs.Gemv -> t.c.gemv_jobs_m <- t.c.gemv_jobs_m + 1
      | Context_regs.Gemm -> t.c.gemm_jobs_m <- t.c.gemm_jobs_m + 1
      | Context_regs.Gemm_batched -> t.c.batched_jobs_m <- t.c.batched_jobs_m + 1);
      t.c.busy_ps_m <- t.c.busy_ps_m + (finish - start)
  | Error _ -> ());
  result

let run_job t job ~start = run t job ~blocked:true ~start
let run_job_per_vector t job ~start = run t job ~blocked:false ~start
