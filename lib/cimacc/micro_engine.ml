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

type pinned = {
  pin_addr : int;
  pin_rows : int;
  pin_cols : int;
  pin_trans : bool;  (** orientation of the programmed operand *)
  pin_generation : int;
  pin_scale : float;
  pin_check : int array;  (** ABFT per-row checksums of the programmed codes *)
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
  pinned : pinned option array;  (** per tile *)
  busy_until : Sim.Time_base.ps array;  (** per tile *)
  c : counters_mut;
  (* Local buffers of the streamed phase, sized on first use and reused
     across vectors and jobs. [xbuf] holds the streamed input vector
     (k elements) and [codes] its quantised form; [raw]/[result]/[c_old]
     are output-sized. All are fully overwritten before every read. *)
  mutable xbuf : float array;
  mutable codes : int array;
  mutable raw : int array;
  mutable result : float array;
  mutable c_old : float array;
  mutable wbuf : float array;
  mutable wcodes : int array;
      (** the pinned operand and its codes while it is programmed,
          row-major; grown to the largest operand seen and only their
          first [rows * cols] elements are used *)
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
    pinned = Array.make config.tiles None;
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
    xbuf = [||];
    codes = [||];
    raw = [||];
    result = [||];
    c_old = [||];
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

let last_abft_fault t = t.last_abft_fault
let clear_abft_fault t = t.last_abft_fault <- None

let invalidate_pinned t = Array.fill t.pinned 0 (Array.length t.pinned) None

let get_floats n cur = if Array.length cur = n then cur else Array.make n 0.0
let get_ints n cur = if Array.length cur = n then cur else Array.make n 0
let reserve_floats n cur = if Array.length cur >= n then cur else get_floats n cur
let reserve_ints n cur = if Array.length cur >= n then cur else get_ints n cur

(* DMA transfers whose functional side moves f32 values between memory
   and the engine's float buffers instead of materialising packed
   [Bytes.t] payloads: a unit-stride run is one bulk
   [Memory.read_f32s]/[write_f32s], any other stride an element loop
   over the f32 fast path. Both leave the data as the element loop
   does. The timing side is one descriptor over the whole payload,
   whatever its stride ([Dma.charge]): the same burst latency as a
   contiguous transfer. *)

let fetch_vector_into t ~addr ~len ~stride_elems out =
  let mem = Sim.Dma.memory t.dma in
  if stride_elems = 1 then Sim.Memory.read_f32s mem addr out ~pos:0 ~len
  else
    for i = 0 to len - 1 do
      Array.unsafe_set out i (Sim.Memory.read_f32 mem (addr + (4 * i * stride_elems)))
    done;
  Sim.Dma.charge t.dma ~bytes:(4 * len)

let store_vector_into t ~addr ~stride_elems ~len values =
  let mem = Sim.Dma.memory t.dma in
  if stride_elems = 1 then Sim.Memory.write_f32s mem addr values ~pos:0 ~len
  else
    for i = 0 to len - 1 do
      Sim.Memory.write_f32 mem (addr + (4 * i * stride_elems)) (Array.unsafe_get values i)
    done;
  Sim.Dma.charge t.dma ~bytes:(4 * len)

(* Fetch the operand the crossbar will hold, W ([w_rows x w_cols]),
   into [w] row-major. Memory holds W, or W^T when [transposed],
   row-major with leading dimension [ld]; it is read in that physical
   row-major order, W's rows in bulk, and charged as one
   [w_rows * w_cols] descriptor. *)
let fetch_operand_into t ~addr ~w_rows ~w_cols ~ld ~transposed w =
  let mem = Sim.Dma.memory t.dma in
  if transposed then
    for r = 0 to w_cols - 1 do
      for c = 0 to w_rows - 1 do
        Array.unsafe_set w ((c * w_cols) + r)
          (Sim.Memory.read_f32 mem (addr + (4 * ((r * ld) + c))))
      done
    done
  else
    for r = 0 to w_rows - 1 do
      Sim.Memory.read_f32s mem (addr + (4 * r * ld)) w ~pos:(r * w_cols) ~len:w_cols
    done;
  Sim.Dma.charge t.dma ~bytes:(4 * w_rows * w_cols)

(* Largest absolute value of [v.(0 .. len-1)], NaN if any element is
   NaN (a [Float.max] fold from 0). *)
let[@inline] max_abs_prefix v len =
  let m = ref 0.0 in
  for i = 0 to len - 1 do
    let a = Float.abs (Array.unsafe_get v i) in
    if a > !m || Float.is_nan a then m := a
  done;
  !m

(* inlined, so the per-vector result is not boxed *)
let[@inline] max_abs v =
  let m = ref 0.0 in
  for i = 0 to Array.length v - 1 do
    let a = Float.abs (Array.unsafe_get v i) in
    if a > !m then m := a
  done;
  !m

(* One GEMM (or GEMV, n = 1) with explicit operand addresses; the
   batched path calls this once per descriptor. Returns the finish
   time. *)
let run_single t (job : Context_regs.job) ~tile ~a_addr ~b_addr ~c_addr ~start =
  let xbar = t.xbars.(tile) in
  let { Context_regs.m; n; k; trans_a; trans_b; alpha; beta; lda; ldb; ldc; pin; generation; _ }
      =
    job
  in
  let cfg = t.config in
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
    let reusable =
      match t.pinned.(tile) with
      | Some p ->
          p.pin_addr = pin_addr && p.pin_rows = w_rows && p.pin_cols = w_cols
          && p.pin_trans = pin_trans
          && p.pin_generation = generation
      | None -> false
    in
    let scale_w, pin_check =
      if reusable then begin
        t.c.programming_skipped_m <- t.c.programming_skipped_m + 1;
        let p = Option.get t.pinned.(tile) in
        (p.pin_scale, p.pin_check)
      end
      else begin
        (* Physical layout of A is (m x k) unless transposed, of B
           (k x n); W = op(A)^T or op(B) is stored transposed for an
           untransposed A and for a transposed B. *)
        let transposed, ld =
          match pin with
          | Context_regs.Pin_a -> (not trans_a, lda)
          | Context_regs.Pin_b -> (trans_b, ldb)
        in
        let size = w_rows * w_cols in
        let w = reserve_floats size t.wbuf in
        t.wbuf <- w;
        let codes = reserve_ints size t.wcodes in
        t.wcodes <- codes;
        let fill_lat =
          fetch_operand_into t ~addr:pin_addr ~w_rows ~w_cols ~ld ~transposed w
        in
        (match t.timeline with
        | None -> ()
        | Some tl ->
            Timeline.record tl ~at:!cursor ~phase:Timeline.Dma_fill
              (Timeline.Pinned_operand { rows = w_rows; cols = w_cols }));
        cursor := !cursor + fill_lat;
        let scale = Quant.scale_for ~bits:8 ~max_abs:(max_abs_prefix w size) in
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
        let pin_check =
          if cfg.abft then Abft.row_sums_flat ~rows:w_rows ~cols:w_cols codes else [||]
        in
        t.pinned.(tile) <-
          Some
            {
              pin_addr;
              pin_rows = w_rows;
              pin_cols = w_cols;
              pin_trans;
              pin_generation = generation;
              pin_scale = scale;
              pin_check;
            };
        (scale, pin_check)
      end
    in
    (* -- streamed phase -------------------------------------------- *)
    (* Pin_a: stream the n columns of op(B), produce columns of C.
       Pin_b: stream the m rows of op(A), produce rows of C. *)
    let stream_count = match pin with Context_regs.Pin_a -> n | Context_regs.Pin_b -> m in
    let out_len = match pin with Context_regs.Pin_a -> m | Context_regs.Pin_b -> n in
    let x = get_floats k t.xbuf in
    t.xbuf <- x;
    let x_codes = get_ints k t.codes in
    t.codes <- x_codes;
    let raw = get_ints out_len t.raw in
    t.raw <- raw;
    let result = get_floats out_len t.result in
    t.result <- result;
    (* one [Some] for the whole launch, not one per vector *)
    let c_old =
      if beta = 0.0 then None
      else begin
        let c = get_floats out_len t.c_old in
        t.c_old <- c;
        Some c
      end
    in
    let fetch_stream idx =
      match (pin, trans_b, trans_a) with
      | Context_regs.Pin_a, false, _ ->
          (* column idx of B (k x n, ld = ldb) *)
          fetch_vector_into t ~addr:(b_addr + (4 * idx)) ~len:k ~stride_elems:ldb x
      | Context_regs.Pin_a, true, _ ->
          (* column idx of op(B) = row idx of physical B (n x k) *)
          fetch_vector_into t ~addr:(b_addr + (4 * idx * ldb)) ~len:k ~stride_elems:1 x
      | Context_regs.Pin_b, _, false ->
          (* row idx of A (m x k) *)
          fetch_vector_into t ~addr:(a_addr + (4 * idx * lda)) ~len:k ~stride_elems:1 x
      | Context_regs.Pin_b, _, true ->
          (* row idx of op(A) = column idx of physical A (k x m) *)
          fetch_vector_into t ~addr:(a_addr + (4 * idx)) ~len:k ~stride_elems:lda x
    in
    (* slice idx of C: column idx under Pin_a, row idx under Pin_b *)
    let c_slice_addr idx =
      match pin with
      | Context_regs.Pin_a -> c_addr + (4 * idx)
      | Context_regs.Pin_b -> c_addr + (4 * idx * ldc)
    in
    let c_stride = match pin with Context_regs.Pin_a -> ldc | Context_regs.Pin_b -> 1 in
    (* integration time scales with the number of active wordlines *)
    let gemv_latency =
      max cfg.min_compute_latency_ps (cfg.compute_latency_ps * k / cfg.xbar.Crossbar.rows)
    in
    (* Consecutive streamed vectors that are contiguous rows in memory
       (rows of A under Pin_b, rows of physical B under Pin_a+trans_b)
       are fetched in row-buffer-sized bursts: one DMA descriptor per
       burst instead of one per vector. *)
    let row_buffer_bytes = 1536 in
    let burst =
      let contiguous_rows =
        match (pin, trans_a, trans_b) with
        | Context_regs.Pin_b, false, _ | Context_regs.Pin_a, _, true -> true
        | Context_regs.Pin_b, true, _ | Context_regs.Pin_a, _, false -> false
      in
      if contiguous_rows then max 1 (row_buffer_bytes / (4 * k)) else 1
    in
    let fill_channel = ref !cursor in
    let compute_channel = ref !cursor in
    for idx = 0 to stream_count - 1 do
      if not cfg.double_buffering then fill_channel := Int.max !fill_channel !compute_channel;
      (match t.timeline with
      | None -> ()
      | Some tl ->
          Timeline.record tl ~at:!fill_channel ~phase:Timeline.Dma_fill (Timeline.Vector idx));
      let fill_lat = fetch_stream idx in
      (* burst accounting: the descriptor fetched at the head of a burst
         covers the next [burst-1] vectors; their payload time is part
         of that burst's latency *)
      let fill_lat =
        if burst = 1 then fill_lat
        else if idx mod burst = 0 then
          let vectors = min burst (stream_count - idx) in
          fill_lat + ((vectors - 1) * 4 * k * Sim.Time_base.ps_per_ns / 5)
          (* ~payload share at bus bandwidth for the rest of the burst *)
        else 0
      in
      let c_fill_lat =
        match c_old with
        | None -> 0
        | Some c ->
            fetch_vector_into t ~addr:(c_slice_addr idx) ~len:out_len ~stride_elems:c_stride c
      in
      fill_channel := !fill_channel + fill_lat + c_fill_lat;
      compute_channel := Int.max !compute_channel !fill_channel;
      (match t.timeline with
      | None -> ()
      | Some tl ->
          Timeline.record tl ~at:!compute_channel ~phase:Timeline.Compute (Timeline.Gemv idx));
      let scale_x = Quant.scale_for ~bits:8 ~max_abs:(max_abs x) in
      for i = 0 to k - 1 do
        Array.unsafe_set x_codes i
          (Quant.quantize_scaled ~bits:8 ~scale:scale_x (Array.unsafe_get x i))
      done;
      Crossbar.gemv_codes_into xbar x_codes ~out:raw;
      compute_channel := !compute_channel + gemv_latency;
      if cfg.abft then begin
        (* one extra dot product (k MACs) plus the output sum (out_len
           adds), on the digital ALU *)
        (match t.timeline with
        | None -> ()
        | Some tl ->
            Timeline.record tl ~at:!compute_channel ~phase:Timeline.Accumulate
              (Timeline.Abft_verify idx));
        compute_channel := !compute_channel + ((k + out_len) * cfg.alu_latency_ps);
        t.c.abft_checks_m <- t.c.abft_checks_m + 1;
        match Abft.verify ~row_sums:pin_check ~input:x_codes ~output:raw with
        | Abft.Pass -> ()
        | Abft.Fail _ ->
            t.c.abft_mismatches_m <- t.c.abft_mismatches_m + 1;
            let region =
              match Crossbar.active_region xbar with
              | Some r -> r
              | None -> (0, 0, 0, 0)
            in
            t.last_abft_fault <- Some (tile, region)
      end;
      (match t.timeline with
      | None -> ()
      | Some tl ->
          Timeline.record tl ~at:!compute_channel ~phase:Timeline.Accumulate
            (Timeline.Epilogue idx));
      Digital_logic.postprocess_into t.digital ~alpha ~beta ~scale:(scale_w *. scale_x) ~raw
        ~c_old ~out:result;
      compute_channel := !compute_channel + (out_len * cfg.alu_latency_ps);
      (match t.timeline with
      | None -> ()
      | Some tl ->
          Timeline.record tl ~at:!compute_channel ~phase:Timeline.Store_result
            (Timeline.Slice idx));
      let store_lat =
        store_vector_into t ~addr:(c_slice_addr idx) ~stride_elems:c_stride ~len:out_len result
      in
      (* results collect in the output buffer and drain one DMA
         descriptor per buffer-full, mirroring the input bursting *)
      let store_burst = max 1 (row_buffer_bytes / (4 * out_len)) in
      let store_lat =
        if store_burst = 1 then store_lat
        else if idx mod store_burst = store_burst - 1 || idx = stream_count - 1 then
          store_lat + ((min store_burst (idx + 1) - 1) * 4 * out_len * Sim.Time_base.ps_per_ns / 5)
        else 0
      in
      compute_channel := !compute_channel + store_lat;
      t.c.streamed_vectors_m <- t.c.streamed_vectors_m + 1
    done;
    Ok (Int.max !cursor !compute_channel)
  end

let read_batch_descriptors t ~addr ~count =
  let data, latency = Sim.Dma.read t.dma ~addr ~bytes:(12 * count) in
  let entry i =
    let word j = Int32.to_int (Bytes.get_int32_le data ((12 * i) + (4 * j))) land 0xFFFFFFFF in
    (word 0, word 1, word 2)
  in
  (List.init count entry, latency)

(* Identity of the operand a job would pin, for tile affinity. *)
let prospective_pin_key (job : Context_regs.job) ~a_addr ~b_addr =
  let pin_addr =
    match job.Context_regs.pin with
    | Context_regs.Pin_a -> a_addr
    | Context_regs.Pin_b -> b_addr
  in
  let pin_trans =
    match job.Context_regs.pin with
    | Context_regs.Pin_a -> job.Context_regs.trans_a
    | Context_regs.Pin_b -> job.Context_regs.trans_b
  in
  let pin_cols =
    match job.Context_regs.pin with
    | Context_regs.Pin_a -> job.Context_regs.m
    | Context_regs.Pin_b -> job.Context_regs.n
  in
  (pin_addr, job.Context_regs.k, pin_cols, pin_trans, job.Context_regs.generation)

let tile_holding t (addr, rows, cols, trans, generation) =
  let found = ref None in
  Array.iteri
    (fun i p ->
      match p with
      | Some p
        when !found = None && p.pin_addr = addr && p.pin_rows = rows && p.pin_cols = cols
             && p.pin_trans = trans
             && p.pin_generation = generation ->
          found := Some i
      | Some _ | None -> ())
    t.pinned;
  !found

let least_busy_tile busy =
  let best = ref 0 in
  Array.iteri (fun i u -> if u < busy.(!best) then best := i) busy;
  !best

let run_job t (job : Context_regs.job) ~start =
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
    | Context_regs.Gemv | Context_regs.Gemm ->
        let a_addr = job.Context_regs.a_addr and b_addr = job.Context_regs.b_addr in
        let tile =
          match tile_holding t (prospective_pin_key job ~a_addr ~b_addr) with
          | Some tile -> tile
          | None -> least_busy_tile t.busy_until
        in
        let begin_time = max start t.busy_until.(tile) in
        let result =
          run_single t job ~tile ~a_addr ~b_addr ~c_addr:job.Context_regs.c_addr
            ~start:begin_time
        in
        Result.iter (fun finish -> t.busy_until.(tile) <- finish) result;
        result
    | Context_regs.Gemm_batched ->
        let descriptors, desc_lat =
          read_batch_descriptors t ~addr:job.Context_regs.batch_desc_addr
            ~count:job.Context_regs.batch_count
        in
        let t0 = start + desc_lat in
        (* Group the batch entries by the operand they would pin; groups
           with different pinned operands run on different tiles in
           parallel, entries within a group run back-to-back on their
           tile and reuse its programming. *)
        let groups = ref [] in
        List.iter
          (fun ((a_addr, b_addr, _) as entry) ->
            let key = prospective_pin_key job ~a_addr ~b_addr in
            match List.assoc_opt key !groups with
            | Some entries -> entries := entry :: !entries
            | None -> groups := !groups @ [ (key, ref [ entry ]) ])
          descriptors;
        let tile_free = Array.map (fun busy -> max busy t0) t.busy_until in
        let run_group acc (key, entries) =
          Result.bind acc (fun latest ->
              let tile =
                match tile_holding t key with
                | Some tile -> tile
                | None -> least_busy_tile tile_free
              in
              let group_result =
                List.fold_left
                  (fun acc (a_addr, b_addr, c_addr) ->
                    Result.bind acc (fun time ->
                        run_single t job ~tile ~a_addr ~b_addr ~c_addr ~start:time))
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
