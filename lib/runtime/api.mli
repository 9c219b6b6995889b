(** User-space CIM runtime library — the [polly_cim*] C API of the
    paper (Fig. 3, Listing 1), the CIM counterpart of cuBLAS/MKL.

    Designed to be called either directly by an application programmer
    (see [examples/runtime_api.ml]) or by the compiler's offload pass
    ({!Tdo_tactics}). Every entry point charges its host-side cost to
    the platform's host core, so offload overhead is part of every
    measurement.

    Buffers are allocated from the CMA region and exposed to user space
    at virtual addresses; the driver translates on launch. Buffer
    {e generations} let the device recognise that a pinned operand is
    unchanged and skip crossbar reprogramming (the endurance
    optimisation). *)

module Regs = Tdo_cimacc.Context_regs

type buffer = private {
  virt : int;  (** user-space address *)
  phys : int;  (** physical address (device view) *)
  buf_bytes : int;
  mutable generation : int;
  mutable freed : bool;
}

type view = { buf : buffer; offset_elems : int; ld : int }
(** A rectangular window into a buffer of f32 elements, row-major with
    leading dimension [ld]. *)

val view : ?offset_elems:int -> ld:int -> buffer -> view

type t

val init : Platform.t -> t
(** [polly_cimInit]: open the device, reset it, build the runtime
    context. *)

val driver : t -> Driver.t

val malloc : t -> bytes:int -> (buffer, string) result
(** [polly_cimMalloc]: allocate a device-visible contiguous buffer. *)

val free : t -> buffer -> unit
(** [polly_cimFree]. Raises [Invalid_argument] on double free. *)

val host_to_dev : t -> src:Tdo_linalg.Mat.t -> dst:view -> unit
(** [polly_cimHostToDev]: copy a host matrix into a device buffer
    (charged as host load/store pairs). Bumps the buffer generation. *)

val dev_to_host : t -> src:view -> rows:int -> cols:int -> Tdo_linalg.Mat.t
(** [polly_cimDevToHost]: copy a matrix out of a device buffer. *)

val host_to_dev_mem : t -> src:int -> dst:view -> rows:int -> cols:int -> unit
(** {!host_to_dev} from simulated memory: copies the packed row-major
    [rows x cols] f32 array at physical address [src] into [dst] with
    {!Tdo_sim.Memory.copy}, and charges and counts exactly what
    {!host_to_dev} does. The caller charges the host-side loads of
    [src]. *)

val dev_to_host_mem : t -> src:view -> dst:int -> rows:int -> cols:int -> unit
(** {!dev_to_host} into simulated memory: copies the [rows x cols]
    window of [src] to the packed row-major array at physical address
    [dst]. The caller charges the host-side stores of [dst]. *)

val sgemm :
  t ->
  ?trans_a:bool ->
  ?trans_b:bool ->
  ?pin:Regs.pin ->
  m:int ->
  n:int ->
  k:int ->
  alpha:float ->
  a:view ->
  b:view ->
  beta:float ->
  c:view ->
  unit ->
  (unit, string) result
(** [polly_cimBlasSGemm]: [C <- alpha*op(A)*op(B) + beta*C] on the
    accelerator. Operands larger than the crossbar are decomposed into
    crossbar-sized tiles (one launch per tile) — the library-side
    fallback; the compiler's tiling pass produces exact-fit tiles
    instead. Default [pin] is [Pin_a]. *)

val sgemv :
  t ->
  ?trans_a:bool ->
  m:int ->
  k:int ->
  alpha:float ->
  a:view ->
  x:view ->
  beta:float ->
  y:view ->
  unit ->
  (unit, string) result
(** [polly_cimBlasSGemv]: [y <- alpha*op(A)*x + beta*y]. *)

val gemm_batched :
  t ->
  ?trans_a:bool ->
  ?trans_b:bool ->
  ?pin:Regs.pin ->
  m:int ->
  n:int ->
  k:int ->
  alpha:float ->
  beta:float ->
  batch:(view * view * view) list ->
  unit ->
  (unit, string) result
(** [polly_cimBlasGemmBatched]: one launch for a list of same-shape
    GEMMs (Listing 2's fused form). All views of a batch must share
    leading dimensions. Descriptors are staged in a scratch CMA buffer
    by the host. *)

val dev_im2col :
  t ->
  src:view ->
  src_rows:int ->
  src_cols:int ->
  dst:view ->
  kh:int ->
  kw:int ->
  oh:int ->
  ow:int ->
  unit
(** [polly_cimIm2col]: device-side scatter-gather that lays the
    [kh x kw] window of every output position out as one row of the
    [\[oh*ow\] x \[kh*kw\]] patch matrix:
    [dst(i*ow+j, p*kw+q) = src(i+p, j+q)]. Runs on the accelerator's
    DMA (no host copy loop): one bulk read of the source window and
    one bulk write of the patch matrix ({!Tdo_cimacc.Micro_engine.im2col});
    the host pays one ioctl and waits out the transfer. Used by the
    conv tactic. Raises [Invalid_argument] before moving anything when
    the geometry does not fit [src_rows x src_cols] or the destination
    view, when the source window's last element lies beyond [src]'s
    buffer, or when the source window and the patch matrix overlap. *)

type counters = {
  gemm_calls : int;
  gemv_calls : int;
  batched_calls : int;
  launches : int;  (** device triggers, including per-tile launches *)
  mallocs : int;
  host_to_dev_bytes : int;
  dev_to_host_bytes : int;
}

val counters : t -> counters
(** A snapshot of the counters, built on demand. *)

val launches : t -> int
(** [(counters t).launches], read without building the snapshot. *)
