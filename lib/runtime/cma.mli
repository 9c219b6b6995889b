(** Contiguous memory allocator (CMA).

    The CIM runtime allocates device-visible buffers from a reserved,
    physically contiguous region of main memory through the Linux CMA
    API (paper Section II-E): the accelerator's DMA needs physically
    contiguous pages, buffer sizes are not limited by the page boundary,
    and the driver needs no per-page management.

    First-fit free-list allocator with coalescing on free. The free
    list and the live allocations are int arrays: past their first few
    slots, an allocation or a free allocates nothing but its [Ok]. *)

type config = {
  base : int;  (** physical base address of the reserved region *)
  size : int;  (** region size in bytes *)
  alignment : int;  (** every allocation is aligned to this; power of two *)
}

val default_config : config
(** 64 MB at 0x3000_0000, 256-byte aligned. *)

type t

val create : ?config:config -> unit -> t

val alloc : t -> bytes:int -> (int, string) result
(** Physical address of a fresh block, or [Error] when no contiguous
    block is large enough. Zero-byte requests are rejected. *)

val free : t -> int -> unit
(** Raises [Invalid_argument] if the address was not returned by
    {!alloc} (double free included). *)

val is_allocated : t -> int -> bool
val allocation_size : t -> int -> int option

val allocated_bytes : t -> int
val free_bytes : t -> int
val largest_free_block : t -> int
val peak_allocated_bytes : t -> int
