(** Port-mapped / memory-mapped IO space.

    Devices (the CIM accelerator's context-register file) register a
    handler for an address range; the CPU-side driver reads and writes
    32-bit words through it. This is the PMIO interface of Section
    II-D. The space counts no accesses; the host driver counts its own
    register writes.

    A word travels as an unboxed [int], so a register access
    allocates nothing. A device keeps a written value's low 32 bits and
    reads back words in [0, 0xFFFF_FFFF]: a negative [int] is stored as
    its two's-complement word, [Int32.of_int w] is a word's signed
    value, and a binary32's word is
    [Int32.to_int (Int32.bits_of_float x) land 0xFFFF_FFFF]. *)

type handler = { read : offset:int -> int; write : offset:int -> int -> unit }

type t

val create : unit -> t

val map : t -> base:int -> size:int -> handler -> unit
(** Register a device at [\[base, base+size)]. Raises
    [Invalid_argument] if the range overlaps an existing mapping or is
    empty. *)

val read : t -> addr:int -> int
(** Raises [Failure] on an unmapped address. *)

val write : t -> addr:int -> int -> unit
(** Raises [Failure] on an unmapped address. *)
