(** Port-mapped / memory-mapped IO space.

    Devices (the CIM accelerator's context-register file) register a
    handler for an address range; the CPU-side driver reads and writes
    32-bit words through it. This is the PMIO interface of Section
    II-D. The space counts no accesses; the host driver counts its own
    register writes. *)

type handler = {
  read : offset:int -> int32;
  write : offset:int -> int32 -> unit;
}

type t

val create : unit -> t

val map : t -> base:int -> size:int -> handler -> unit
(** Register a device at [\[base, base+size)]. Raises
    [Invalid_argument] if the range overlaps an existing mapping or is
    empty. *)

val read : t -> addr:int -> int32
(** Raises [Failure] on an unmapped address. *)

val write : t -> addr:int -> int32 -> unit
(** Raises [Failure] on an unmapped address. *)
