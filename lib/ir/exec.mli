(** Timed IR executor — the "back-end + gem5" of the flow.

    Runs an IR function on the emulated platform: every dynamic
    instruction (address arithmetic, loads, stores, floating point,
    loop control) is charged to the host core's timing model, and every
    load and store accesses the L1D as it runs, in program order and at
    its real address, so run time reflects the cache hierarchy; runtime
    calls go through the user-space CIM API, the kernel driver and the
    accelerator. Functional results are bit-exact with the reference
    interpreter (binary32 array stores).

    A function is compiled once ({!prepare}) and run any number of
    times ({!exec}). [prepare] resolves every identifier to a slot as
    it compiles the statements into closures, in one pass, counting
    each statement's non-memory instructions and numbering each load
    and store site. [exec] adds those counts to its pending counters a
    loop (or a statement) at a time, and each load and store with the
    cycles its probe ([Cpu.probe_load] and kin) cost beyond an L1D hit;
    it retires everything pending ([Cpu.issue_many],
    [Cpu.retire_probed]) before each runtime call, ROI marker and the
    end of the run — the only points that read the core's counters — so
    every simulated number equals one-instruction-at-a-time charging.
    DESIGN.md ("The executor") gives the counting rules.

    Array arguments are staged into simulated main memory before the
    run and copied back afterwards (uncharged — PolyBench
    initialisation sits outside the ROI markers). *)

module Interp = Tdo_lang.Interp
module Platform = Tdo_runtime.Platform

type metrics = {
  roi_instructions : int;  (** dynamic instructions inside ROI *)
  roi_cycles : int;
  roi_time_ps : int;
  used_cim : bool;  (** at least one runtime call executed *)
  cim_launches : int;
}

exception Exec_error of string

type program
(** A prepared function: immutable, so one program may run on several
    domains at once, each run on its own platform. *)

val prepare : Ir.func -> program
(** Bind and compile [f]. Scalar parameters take the kind of their
    declared type. Never raises {!Exec_error}: a function it rejects
    (unbound name, rank mismatch, ...) yields a program whose every
    {!exec} raises that error. *)

val exec : program -> platform:Platform.t -> args:(string * Interp.value) list -> metrics
(** Run a prepared program. Mutates [Varray] arguments in place with
    the final memory contents. Raises {!Exec_error} on argument
    mismatch (a missing argument, an array of other dimensions, or a
    scalar of the other kind than the declared type), out-of-bounds
    accesses, runtime-call misuse, or a device error. A run that raises
    first retires what it counted and probed, closes a ROI window it opened and
    frees the device buffers it still holds, so the platform serves the
    next run as after a completed one. *)

val run : Ir.func -> platform:Platform.t -> args:(string * Interp.value) list -> metrics
(** [exec (prepare f)], for one-shot runs. *)
