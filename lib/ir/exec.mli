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

    Each array access is compiled once, into one site record that both
    its per-iteration closure and a loop kernel read. An innermost loop
    whose body is one statement [a[..] op= x [* y [* z]]] over loads,
    float scalars and literals, with every subscript affine in the loop
    variable (a compile-time coefficient plus integer terms), also runs
    as a loop kernel: one closure for the whole loop, built from the
    statement's sites. At loop entry it checks each site's subscripts
    at the first and the last iteration, and its address inside
    simulated memory; if all hold, each site's address is a register
    that advances by its stride, and a site whose span lies inside one
    memory chunk reads and writes that chunk's bytes
    ({!Tdo_sim.Memory.chunk_at}). Otherwise, and for every other loop,
    the loop runs one closure per iteration and fails exactly as it
    always did. Either way every load and store probes the L1D at its
    own site in program order, every store rounds to binary32, and the
    counts, the loop variable's final value and every simulated number
    are the same ({!prepare_reference} is the per-iteration
    reference).

    Array arguments are staged into simulated main memory before the
    run (uncharged — PolyBench initialisation sits outside the ROI
    markers). Afterwards the arrays the program may write — those it
    assigns, or copies back with [polly_cimDevToHost] — are copied back
    into their arguments; the others keep their values, bit for bit. *)

module Interp = Tdo_lang.Interp
module Platform = Tdo_runtime.Platform

type metrics = {
  roi_instructions : int;  (** dynamic instructions inside ROI *)
  roi_cycles : int;
  roi_time_ps : int;
  used_cim : bool;  (** at least one runtime call executed *)
  cim_launches : int;
  kernel_iterations : int;  (** loop iterations this run executed as loop kernels *)
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

val prepare_reference : Ir.func -> program
(** [prepare] without loop kernels: every loop runs one closure per
    iteration. The reference the loop kernels are tested against. *)

val exec : program -> platform:Platform.t -> args:(string * Interp.value) list -> metrics
(** Run a prepared program. Mutates the [Varray] arguments the program
    may write in place with their final memory contents. Raises {!Exec_error} on argument
    mismatch (a missing argument, an array of other dimensions, or a
    scalar of the other kind than the declared type), out-of-bounds
    accesses, runtime-call misuse, or a device error. A run that raises
    first retires what it counted and probed, closes a ROI window it opened and
    frees the device buffers it still holds, so the platform serves the
    next run as after a completed one. *)

val run : Ir.func -> platform:Platform.t -> args:(string * Interp.value) list -> metrics
(** [exec (prepare f)], for one-shot runs. *)
