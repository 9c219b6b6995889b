(** Kernel-space CIM driver (paper Fig. 3, Section II-E).

    The driver is the only component that touches the accelerator's
    context registers. It translates user-space virtual buffer
    addresses to the physical addresses the device requires, triggers a
    host-side cache flush before each launch (the accelerator itself
    issues only uncacheable accesses, so flush-before-launch is the
    whole coherence protocol), and exposes launch/await entry points
    that the user-space runtime reaches through ioctl.

    All driver work is charged to the host core: syscall entry,
    register writes, address translation and the flush stall all show
    up in the host's instruction and cycle counts — this is the
    offload overhead that makes low-intensity (GEMV-like) kernels lose
    on CIM in Fig. 6. The costs are fixed: 180 instructions per ioctl,
    12 per address translation, 4 per register write plus a 20 ns
    uncached access, and 2 per L1D and L2 line for the set/way flush
    walk, which with a 2 MB L2 dominates the offload overhead of
    low-intensity kernels. The host "wait[s] on spinlock", as in the
    paper: one poll iteration is 8 instructions plus an uncached status
    read, charged for the whole time the device is busy. *)

type t

val create : Platform.t -> t

val translate : t -> int -> int
(** Virtual-to-physical translation of a device-buffer address
    (charged). Raises [Invalid_argument] for an address outside the
    CMA region's virtual window and outside physical memory. *)

val launch : t -> Tdo_cimacc.Context_regs.job -> unit
(** One ioctl: enter the kernel, flush L1D and L2, translate the
    job's buffer addresses, program the context registers over PMIO
    and write the command register. The job's addresses are virtual;
    the device sees physical ones. *)

val await : t -> (unit, string) result
(** Spin on the status register until the device reports done or
    error. At the first busy poll the host is charged the poll
    iterations that fit before the job's finish time, its clock lands
    on that time, and the job's completion is delivered
    ({!Tdo_cimacc.Accel.complete}); the next poll reads [Done]. [Error]
    carries the device's reason. Raises [Failure] if the device reads
    busy with no job running, which it never does after {!launch}. *)

val ioctls : t -> int
val cache_flushes : t -> int
val reg_writes : t -> int
val translations : t -> int
val flush_stall_ps : t -> Tdo_sim.Time_base.ps
val wait_stall_ps : t -> Tdo_sim.Time_base.ps
(** Time the host spent waiting for the device: the sum of each job's
    finish minus the host's time at its first busy poll. *)
