(** Analytic cost model over {!Tdo_tactics.Offload.plan} censuses.

    Predicted cycles are a non-negative linear combination of the plan's
    counters (launch count, crossbar rows programmed, GEMV passes and
    their active wordlines, device MACs, DMA traffic, host expression
    work, plus a constant). Every counter is monotone in the problem
    size and {!calibrate} clamps coefficients at zero, so predictions
    are monotone in the problem size by construction — the property the
    search relies on and the test suite checks.

    Crossbar write pressure and energy need no fitting: writes are the
    plan's programmed cells, and energy prices the counters with the
    Table-I rates the simulator itself uses. *)

module Offload = Tdo_tactics.Offload

type t = { coeffs : float array  (** one per feature, all [>= 0] *) }

val feature_names : string array
val features : Offload.plan -> float array

val uncalibrated_for : Tdo_backend.Backend.device_class -> t
(** Per-class coefficient set over the same features: the analog
    crossbar prior (hand-priced Table-I latencies at 1.2 GHz, usable
    before any simulation has run) for [Pcm_crossbar], SRAM-priced
    row writes with a slower adder-tree GEMV for [Digital_tile], and a
    MAC-rate-dominated set for [Host_blas] (every would-be device MAC
    priced at ~3 host cycles, no launch/programming/DMA terms). The
    mixed-fleet scheduler ranks placement candidates with these. *)

val predict_cycles : t -> Offload.plan -> float

val predict_resident_cycles : t -> Offload.plan -> float
(** [predict_cycles model (resident_plan plan)] — the warm-device
    service estimate. *)

val predict_amortized_cycles : t -> reuse:int -> Offload.plan -> float
(** Expected per-run cycles when the kernel executes [reuse] times
    against the same resident weights: one cold run plus [reuse - 1]
    warm runs, averaged. [reuse <= 1] degenerates to
    {!predict_cycles} — the per-request model. Inter-kernel reuse is
    what makes write-heavy geometries competitive for graph serving:
    programming cost amortises, GEMV cost does not. *)

val predict_write_bytes : Offload.plan -> int
(** Crossbar bytes programmed — exact for compiler-shaped plans. Of an
    {!Offload.plan} census of a compiled function, that census prices
    each (re)program off the pinned operand's
    {!Tdo_analysis.Regions.mat_ref_cells} region. The W008
    redundant-reprogram lint counts generations with the same region
    keys, so a program flagged by W008 shows strictly larger write
    bytes than its hoisted/reordered variant. *)

val predict_energy_j : ?table:Tdo_energy.Table1.t -> Offload.plan -> float
(** Table-I pricing of the plan's device counters plus the host term
    (host ops standing in for instructions). *)

type sample = { plan : Offload.plan; cycles : float }

val calibrate : sample list -> t * float
(** Fit coefficients by non-negative least squares (projected cyclic
    coordinate descent on scaled features) and report the mean relative
    error of the fitted model on the samples themselves. Falls back to
    the crossbar prior of {!uncalibrated_for} (with its error) when the
    samples are degenerate. *)

val mean_relative_error : t -> sample list -> float
(** [mean |predicted - measured| / measured] over samples with
    [measured > 0]; [0.] for an empty list. *)
