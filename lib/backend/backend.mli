(** Device classes of the heterogeneous accelerator fleet.

    TDO-CIM's original runtime assumes every offload target is the same
    analog PCM crossbar. This module is the abstraction the serving
    layer, tuner and kernel cache share instead: a {e device class}
    names a compute substrate with its own latency, energy, precision
    and endurance model, and a {e profile} instantiates one fleet
    member of that class.

    Three classes exist:

    - {!Pcm_crossbar} — the paper's analog PCM tile: Kirchhoff-sum
      GEMV in 1 us, 2.5 us/row programming, cells that drift and wear
      out (endurance terms apply to placement).
    - {!Digital_tile} — a digital SRAM CIM tile (CIMFlow-style): exact
      integer MAC arrays, ~4x slower per full GEMV and ~10x the compute
      energy, but SRAM-priced writes (20 ns/row) and {e no} drift or
      wear. It computes over the same 8-bit quantised codes as the
      analog tile, so results are bit-identical — "precision" shows up
      as immunity to analog noise and drift, not different numerics,
      which keeps the golden oracle comparable across classes.
    - {!Host_blas} — the host interpreter promoted to a first-class
      placement target: functionally exact, priced with the calibrated
      MAC-rate cost curve, no crossbar state at all.

    A profile may additionally be {e dual-mode} ("Be CIM or Be
    Memory"): the tile serves as plain memory while idle and is
    converted to a compute role only under sustained load, paying
    {!profile.conversion_latency_ps} per switch. Conversions are
    counted by the scheduler and surfaced in telemetry. *)

type device_class = Pcm_crossbar | Digital_tile | Host_blas

val class_name : device_class -> string
(** ["pcm"], ["digital"], ["host"] — the spelling used by fleet specs,
    tuning-database entries and cache keys. *)

val class_of_name : string -> (device_class, string) result

type mode = Memory_mode | Compute_mode
(** Role of a dual-mode tile. Non-dual profiles are always
    [Compute_mode]. *)

type profile = {
  name : string;
      (** fleet-spec spelling of this profile: the class name, or
          ["dual"] for a dual-mode PCM tile — what per-class telemetry
          groups by *)
  cls : device_class;
      (** compute substrate; drives cache keys, tuned-config lookup
          and cost estimation. A dual-mode tile's class is
          {!Pcm_crossbar}: once converted it {e is} a crossbar. *)
  dual_mode : bool;  (** starts as plain memory, convertible *)
  compute_latency_ps : int;  (** full-array GEMV *)
  write_latency_per_row_ps : int;
  cpu_ps_per_mac : int;  (** {!Host_blas} service rate *)
  conversion_latency_ps : int;  (** dual-mode role switch cost *)
  energy : Tdo_energy.Table1.t;  (** per-class pricing of served work *)
  wears : bool;
      (** cells wear: the device reports an Eq. 1 budget and a
          lifetime ({!Pcm_crossbar} only) *)
  cell_endurance : float;  (** Eq. 1 parameter; infinite-ish when [not wears] *)
  memory_bw_bytes_per_us : float;
      (** memory-role bandwidth a dual-mode tile gives up per
          microsecond it spends drafted into the compute role — the
          displaced-traffic charge ("Be CIM or Be Memory"); [0] for
          profiles that never serve as memory *)
}

val pcm : profile
(** The paper's analog crossbar — the class every pre-fleet device
    implicitly was. *)

val digital : profile
val host : profile

val dual : profile
(** A {!pcm} tile with [dual_mode = true]: plain memory until the
    scheduler converts it (10 us per switch). *)

val of_name : string -> (profile, string) result
(** ["pcm"], ["digital"], ["host"] or ["dual"]. *)

val parse_fleet : string -> (profile list, string) result
(** Parse a fleet spec like ["pcm:2,digital:2,dual:1,host:1"] into the
    expanded per-device profile list (order preserved, counts >= 1).
    An entry without a count means one device. *)

val describe_fleet : profile list -> string
(** Canonical spec string of a fleet ([parse_fleet]'s inverse up to
    run-length grouping of adjacent equal profiles). *)

val platform_config :
  ?base:Tdo_runtime.Platform.config -> profile -> Tdo_runtime.Platform.config
(** [base] (default {!Tdo_runtime.Platform.default_config}) with the
    micro-engine's timing swapped for the profile's class: digital
    tiles get SRAM-style row writes and the slower adder-tree GEMV,
    and their crossbars are forced ideal ([noise_sigma = None]) —
    digital MAC arrays have no analog noise path to inject into.
    {!Pcm_crossbar} profiles return [base] unchanged; {!Host_blas}
    keeps a platform only for interface uniformity (it never launches
    jobs). *)

val ps_per_cycle : float
(** Host cycles (1.2 GHz) to picoseconds — the unit bridge between
    {!Tdo_tune.Cost_model} predictions and the scheduler's virtual
    clock. *)
