(** A single phase-change-memory (PCM) device (paper Section II-A,
    Fig. 1).

    The cell stores one of [levels] conductance states. Programming
    (a reset pulse followed by a set pulse) moves the device to a new
    level and consumes one write out of its endurance budget; once the
    budget is exhausted the cell is worn out and is stuck at its last
    level, silently ignoring further programming — exactly the failure
    mode the paper's endurance-aware transformations try to delay. *)

type config = {
  levels : int;  (** distinct conductance states, 16 for a 4-bit cell *)
  endurance : int;  (** writes before wear-out; paper range 1e6..1e8 *)
  g_min_siemens : float;  (** conductance of the fully amorphous state *)
  g_max_siemens : float;  (** conductance of the fully crystalline state *)
}

val default_config : config
(** 4-bit IBM PCM cell: 16 levels, 2.5e7 writes, 0.1 uS .. 20 uS. *)

type t

val create : ?config:config -> unit -> t
(** Fresh cell at level 0 (amorphous) with zero writes. *)

val config : t -> config

val program : t -> level:int -> unit
(** One write. Raises [Invalid_argument] if [level] is outside
    [\[0, levels)]. A worn-out cell stays stuck but the write attempt is
    still counted (the pulse is applied; it just no longer switches the
    material). *)

val level : t -> int
(** Current stored level (a read pulse; does not wear the cell). *)

val conductance : t -> float
(** Conductance in siemens, linear in the level between
    [g_min_siemens] and [g_max_siemens]. *)

val writes : t -> int
(** Total write pulses applied so far. *)

val is_worn_out : t -> bool

val is_stuck : t -> bool
(** True when the cell no longer switches: either worn out (endurance
    budget exhausted) or carrying an injected manufacture defect. *)


val exhaust : t -> unit
(** Fault-injection hook: consume the remaining endurance budget, so
    the cell is worn out and stuck at its current level — the
    wear-induced variant of the same failure mode. Already-recorded
    writes are kept. *)

type pulse = Set | Reset | Read

val pulse_profile : pulse -> (float * float) list
(** Synthetic (time in ns, temperature in K) trace of a programming
    pulse, reproducing the qualitative shape of Fig. 1(b): the reset
    pulse is short and exceeds the melting temperature, the set pulse is
    longer and stays between crystallisation and melting, the read pulse
    stays below crystallisation. *)

val melt_temperature_k : float
val crystallisation_temperature_k : float
val room_temperature_k : float
