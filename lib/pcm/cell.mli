(** The phase-change-memory (PCM) device of paper Section II-A, Fig. 1:
    its parameters and its programming pulses.

    A cell stores one of [levels] conductance states. Programming (a
    reset pulse followed by a set pulse) moves the device to a new level
    and consumes one write out of its endurance budget; once the budget
    is exhausted the cell is worn out and is stuck at its last level,
    silently ignoring further programming — exactly the failure mode the
    paper's endurance-aware transformations try to delay. {!Crossbar}
    keeps the state of every cell of an array and applies these rules. *)

type config = {
  levels : int;  (** distinct conductance states, 16 for a 4-bit cell *)
  endurance : int;  (** writes before wear-out; paper range 1e6..1e8 *)
}

val default_config : config
(** 4-bit IBM PCM cell: 16 levels, 2.5e7 writes. *)

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
