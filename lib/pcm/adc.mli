(** Shared analog-to-digital converter with sample-and-hold front end
    (paper Section II-B, ISAAC-style sharing).

    The columns of the crossbar are multiplexed onto a small number of
    ADCs through sample-and-hold circuits; the model tracks conversion
    and sampling counts so the energy model can charge the mixed-signal
    budget of Table I, and quantises the analog column current to the
    converter's resolution. *)

type config = {
  bits : int;  (** converter resolution *)
  columns_per_adc : int;  (** sharing factor via S&H *)
}

val default_config : config
(** 8-bit converters, 32 columns per ADC. *)

type t

val create : ?config:config -> unit -> t
val config : t -> config

val convert : t -> full_scale:float -> float -> int
(** [convert t ~full_scale current] samples the analog value (one S&H
    event) and converts it (one ADC event) to a signed integer code,
    quantising to [bits] resolution with [full_scale] mapped to the
    largest code. [full_scale] must be positive. *)

val count : t -> int -> unit
(** [count t n] records [n] sample-and-convert events whose codes nobody
    reads: {!samples} and {!conversions} grow by [n] each, exactly as
    after [n] calls of {!convert}. The crossbar charges a GEMV's
    conversions this way, two per active column. Raises
    [Invalid_argument] when [n] is negative. *)

val conversions : t -> int
(** Total ADC conversion events. *)

val samples : t -> int
(** Total S&H sampling events. *)

val adc_count_for_columns : t -> int -> int
(** Number of physical ADC instances needed to serve [n] columns. *)
