(** Shared analog-to-digital converter with sample-and-hold front end
    (paper Section II-B, ISAAC-style sharing).

    The columns of the crossbar are multiplexed onto a small number of
    ADCs through sample-and-hold circuits. The model counts sampling
    and conversion events so the energy model can charge the
    mixed-signal budget of Table I; the codes themselves are the
    crossbar's exact integer column sums. *)

type t

val create : unit -> t

val count : t -> int -> unit
(** [count t n] records [n] sample-and-convert events: {!samples} and
    {!conversions} grow by [n] each. The crossbar charges a GEMV's
    conversions this way, two per active column. Raises
    [Invalid_argument] when [n] is negative. *)

val conversions : t -> int
(** Total ADC conversion events. *)

val samples : t -> int
(** Total S&H sampling events. *)
