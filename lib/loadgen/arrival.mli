(** Open-loop arrival processes.

    An arrival process turns a seeded PRNG stream into a sequence of
    inter-arrival gaps (picoseconds) — open-loop: the client issues on
    its own schedule regardless of how the server is coping, which is
    what makes overload visible instead of self-throttling away. Three
    shapes:

    - [Poisson]: memoryless at a fixed rate — the steady-state model.
    - [Bursty]: a two-state Markov-modulated Poisson process; dwell
      times in the quiet (base-rate) and burst phase are exponential
      with the given means. Models flash crowds and retry storms.
    - [Diurnal]: a non-homogeneous Poisson process (by thinning) whose
      rate sweeps a raised cosine from [base] up to [peak] and back
      over [period] — a day's traffic curve compressed to the period.

    Generation is deterministic in the PRNG: same seed, same gaps,
    byte-identical traces. *)

module Prng = Tdo_util.Prng

type process =
  | Poisson of { rate_rps : float }
  | Bursty of {
      base_rps : float;  (** quiet-phase rate *)
      burst_rps : float;  (** burst-phase rate *)
      mean_burst_s : float;  (** mean dwell in the burst phase *)
      mean_quiet_s : float;  (** mean dwell in the quiet phase *)
    }
  | Diurnal of { base_rps : float; peak_rps : float; period_s : float }

val describe : process -> string
(** The spec string {!parse} accepts, e.g. ["poisson:25000"]. *)

val parse : string -> (process, string) result
(** [poisson:RATE], [bursty:BASE:BURST:ON_S:OFF_S],
    [diurnal:BASE:PEAK:PERIOD_S] — rates in requests per second,
    durations in seconds. *)

val gaps_ps : process -> Prng.t -> unit -> int
(** A stateful gap generator over [g]: each call returns the next
    inter-arrival gap in picoseconds (always [>= 1], so per-stream
    timestamps are strictly increasing). The closure owns its phase /
    thinning state; draws advance [g]. *)

val mean_rate_rps : process -> float
(** Long-run mean arrival rate: the configured rate for [Poisson], the
    dwell-weighted mean for [Bursty], the raised-cosine mean
    [(base + peak) / 2] for [Diurnal]. What the inter-arrival-mean
    property test checks against. *)
