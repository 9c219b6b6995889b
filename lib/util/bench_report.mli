(** Machine-readable benchmark reports (BENCH_sim.json).

    The driver binaries time their experiment sections — once with the
    {!Pool} fan-out and once forced sequential — and serialise
    wall-clock, allocation and speedup numbers as JSON. The writer is
    hand-rolled: the schema is flat and the repo takes no JSON
    dependency for it. *)

type measure = {
  elapsed_s : float;  (** wall-clock seconds *)
  minor : float;  (** minor-heap words allocated *)
  major : float;  (** major-heap words allocated (incl. promotions) *)
  promoted : float;  (** words promoted minor -> major *)
}

type section = {
  name : string;
  wall_s : float;  (** wall-clock of the (possibly parallel) run *)
  minor_words : float;  (** minor-heap words allocated during the run *)
  major_words : float;  (** major-heap words allocated during the run *)
  promoted_words : float;  (** words promoted minor -> major during the run *)
  domains : int;  (** {!Pool.size} when the section was measured *)
  seq_wall_s : float option;  (** same work with {!Pool} forced sequential *)
}

val timed : (unit -> 'a) -> 'a * measure
(** [timed f] runs [f] and returns its result plus wall-clock and
    GC counters ([Gc.quick_stat] deltas) for the run. *)

val of_measure : name:string -> ?seq_wall_s:float -> measure -> section
(** Promote a {!timed} measurement to a report section, stamping the
    current {!Pool.size}. *)

val section : name:string -> ?seq_wall_s:float -> (unit -> 'a) -> 'a * section

val write :
  path:string ->
  ?extra:(string * float) list ->
  ?notes:string ->
  sections:section list ->
  unit ->
  unit
(** Write the report. [extra] holds free-form numeric facts (e.g. a
    recorded baseline). Always records the domain count ({!Pool.size})
    and whether the pool was forced sequential. *)

(** {1 Comparing against a previous report}

    The driver binaries historically computed speedups against recorded
    baselines with ad-hoc float arithmetic; [compare] centralises it:
    load the previous [BENCH_*.json], match sections by name, and emit
    per-entry delta/regression fields ready for [write]'s [~extra]. *)

type delta = {
  name : string;  (** section name present in both reports *)
  wall_s : float;  (** this run *)
  baseline_wall_s : float;  (** previous report *)
  delta_s : float;  (** [wall_s - baseline_wall_s] *)
  speedup_vs_baseline : float;  (** [baseline_wall_s / wall_s] *)
  regression : bool;  (** this run slower than baseline by more than the tolerance *)
  minor_words : float;  (** this run's minor-heap allocation *)
  baseline_minor_words : float;  (** previous report's; 0 when absent *)
  alloc_regression : bool;
      (** this run allocated more than the baseline by more than
          [alloc_tolerance] (only when the baseline recorded a non-zero
          figure — allocation is deterministic, so this catches perf
          regressions that wall-clock noise on small machines hides) *)
}

val load_sections : path:string -> (section list, string) result
(** Read the [sections] array of a previously written report.
    [seq_wall_s] round-trips; derived fields are ignored. *)

val compare :
  ?tolerance:float ->
  ?alloc_tolerance:float ->
  baseline:string ->
  section list ->
  (delta list, string) result
(** Match [sections] by name against the report at [baseline] (a path).
    Sections missing from either side are skipped. [tolerance]
    (default 0.10) is the relative slowdown above which [regression]
    is set; [alloc_tolerance] (default 0.25) likewise for
    [alloc_regression]. [Error] reports an unreadable or malformed
    baseline. *)

val delta_fields : delta list -> (string * float) list
(** Flatten deltas for [write ~extra]: per section,
    [<name>_baseline_wall_s], [<name>_delta_s],
    [<name>_speedup_vs_baseline], [<name>_regression] (0/1),
    [<name>_baseline_minor_words] and [<name>_alloc_regression] (0/1). *)
