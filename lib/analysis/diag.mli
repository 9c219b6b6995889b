(** Structured diagnostics for the static-analysis layer.

    Every checker in [tdo_analysis] reports through this type: a stable
    code (["E102"], ["W001"], ...), a severity, a human message naming
    the offending array/statement, and an optional fix hint. Codes are
    grouped by family: [E0xx] IR well-formedness, [E05x]/[W05x]
    schedule-tree invariants, [E1xx] rewrite legality, [E2xx]/[W2xx]
    array bounds, [W0xx] lint warnings, [N0xx] explanatory notes. *)

type severity = Error | Warning | Note

type t = {
  code : string;
  severity : severity;
  message : string;
  fix_hint : string option;
}

val errorf : ?hint:string -> string -> ('a, unit, string, t) format4 -> 'a
(** [errorf ?hint code fmt ...] builds an [Error] diagnostic. *)

val warningf : ?hint:string -> string -> ('a, unit, string, t) format4 -> 'a
val notef : ?hint:string -> string -> ('a, unit, string, t) format4 -> 'a

val prefixed : string -> t -> t
(** [prefixed pass d] tags the message with the pass that produced it,
    e.g. [(interchange) dependent statements reordered ...]. *)

val errors : t list -> t list
val has_errors : t list -> bool

val by_severity : t list -> t list
(** Stable sort, errors first. *)

val canonical : t list -> t list
(** Deterministic presentation order: sorted by (code, message) —
    messages embed the location (statement ids, array names) — then
    severity and hint, with exact duplicates removed. Printing a
    canonicalised list is byte-stable across runs. *)

val pp_list : Format.formatter -> t list -> unit
