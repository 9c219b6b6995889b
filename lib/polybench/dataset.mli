(** Problem-size presets, PolyBench style. Sizes are chosen so a full
    Fig. 6 sweep simulates in seconds-to-minutes; the paper's
    qualitative results (who wins, roughly by how much) are stable
    across them. *)

type t = Mini | Small | Medium | Large

val n : t -> int
(** Square-matrix extent: 16 / 32 / 64 / 96. *)

val to_string : t -> string
val of_string : string -> (t, string) result
