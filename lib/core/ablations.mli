(** Ablation studies for the design choices DESIGN.md calls out.

    Each study isolates one mechanism of the flow and measures its
    effect on the quantities the paper reports. All studies are
    deterministic and return plain rows; [print_*] renders a table. *)

(** {1 Operand pinning (smart vs naive mapping, Fig. 5's mechanism)} *)

type pinning_row = {
  mapping : string;
  crossbar_write_bytes : int;
  energy_j : float;
  lifetime_years_at_25m : float;
}

val pinning : ?n:int -> ?seed:int -> unit -> pinning_row list

(** {1 Kernel fusion on/off (Listing 2's mechanism)} *)

type fusion_row = {
  fusion : bool;
  launches : int;
  cache_flushes : int;
  energy_j : float;
  time_s : float;
}

val fusion : ?n:int -> ?seed:int -> unit -> fusion_row list

(** {1 Double buffering in the micro-engine} *)

type double_buffering_row = { double_buffering : bool; device_time_s : float }

val double_buffering : ?n:int -> ?seed:int -> unit -> double_buffering_row list

(** {1 Selective-offload threshold sweep (the Selective Geomean knob)} *)

type selective_row = {
  min_intensity : float option;
  offloaded : int;
  kept_on_host : int;
  geomean_energy_improvement : float;
}

val selective : ?dataset:Tdo_polybench.Dataset.t -> ?seed:int -> unit -> selective_row list

(** {1 Crossbar geometry sweep} *)

type geometry_row = {
  xbar_size : int;
  launches : int;
  crossbar_write_bytes : int;
  energy_improvement : float;
}

val geometry : ?n:int -> ?seed:int -> unit -> geometry_row list
(** One GEMM against 32..256 crossbars: smaller arrays mean more tiles,
    more launches, more flush overhead. *)

(** {1 Analog noise vs result accuracy} *)

type noise_row = {
  noise_sigma : float option;
  max_abs_error : float;  (** vs the host result *)
}

val noise : ?n:int -> ?seed:int -> unit -> noise_row list
(** Additive per-column analog noise (in integer-LSB units) against the
    accuracy of an offloaded GEMM — the crossbar non-ideality the
    functional model can inject. *)

(** {1 Architectural wear-leveling vs the unlevelled crossbar}

    The paper's related work positions hardware wear-leveling (e.g.
    Start-Gap) as orthogonal to TDO-CIM's compile-time endurance
    optimisations; this study quantifies what Start-Gap contributes
    under skewed write traffic. *)

type wear_leveling_row = {
  scheme : string;
  max_wear : int;
  ideal_max_wear : int;
  overhead_writes : int;  (** gap-copy traffic added by the scheme *)
}

val wear_leveling : ?lines:int -> ?writes:int -> ?seed:int -> unit -> wear_leveling_row list
(** Zipf-skewed row writes against (a) no leveling and (b) Start-Gap
    with a gap move every 16 writes. *)

(** {1 Tile count (multi-tile accelerator DSE)}

    The paper's conclusion invites design-space exploration "by
    tweaking our simulator"; this study scales the number of CIM tiles.
    Batched calls whose entries pin different operands (3mm's first two
    products) execute on different tiles in parallel. *)

type tiles_row = {
  tiles : int;
  time_s : float;
  energy_j : float;
  edp_js : float;
}

val tiles : ?n:int -> ?seed:int -> unit -> tiles_row list
(** The 3mm kernel against 1, 2 and 4 tiles. *)

val print_all : unit -> unit
