(** Persisted tuning database.

    Maps a kernel's structural digest
    ({!Tdo_lang.Ast.structural_digest} — the same key space the serving
    layer's compiled-kernel cache uses) to the configuration the search
    settled on, together with the measured evidence. The on-disk form
    is a single JSON document ([tdo-cim-tunedb/1]) written atomically
    (temp file + rename), so a database can be produced by [bin/tune],
    checked in, and consumed by [tdoc --tune-db], the serving
    scheduler, or a later tuning run that extends it. *)

module Ast = Tdo_lang.Ast

type entry = {
  digest : string;
  kernel : string;  (** function name, informational *)
  n : int;  (** problem size the entry was tuned at; [0] when unknown *)
  device_class : Tdo_backend.Backend.device_class;
      (** class the configuration was measured on; entries are keyed by
          (digest, class), so one kernel can carry one tuned
          configuration per class. Schema-1 databases load as
          [Pcm_crossbar]. *)
  objective : string;
  config : Space.point;
  tuned_cycles : int;
  default_cycles : int;
  tuned_write_bytes : int;
  default_write_bytes : int;
  calibration_error : float;
}

type t

val empty : t
val size : t -> int
val entries : t -> entry list
(** Sorted by kernel name, then digest, then device class. *)

val add : t -> entry -> t
(** Replaces any previous entry with the same (digest, device class). *)

val find : ?cls:Tdo_backend.Backend.device_class -> t -> string -> entry option
(** The entry tuned for [cls] (default [Pcm_crossbar]) under this
    digest, if any. *)

val lookup : ?cls:Tdo_backend.Backend.device_class -> t -> Ast.func -> entry option
(** {!find} on the function's structural digest. *)

val entry_of_result : n:int -> Search.result -> entry
(** Package a search result for the database (the result's device
    class is stamped into the entry). *)

val config_for :
  ?device:int * int ->
  ?cls:Tdo_backend.Backend.device_class ->
  t ->
  string ->
  Space.point option
(** The configuration tuned {e for this device class} (default
    [Pcm_crossbar]) under this structural digest, if any. A
    configuration measured on a different class is refused — [None],
    never a clamped cross-class transfer — so the caller compiles with
    the class-appropriate default instead.
    With [device:(rows, cols)] — the geometry of the crossbars that
    will actually run the kernel — a tuned geometry larger than the
    device is clamped to it; the remaining knobs (fusion, tiling,
    pinning, threshold) always transfer. *)

val load : string -> (t, string) result
(** A missing file loads as {!empty}; a malformed one is an [Error]. *)

val save : t -> string -> unit
val to_json : t -> Tdo_util.Json.t
val of_json : Tdo_util.Json.t -> (t, string) result
