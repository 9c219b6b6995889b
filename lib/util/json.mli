(** A minimal JSON reader/writer.

    The repo takes no JSON dependency; the benchmark reports
    ({!Bench_report}) and the autotuner's configuration database
    ({!Tdo_tune.Db}) write hand-rolled JSON and read it back through
    this parser. The subset is complete for those schemas: objects,
    arrays, strings, numbers, booleans and null, with the usual string
    escapes ([\uXXXX] limited to the ASCII plane). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** [Error] carries the byte offset and a short description. Arrays
    and objects nested more than 256 deep are an [Error]. *)

val of_file : string -> (t, string) result
(** {!parse} on a whole file; I/O errors become [Error]. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** First binding of the name in an [Obj]; [None] otherwise. *)

val to_float : t -> float option
(** [Num] and [Bool] (0/1); [None] otherwise. *)

val to_string_opt : t -> string option
val to_list : t -> t list
(** [Arr] elements; [[]] for any other constructor. *)

(** {1 Emission} *)

val escape_string : string -> string
(** Body of a JSON string literal (no surrounding quotes). *)

val number : float -> string
(** Integral floats print without a fraction; NaN/infinities, which
    JSON cannot represent, print as [null]. *)

val to_string : t -> string
(** Compact single-line rendering; [parse (to_string v)] round-trips
    modulo float formatting precision. *)
