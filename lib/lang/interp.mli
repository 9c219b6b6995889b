(** Reference interpreter — the semantic golden model.

    Array stores round to IEEE binary32 exactly like the simulated
    memory does, so a correct compilation pipeline reproduces the
    interpreter's results bit-for-bit. *)

exception Runtime_error of string

type arr = { dims : int list; data : float array }

type value = Vint of int | Vfloat of float | Varray of arr

val make_array : dims:int list -> arr
(** Zero-initialised. *)

val arr_of_mat : Tdo_linalg.Mat.t -> arr
val mat_of_arr : arr -> Tdo_linalg.Mat.t
(** 2-D conversions; raise {!Runtime_error} for other ranks. *)

val run : Ast.func -> args:(string * value) list -> unit
(** Execute a (type-checked) function. [Varray] arguments are mutated
    in place; scalars are read-only inputs. Raises {!Runtime_error} on
    argument mismatch or out-of-bounds access. *)
