(** Generic worklist dataflow over the [Ir] statement graph.

    The IR keeps loops first-class, so the control-flow graph is
    recovered structurally: one node per atomic statement, one head
    node per loop (bound evaluation) with a back edge from the last
    body statement and an exit edge to the loop's continuation, plus
    distinguished entry/exit nodes. A classic worklist fixpoint over a
    join-semilattice, in either direction, solves the two analyses the
    analysis layer uses: reaching definitions with host/device
    placement, and array liveness. *)

module Ir = Tdo_ir.Ir
module Strings = Regions.Strings

type point =
  | Entry
  | Exit
  | Head of { var : string }  (** loop-bound evaluation of iterator [var] *)
  | Atom of Ir.stmt  (** any non-loop statement *)

type node = { id : int; point : point; loops : string list  (** enclosing iterators, innermost first *) }

type graph

val nodes : graph -> node array
(** In program order ([Entry] first, [Exit] last). *)

val exit_id : graph -> int

(** {1 Reaching definitions}

    Array-granularity last-definition analysis with placement: a
    definition records where the array's freshest value lives. Host
    assignments and [d2h] copies define on the host; [gemm]/[im2col]
    calls define on the device; any definition kills the previous ones
    of that array, and [h2d] retires device definitions (the device
    copy now mirrors the host). A device definition reaching a host
    read is exactly lint W009's stale-read hazard. *)

module Def : sig
  type t = { site : int; array : string; on_device : bool }
end

module Defs : Set.S with type elt = Def.t

val reaching_definitions : Ir.func -> graph * Defs.t array
(** Per-node {e incoming} definition sets; array parameters are
    host-defined at entry. *)

(** {1 Array liveness} *)

val live_arrays : Ir.func -> graph * Strings.t array
(** Backward liveness at array granularity: the arrays read at or
    after each node (partial writes never kill). The per-node sets are
    live-in; their union over all nodes is exactly the arrays the
    function ever reads, which is how {!Lint} drives W004/W005. *)
