(** Multi-kernel graph programs: the DNN-serving workload unit.

    TDO-CIM detects and offloads kernels one at a time, but real CIM
    traffic (per the DNN-compiler related work) is {e graphs} of
    batched GEMV layers whose weights are shared across requests. A
    {!t} is a DAG of layers over named arrays: [Dense] layers are
    weight-times-activation GEMVs (the tactics detector offloads
    them), [Add]/[Mul] layers are element-wise host combinators.
    Producer→consumer edges are implied by array names — a layer
    reading another layer's output depends on it.

    A graph compiles to {e one} mini-C function: its layers emitted as
    consecutive loop nests in topological order, so the whole multi-
    layer program flows through the existing parse → detect → offload
    → serve stack unchanged. Any topological order computes the same
    function (each layer writes only its own output array); the region
    dependence analysis can re-derive the edges from the composed
    source ({!infer_edges}), which is the proof the order-invariance
    test leans on.

    Weight arrays are seeded by {e (graph, weight) name} — not by the
    request — so every request of the same model carries bit-identical
    weights. That is what makes cross-request weight residency sound:
    replaying the same compiled entry re-programs the same bytes, so a
    device that kept the crossbar tiles pinned can skip programming
    entirely without changing any result. Activations remain seeded
    per request. *)

module Interp = Tdo_lang.Interp
module Mat = Tdo_linalg.Mat
module Kernels = Tdo_polybench.Kernels
module Depgraph = Tdo_analysis.Depgraph

type op =
  | Dense  (** [out = W · x]: the offloadable GEMV layer *)
  | Add  (** element-wise [out = a + b] (host code) *)
  | Mul  (** element-wise [out = a * b] (host code) *)

type layer = {
  lname : string;
  op : op;
  ins : string list;
      (** [Dense]: [[weight; activation]] — the weight name is an
          external array that exists only as this (or another Dense)
          layer's operand. [Add]/[Mul]: two activations (graph inputs
          or other layers' outputs). *)
  out : string;  (** array this layer produces; unique per layer *)
}

type t = private {
  gname : string;  (** model name; the serving kernel is ["graph:" ^ gname] *)
  inputs : string list;  (** request-seeded activation arrays *)
  layers : layer list;  (** declaration order; any topological order is valid *)
}

val make : name:string -> inputs:string list -> layer list -> (t, string) result
(** Validate and build: names must be C identifiers, layer names and
    outputs unique, every non-weight operand defined (a graph input or
    a produced array), weights distinct from both, and the implied
    producer→consumer graph acyclic. *)

val weights : t -> string list
(** Weight arrays in first-use order — the residency working set. *)

val graph_outputs : t -> string list
(** Arrays produced but never consumed, in production order: what a
    request reads back. *)

val topo_order : t -> int list
(** Deterministic (declaration-order Kahn) topological order of layer
    indices. *)

val valid_order : t -> int list -> bool
(** Is this permutation of layer indices a topological order? *)

val make_args :
  t -> n:int -> seed:int -> (string * Interp.value) list * (unit -> Mat.t list)
(** Argument bindings for one request: weights seeded by (graph,
    weight) name — identical across requests of the model — inputs by
    [seed], produced arrays zeroed. The readback closure returns
    {!graph_outputs} as [n]x1 matrices. *)

val benchmark : t -> Kernels.benchmark
(** Package as a serving benchmark named ["graph:" ^ gname], ready for
    the scheduler, loadgen mixes and the tuner. *)

val kernel_name : t -> string

val infer_edges : t -> n:int -> ((int * int * Depgraph.kind * string) list, string) result
(** Re-derive the layer dependence edges from the composed source via
    the schedule-tree region analysis ({!Tdo_analysis.Depgraph}):
    [(src, dst, kind, array)] with layer indices in [order]-less
    (declaration topological) emission order. Errors if the detector
    does not yield one top-level event per layer. *)

val run_host : ?order:int list -> t -> n:int -> seed:int -> Mat.t list
(** Reference execution: interpret the composed source (in [order],
    default {!topo_order}) under {!make_args} and return the readback —
    the sequential oracle the order-invariance test compares against. *)

val mlp : ?name:string -> layers:int -> unit -> t
(** [layers] Dense layers chained x → h1 → … — the MLP workload. *)

val attention : ?name:string -> unit -> t
(** An attention-style block: three parallel Dense projections (Wq,
    Wk, Wv) of one input, element-wise score/weighting combinators,
    and a Dense output projection — a DAG with real width, not a
    chain. *)

val standard : t list
(** The serving models: [mlp ~layers:4] ("mlp4") and [attention]
    ("attn"). *)

val find_bench : string -> (Kernels.benchmark, string) result
(** The {!benchmark} of a standard model named by graph or serving
    kernel name (["mlp4"] or ["graph:mlp4"]); falls back to
    {!Kernels.find} for plain PolyBench kernel names, so call sites
    can resolve any serving kernel name through one function. *)
