(** Program-level kernel dependence graph.

    Nodes are the top-level events of a schedule tree (the children of
    the root [Seq] — kernel nests, host statements, generated code);
    edges are RAW/WAR/WAW dependences between events derived from
    {!Regions} footprint overlap. Two events without an edge commute:
    this is the proof the fusion rewrite consults ([Legality],
    {!Tdo_tactics.Offload}), and [tdoc --depgraph] exports the graph
    as GraphViz DOT. *)

module St = Tdo_poly.Schedule_tree

type kind = Raw | War | Waw

type node = {
  index : int;  (** position in the top-level sequence *)
  label : string;  (** ["S1,S2"] from statement ids, or ["code"] *)
  reads : Regions.footprint;
  writes : Regions.footprint;
}

type edge = { src : int; dst : int; kind : kind; array : string }

type t = { nodes : node list; edges : edge list }

val of_tree : St.t -> t
(** A tree that is not a [Seq] yields a single-node graph. *)

val independent_trees : St.t -> St.t -> bool
(** No dependence edge in either direction between the two events:
    executing them in either order gives identical results (up to the
    floating-point reassociation this flow already accepts). At least
    as precise as
    {!Tdo_poly.Deps.independent}: identical on statement-only trees,
    sharper on [Code] events whose runtime-call operand windows get
    real regions instead of whole-array unknowns. *)

val to_dot : t -> string
(** GraphViz DOT, deterministic: nodes in sequence order annotated
    with their write/read footprints, edges labelled [RAW/WAR/WAW
    array] (solid/dashed/dotted). *)
