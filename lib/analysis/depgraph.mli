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
  label : string;  (** {!event_label} *)
  reads : Regions.footprint;
  writes : Regions.footprint;
}

type edge = { src : int; dst : int; kind : kind; array : string }

type t = { nodes : node list; edges : edge list }

val top_events : St.t -> St.t list
(** The children of a root [Seq]; any other tree is one event. *)

val event_label : St.t -> string
(** ["S1,S2"] from the event's statement ids, or ["generated code"]
    for an event without statements. *)

val of_tree : St.t -> t
(** A tree that is not a [Seq] yields a single-node graph. *)

val independent_trees : St.t -> St.t -> bool
(** No dependence edge in either direction between the two events:
    executing them in either order gives identical results (up to the
    floating-point reassociation this flow already accepts). The one
    dependence test of the flow: fusion ({!Tdo_tactics.Offload}) and
    translation validation ({!Legality}) both ask it. *)

val to_dot : t -> string
(** GraphViz DOT, deterministic: nodes in sequence order annotated
    with their write/read footprints, edges labelled [RAW/WAR/WAW
    array] (solid/dashed/dotted). *)
