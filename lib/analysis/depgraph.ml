module St = Tdo_poly.Schedule_tree

type kind = Raw | War | Waw

let kind_label = function Raw -> "RAW" | War -> "WAR" | Waw -> "WAW"

type node = {
  index : int;
  label : string;
  reads : Regions.footprint;
  writes : Regions.footprint;
}

type edge = { src : int; dst : int; kind : kind; array : string }

type t = { nodes : node list; edges : edge list }

let top_events = function St.Seq children -> children | t -> [ t ]

let event_label ev =
  match List.map (fun (s : St.stmt_info) -> s.St.sid) (St.stmts ev) with
  | [] -> "generated code"
  | sids -> "S" ^ String.concat ",S" (List.map string_of_int sids)

let node_of index tree =
  let reads, writes = Regions.footprints tree in
  { index; label = event_label tree; reads; writes }

(* dependences from [x] (earlier) to [y] (later) *)
let edges_between x y =
  let mk kind arrays =
    List.map (fun array -> { src = x.index; dst = y.index; kind; array }) arrays
  in
  mk Raw (Regions.overlapping x.writes y.reads)
  @ mk War (Regions.overlapping x.reads y.writes)
  @ mk Waw (Regions.overlapping x.writes y.writes)

let of_tree tree =
  let nodes = List.mapi node_of (top_events tree) in
  let rec pairs acc = function
    | [] -> acc
    | x :: rest -> pairs (acc @ List.concat_map (edges_between x) rest) rest
  in
  { nodes; edges = pairs [] nodes }

let independent_trees x y = edges_between (node_of 0 x) (node_of 1 y) = []

let to_dot g =
  let buf = Buffer.create 256 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "digraph depgraph {\n";
  pr "  rankdir=LR;\n";
  pr "  node [shape=box, fontname=\"monospace\"];\n";
  List.iter
    (fun n ->
      pr "  n%d [label=\"%s\\nW: %s\\nR: %s\"];\n" n.index n.label
        (Format.asprintf "%a" Regions.pp_footprint n.writes)
        (Format.asprintf "%a" Regions.pp_footprint n.reads))
    g.nodes;
  let style = function Raw -> "solid" | War -> "dashed" | Waw -> "dotted" in
  List.iter
    (fun e ->
      pr "  n%d -> n%d [label=\"%s %s\", style=%s];\n" e.src e.dst (kind_label e.kind)
        e.array (style e.kind))
    g.edges;
  pr "}\n";
  Buffer.contents buf
