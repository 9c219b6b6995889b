module Interp = Tdo_lang.Interp
module Mat = Tdo_linalg.Mat
module Prng = Tdo_util.Prng
module Kernels = Tdo_polybench.Kernels
module Depgraph = Tdo_analysis.Depgraph

type op = Dense | Add | Mul

type layer = { lname : string; op : op; ins : string list; out : string }
type t = { gname : string; inputs : string list; layers : layer list }

let is_ident s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

(* The weight operand of every Dense layer, first-use order. A weight
   may be shared between layers; it appears once. *)
let weights t =
  List.fold_left
    (fun acc l ->
      match (l.op, l.ins) with
      | Dense, w :: _ when not (List.mem w acc) -> w :: acc
      | _ -> acc)
    [] t.layers
  |> List.rev

let graph_outputs t =
  let consumed = List.concat_map (fun l -> l.ins) t.layers in
  List.filter_map
    (fun l -> if List.mem l.out consumed then None else Some l.out)
    t.layers

(* Non-weight operands of a layer: the arrays that imply
   producer→consumer edges. *)
let activation_ins l =
  match (l.op, l.ins) with Dense, _ :: rest -> rest | _ -> l.ins

(* Declaration-order Kahn: deterministic, and doubles as the acyclicity
   check ([None] on a cycle). *)
let kahn layers inputs =
  let n = List.length layers in
  let arr = Array.of_list layers in
  let producer =
    List.concat (List.mapi (fun i l -> [ (l.out, i) ]) layers)
  in
  let deps i =
    activation_ins arr.(i)
    |> List.filter_map (fun a ->
           if List.mem a inputs then None else List.assoc_opt a producer)
  in
  let placed = Array.make n false in
  let order = ref [] in
  let progressed = ref true in
  while !progressed do
    progressed := false;
    for i = 0 to n - 1 do
      if (not placed.(i)) && List.for_all (fun d -> placed.(d)) (deps i) then begin
        placed.(i) <- true;
        order := i :: !order;
        progressed := true
      end
    done
  done;
  if List.length !order = n then Some (List.rev !order) else None

let make ~name ~inputs layers =
  let ( let* ) = Result.bind in
  let* () = if is_ident name then Ok () else Error (Printf.sprintf "bad graph name %S" name) in
  let* () =
    if layers = [] then Error "graph has no layers"
    else if inputs = [] then Error "graph has no inputs"
    else Ok ()
  in
  let check_names what names =
    List.fold_left
      (fun acc n ->
        let* () = acc in
        if is_ident n then Ok () else Error (Printf.sprintf "bad %s name %S" what n))
      (Ok ()) names
  in
  let* () = check_names "input" inputs in
  let* () = check_names "layer" (List.map (fun l -> l.lname) layers) in
  let* () = check_names "array" (List.concat_map (fun l -> l.out :: l.ins) layers) in
  let dup what names =
    let rec go = function
      | [] -> Ok ()
      | x :: rest ->
          if List.mem x rest then Error (Printf.sprintf "duplicate %s %S" what x)
          else go rest
    in
    go names
  in
  let* () = dup "input" inputs in
  let* () = dup "layer name" (List.map (fun l -> l.lname) layers) in
  let* () = dup "layer output" (List.map (fun l -> l.out) layers) in
  let produced = List.map (fun l -> l.out) layers in
  let g = { gname = name; inputs; layers } in
  let ws = weights g in
  let* () =
    List.fold_left
      (fun acc l ->
        let* () = acc in
        let arity_ok = match l.op with Dense | Add | Mul -> List.length l.ins = 2 in
        let* () =
          if arity_ok then Ok ()
          else Error (Printf.sprintf "layer %s: expected 2 operands" l.lname)
        in
        let* () =
          if List.mem l.out inputs then
            Error (Printf.sprintf "layer %s writes graph input %S" l.lname l.out)
          else Ok ()
        in
        let* () =
          match (l.op, l.ins) with
          | Dense, w :: _ when List.mem w inputs || List.mem w produced ->
              Error
                (Printf.sprintf "layer %s: weight %S collides with an activation" l.lname w)
          | _ -> Ok ()
        in
        List.fold_left
          (fun acc a ->
            let* () = acc in
            if List.mem a inputs || List.mem a produced then
              if List.mem a ws then
                Error (Printf.sprintf "layer %s: %S is both weight and activation" l.lname a)
              else Ok ()
            else Error (Printf.sprintf "layer %s reads undefined array %S" l.lname a))
          (Ok ()) (activation_ins l))
      (Ok ()) layers
  in
  match kahn layers inputs with
  | Some _ -> Ok g
  | None -> Error (Printf.sprintf "graph %s has a dependence cycle" name)

let topo_order t =
  match kahn t.layers t.inputs with
  | Some o -> o
  | None -> invalid_arg "Graph.topo_order: cyclic graph" (* impossible via [make] *)

let valid_order t order =
  let n = List.length t.layers in
  List.sort compare order = List.init n Fun.id
  &&
  let arr = Array.of_list t.layers in
  let producer = List.mapi (fun i l -> (l.out, i)) t.layers in
  let position = Array.make n 0 in
  List.iteri (fun pos i -> position.(i) <- pos) order;
  List.for_all
    (fun i ->
      List.for_all
        (fun a ->
          match List.assoc_opt a producer with
          | Some p -> position.(p) < position.(i)
          | None -> true)
        (activation_ins arr.(i)))
    (List.init n Fun.id)

(* ---------- composed source ---------- *)

(* Fixed parameter order regardless of the emission order: weights,
   then graph inputs, then produced arrays in declaration order — so
   one argument list serves every topological order. *)
let params t = weights t @ t.inputs @ List.map (fun l -> l.out) t.layers

let to_source ?order t ~n =
  let order = match order with Some o -> o | None -> topo_order t in
  if not (valid_order t order) then invalid_arg "Graph.to_source: not a topological order";
  let arr = Array.of_list t.layers in
  let ws = weights t in
  let param name =
    if List.mem name ws then Printf.sprintf "float %s[%d][%d]" name n n
    else Printf.sprintf "float %s[%d]" name n
  in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "void kernel_%s(%s) {\n" t.gname
       (String.concat ", " (List.map param (params t))));
  List.iter
    (fun i ->
      let l = arr.(i) in
      match (l.op, l.ins) with
      | Dense, [ w; x ] ->
          Buffer.add_string b
            (Printf.sprintf
               "  for (int i = 0; i < %d; i++) {\n    %s[i] = 0.0;\n    for (int j = 0; \
                j < %d; j++)\n      %s[i] += %s[i][j] * %s[j];\n  }\n"
               n l.out n l.out w x)
      | (Add | Mul), [ a; c ] ->
          Buffer.add_string b
            (Printf.sprintf "  for (int i = 0; i < %d; i++)\n    %s[i] = %s[i] %s %s[i];\n"
               n l.out a
               (if l.op = Add then "+" else "*")
               c)
      | _ -> invalid_arg "Graph.to_source: malformed layer" (* impossible via [make] *))
    order;
  Buffer.add_string b "}\n";
  Buffer.contents b

let macs t ~n =
  List.fold_left
    (fun acc l -> acc + match l.op with Dense -> n * n | Add | Mul -> n)
    0 t.layers

(* ---------- request data ---------- *)

(* FNV-1a: a stable string hash (Hashtbl.hash is not guaranteed across
   versions) scoping weight data to the (graph, weight) pair. *)
let name_seed s =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3fffffff) s;
  !h

(* Model weights, drawn once per (graph, weight) for the whole process
   and kept for the last size asked for: at most one n x n matrix per
   weight of each graph served, so the table stays small and outside
   anything a scheduler retains. [make_args] runs on worker domains,
   hence the lock. Each request gets its own copy: a request's argument
   arrays are its own, and whatever runs it ([Exec.exec], the host
   path's [Interp.run]) writes back the arrays its program writes. A
   graph program never writes a weight, but the shared table must not
   rest on that. *)
let weight_data : (string, int * float array) Hashtbl.t = Hashtbl.create 16
let weight_lock = Mutex.create ()

let model_weight t name ~n =
  let scoped = t.gname ^ "/" ^ name in
  let data =
    Mutex.protect weight_lock (fun () ->
        match Hashtbl.find_opt weight_data scoped with
        | Some (drawn_n, data) when drawn_n = n -> data
        | Some _ | None ->
            let g = Prng.create ~seed:(name_seed scoped) in
            let data = (Kernels.random_arr g ~dims:[ n; n ]).Interp.data in
            Hashtbl.replace weight_data scoped (n, data);
            data)
  in
  { Interp.dims = [ n; n ]; data = Array.copy data }

let make_args t ~n ~seed =
  let ws = weights t in
  let bindings =
    List.map
      (fun name ->
        if List.mem name ws then
          (* model-scoped: every request of this graph carries the same
             weights — the invariant weight residency rests on *)
          (name, Interp.Varray (model_weight t name ~n))
        else if List.mem name t.inputs then
          let g = Prng.create ~seed:(seed lxor name_seed name) in
          (name, Interp.Varray (Kernels.random_arr g ~dims:[ n ]))
        else (name, Interp.Varray (Kernels.zero_arr ~dims:[ n ])))
      (params t)
  in
  let outs = graph_outputs t in
  let readback () =
    List.map
      (fun o ->
        match List.assoc o bindings with
        | Interp.Varray arr -> Kernels.mat_of_vec arr
        | _ -> assert false)
      outs
  in
  (bindings, readback)

let kernel_name t = "graph:" ^ t.gname

let benchmark t =
  {
    Kernels.name = kernel_name t;
    description =
      Printf.sprintf "%d-layer graph program (%d dense, %d weights)"
        (List.length t.layers)
        (List.length (List.filter (fun l -> l.op = Dense) t.layers))
        (List.length (weights t));
    kind = Kernels.Gemv_like;
    source = (fun ~n -> to_source t ~n);
    macs = (fun ~n -> macs t ~n);
    make_args = (fun ~n ~seed -> make_args t ~n ~seed);
  }

(* ---------- dependence-edge inference ---------- *)

let infer_edges t ~n =
  let source = to_source t ~n in
  let f0 = Tdo_ir.Lower.func (Tdo_lang.Parser.parse_func source) in
  match Tdo_poly.Scop_detect.detect_func f0 with
  | Error msg -> Error ("graph dependence inference: " ^ msg)
  | Ok tree ->
      let dg = Depgraph.of_tree tree in
      let nlayers = List.length t.layers in
      if List.length dg.Depgraph.nodes <> nlayers then
        Error
          (Printf.sprintf
             "graph dependence inference: %d top-level events for %d layers"
             (List.length dg.Depgraph.nodes) nlayers)
      else
        Ok
          (List.map
             (fun (e : Depgraph.edge) ->
               (e.Depgraph.src, e.Depgraph.dst, e.Depgraph.kind, e.Depgraph.array))
             dg.Depgraph.edges)

let run_host ?order t ~n ~seed =
  let ast = Tdo_lang.Parser.parse_func (to_source ?order t ~n) in
  Tdo_lang.Typecheck.check_func ast;
  let args, readback = make_args t ~n ~seed in
  Interp.run ast ~args;
  readback ()

(* ---------- workload generators ---------- *)

let mlp ?(name = "mlp") ~layers () =
  if layers < 1 then invalid_arg "Graph.mlp: need at least one layer";
  let name = if name = "mlp" then Printf.sprintf "mlp%d" layers else name in
  let layer i =
    let src = if i = 0 then "x" else Printf.sprintf "h%d" i in
    {
      lname = Printf.sprintf "fc%d" (i + 1);
      op = Dense;
      ins = [ Printf.sprintf "W%d" (i + 1); src ];
      out = Printf.sprintf "h%d" (i + 1);
    }
  in
  match make ~name ~inputs:[ "x" ] (List.init layers layer) with
  | Ok g -> g
  | Error msg -> invalid_arg ("Graph.mlp: " ^ msg)

let attention ?(name = "attn") () =
  (* Single-head block at vector granularity: three parallel
     projections of x, an element-wise score and weighting in place of
     the softmax, and an output projection — enough width that the
     topological order is genuinely non-unique. *)
  let layers =
    [
      { lname = "proj_q"; op = Dense; ins = [ "Wq"; "x" ]; out = "q" };
      { lname = "proj_k"; op = Dense; ins = [ "Wk"; "x" ]; out = "k" };
      { lname = "proj_v"; op = Dense; ins = [ "Wv"; "x" ]; out = "v" };
      { lname = "score"; op = Mul; ins = [ "q"; "k" ]; out = "s" };
      { lname = "weighted"; op = Mul; ins = [ "s"; "v" ]; out = "w" };
      { lname = "proj_out"; op = Dense; ins = [ "Wo"; "w" ]; out = "y" };
    ]
  in
  match make ~name ~inputs:[ "x" ] layers with
  | Ok g -> g
  | Error msg -> invalid_arg ("Graph.attention: " ^ msg)

let standard = [ mlp ~layers:4 (); attention () ]

let find name =
  let bare =
    match String.index_opt name ':' with
    | Some i when String.sub name 0 i = "graph" ->
        String.sub name (i + 1) (String.length name - i - 1)
    | _ -> name
  in
  match List.find_opt (fun g -> g.gname = bare) standard with
  | Some g -> Ok g
  | None ->
      Error
        (Printf.sprintf "unknown graph %S (expected %s)" name
           (String.concat ", " (List.map (fun g -> g.gname) standard)))

let find_bench name =
  if String.length name >= 6 && String.sub name 0 6 = "graph:" then
    Result.map benchmark (find name)
  else Kernels.find name
