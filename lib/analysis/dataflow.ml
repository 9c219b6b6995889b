module Ir = Tdo_ir.Ir
module Ast = Tdo_lang.Ast
module Strings = Regions.Strings

module type LATTICE = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
end

type direction = Forward | Backward

type point = Entry | Exit | Head of { var : string } | Atom of Ir.stmt

type node = { id : int; point : point; loops : string list }

type graph = {
  node_arr : node array;
  succ_arr : int list array;
  pred_arr : int list array;
  entry : int;
  exit_ : int;
}

let nodes g = g.node_arr
let exit_id g = g.exit_

let graph_of_func (f : Ir.func) =
  let rev_nodes = ref [] and count = ref 0 and edges = ref [] in
  let add point loops =
    let id = !count in
    incr count;
    rev_nodes := { id; point; loops } :: !rev_nodes;
    id
  in
  let edge a b = edges := (a, b) :: !edges in
  let entry = add Entry [] in
  let rec emit ~loops pred (s : Ir.stmt) =
    match s with
    | Ir.For { var; body; _ } ->
        let head = add (Head { var }) loops in
        edge pred head;
        let last = List.fold_left (fun p st -> emit ~loops:(var :: loops) p st) head body in
        edge last head;
        (* the loop's continuation hangs off the head: the zero-trip
           path and the post-iteration path join there *)
        head
    | s ->
        let id = add (Atom s) loops in
        edge pred id;
        id
  in
  let last = List.fold_left (fun p st -> emit ~loops:[] p st) entry f.Ir.body in
  let exit_ = add Exit [] in
  edge last exit_;
  let n = !count in
  let node_arr = Array.of_list (List.rev !rev_nodes) in
  let succ_arr = Array.make n [] and pred_arr = Array.make n [] in
  List.iter
    (fun (a, b) ->
      succ_arr.(a) <- b :: succ_arr.(a);
      pred_arr.(b) <- a :: pred_arr.(b))
    !edges;
  { node_arr; succ_arr; pred_arr; entry; exit_ }

module Solve (L : LATTICE) = struct
  type result = { input : L.t array; output : L.t array }

  let run ~direction g ~init ~transfer =
    let n = Array.length g.node_arr in
    let input = Array.make n L.bottom and output = Array.make n L.bottom in
    let sources, start, next =
      match direction with
      | Forward -> ((fun i -> g.pred_arr.(i)), g.entry, fun i -> g.succ_arr.(i))
      | Backward -> ((fun i -> g.succ_arr.(i)), g.exit_, fun i -> g.pred_arr.(i))
    in
    let queued = Array.make n false in
    let queue = Queue.create () in
    let push i =
      if not queued.(i) then begin
        queued.(i) <- true;
        Queue.add i queue
      end
    in
    Array.iter (fun (nd : node) -> push nd.id) g.node_arr;
    while not (Queue.is_empty queue) do
      let i = Queue.pop queue in
      queued.(i) <- false;
      let incoming =
        List.fold_left (fun acc s -> L.join acc output.(s)) L.bottom (sources i)
      in
      let incoming = if i = start then L.join incoming init else incoming in
      input.(i) <- incoming;
      let out = transfer g.node_arr.(i) incoming in
      if not (L.equal out output.(i)) then begin
        output.(i) <- out;
        List.iter push (next i)
      end
    done;
    { input; output }
end

(* ---------- reaching definitions with host/device placement ---------- *)

module Def = struct
  type t = { site : int; array : string; on_device : bool }

  let compare = compare
end

module Defs = Set.Make (Def)

module Reaching_solver = Solve (struct
  type t = Defs.t

  let bottom = Defs.empty
  let equal = Defs.equal
  let join = Defs.union
end)

let reaching_definitions (f : Ir.func) =
  let g = graph_of_func f in
  let kill arr defs = Defs.filter (fun (d : Def.t) -> not (String.equal d.array arr)) defs in
  let kill_device arr defs =
    Defs.filter (fun (d : Def.t) -> not (String.equal d.array arr && d.on_device)) defs
  in
  let define ~site ~on_device arr defs =
    Defs.add { Def.site; array = arr; on_device } (kill arr defs)
  in
  let transfer (nd : node) fact =
    match nd.point with
    | Entry | Exit | Head _ -> fact
    | Atom (Ir.Assign { lhs; _ }) when lhs.Ast.indices <> [] ->
        define ~site:nd.id ~on_device:false lhs.Ast.base fact
    | Atom (Ir.Call c) -> (
        match c with
        | Ir.Cim_d2h { array } -> define ~site:nd.id ~on_device:false array fact
        | Ir.Cim_h2d { array } ->
            (* the device copy now mirrors the host: nothing lives
               only on the device any more *)
            kill_device array fact
        | Ir.Cim_gemm { c = cref; _ } ->
            define ~site:nd.id ~on_device:true cref.Ir.array fact
        | Ir.Cim_gemm_batched { batch; _ } ->
            List.fold_left
              (fun acc (_, _, (cref : Ir.mat_ref)) ->
                define ~site:nd.id ~on_device:true cref.Ir.array acc)
              fact batch
        | Ir.Cim_im2col { dst; _ } -> define ~site:nd.id ~on_device:true dst fact
        | Ir.Cim_init | Ir.Cim_alloc _ | Ir.Cim_free _ -> fact)
    | Atom _ -> fact
  in
  let init =
    List.fold_left
      (fun acc (p : Ast.param) ->
        if p.Ast.dims = [] then acc
        else Defs.add { Def.site = g.entry; array = p.Ast.pname; on_device = false } acc)
      Defs.empty f.Ir.params
  in
  let r = Reaching_solver.run ~direction:Forward g ~init ~transfer in
  (g, r.Reaching_solver.input)

(* ---------- array liveness ---------- *)

module Live_solver = Solve (struct
  type t = Strings.t

  let bottom = Strings.empty
  let equal = Strings.equal
  let join = Strings.union
end)

let live_arrays (f : Ir.func) =
  let g = graph_of_func f in
  let transfer (nd : node) fact =
    match nd.point with
    | Atom s -> Strings.union (fst (Regions.stmt_arrays s)) fact
    | Entry | Exit | Head _ -> fact
  in
  let r = Live_solver.run ~direction:Backward g ~init:Strings.empty ~transfer in
  (g, r.Live_solver.output)
