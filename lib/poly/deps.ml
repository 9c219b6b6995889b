module Strings = Set.Make (String)
module Ir = Tdo_ir.Ir
module Ast = Tdo_lang.Ast

let call_arrays call =
  let of_ref (r : Ir.mat_ref) = r.Ir.array in
  match call with
  | Ir.Cim_init -> ([], [])
  | Ir.Cim_alloc { array } | Ir.Cim_free { array } -> ([ array ], [])
  | Ir.Cim_h2d { array } -> ([ array ], [])
  | Ir.Cim_d2h { array } -> ([ array ], [ array ])
  | Ir.Cim_gemm { a; b; c; _ } -> ([ of_ref a; of_ref b; of_ref c ], [ of_ref c ])
  | Ir.Cim_gemm_batched { batch; _ } ->
      ( List.concat_map (fun (a, b, c) -> [ of_ref a; of_ref b; of_ref c ]) batch,
        List.map (fun (_, _, c) -> of_ref c) batch )
  | Ir.Cim_im2col { src; dst; _ } -> ([ src; dst ], [ dst ])

let rec ir_arrays (stmt : Ir.stmt) =
  match stmt with
  | Ir.For { body; _ } ->
      List.fold_left
        (fun (r, w) s ->
          let r', w' = ir_arrays s in
          (Strings.union r r', Strings.union w w'))
        (Strings.empty, Strings.empty) body
  | Ir.Assign { lhs; op; rhs } ->
      let reads = ref Strings.empty in
      let rec visit = function
        | Ast.Index (a, idx) ->
            reads := Strings.add a !reads;
            List.iter visit idx
        | Ast.Binop (_, a, b) ->
            visit a;
            visit b
        | Ast.Neg e -> visit e
        | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Var _ -> ()
      in
      visit rhs;
      List.iter visit lhs.Ast.indices;
      let reads =
        if op = Ast.Set then !reads else Strings.add lhs.Ast.base !reads
      in
      (reads, Strings.singleton lhs.Ast.base)
  | Ir.Decl_scalar _ | Ir.Decl_array _ | Ir.Roi_begin | Ir.Roi_end ->
      (Strings.empty, Strings.empty)
  | Ir.Call call ->
      let reads, writes = call_arrays call in
      (Strings.of_list reads, Strings.of_list writes)

let rec accesses tree =
  match tree with
  | Schedule_tree.Band (_, child) | Schedule_tree.Mark (_, child) -> accesses child
  | Schedule_tree.Seq children ->
      List.fold_left
        (fun (r, w) child ->
          let r', w' = accesses child in
          (Strings.union r r', Strings.union w w'))
        (Strings.empty, Strings.empty) children
  | Schedule_tree.Stmt s ->
      let reads =
        List.fold_left
          (fun acc (a : Access.t) -> Strings.add a.Access.array acc)
          Strings.empty s.Schedule_tree.reads
      in
      let reads =
        if s.Schedule_tree.op = Ast.Set then reads
        else Strings.add s.Schedule_tree.write.Access.array reads
      in
      (reads, Strings.singleton s.Schedule_tree.write.Access.array)
  | Schedule_tree.Code stmts ->
      List.fold_left
        (fun (r, w) s ->
          let r', w' = ir_arrays s in
          (Strings.union r r', Strings.union w w'))
        (Strings.empty, Strings.empty) stmts

let arrays_read tree = fst (accesses tree)
let arrays_written tree = snd (accesses tree)

(* ---------- region-level refinement ---------- *)

(* inclusive iterator intervals of a band stack, when all bounds are
   constant (step handled conservatively by the closed interval) *)
let band_extents bands =
  List.fold_left
    (fun acc (b : Schedule_tree.band) ->
      match (acc, Affine.is_constant b.Schedule_tree.lo, Affine.is_constant b.Schedule_tree.hi)
      with
      | Some acc, Some lo, Some hi when hi > lo ->
          Some ((b.Schedule_tree.iter, (lo, hi - 1)) :: acc)
      | _ -> None)
    (Some []) bands

let access_regions tree ~writes =
  let table : (string, Domain.box option list ref) Hashtbl.t = Hashtbl.create 8 in
  let add array region =
    match Hashtbl.find_opt table array with
    | Some regions -> regions := region :: !regions
    | None -> Hashtbl.add table array (ref [ region ])
  in
  let stmt_accesses (s : Schedule_tree.stmt_info) =
    if writes then [ s.Schedule_tree.write ]
    else
      s.Schedule_tree.reads
      @
      if s.Schedule_tree.op = Ast.Set then [] else [ s.Schedule_tree.write ]
  in
  List.iter
    (fun (bands, s) ->
      let extents = band_extents bands in
      List.iter
        (fun (a : Access.t) ->
          let region =
            Option.bind extents (fun extents -> Access.region a ~extents)
          in
          add a.Access.array region)
        (stmt_accesses s))
    (Schedule_tree.stmts_with_context tree);
  (* Code subtrees: unknown regions for every array they mention *)
  let rec code_arrays = function
    | Schedule_tree.Code stmts ->
        List.iter
          (fun stmt ->
            let r, w = ir_arrays stmt in
            let relevant = if writes then w else r in
            Strings.iter (fun a -> add a None) relevant)
          stmts
    | Schedule_tree.Band (_, child) | Schedule_tree.Mark (_, child) -> code_arrays child
    | Schedule_tree.Seq children -> List.iter code_arrays children
    | Schedule_tree.Stmt _ -> ()
  in
  code_arrays tree;
  Hashtbl.fold (fun array regions acc -> (array, !regions) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Can two sets of per-array regions be proven cell-disjoint? *)
let regions_disjoint xs ys =
  let all_known regions =
    let rec collect acc = function
      | [] -> Some (List.rev acc)
      | Some box :: rest -> collect (box :: acc) rest
      | None :: _ -> None
    in
    collect [] regions
  in
  match (all_known xs, all_known ys) with
  | Some xs, Some ys ->
      List.for_all
        (fun bx ->
          List.for_all
            (fun by ->
              Domain.box_rank bx <> Domain.box_rank by
              || Domain.inter_box bx by = None)
            ys)
        xs
  | None, _ | _, None -> false

let independent x y =
  let wx = arrays_written x and rx = arrays_read x in
  let wy = arrays_written y and ry = arrays_read y in
  let name_conflicts =
    Strings.union
      (Strings.inter wx (Strings.union ry wy))
      (Strings.inter wy rx)
  in
  Strings.is_empty name_conflicts
  ||
  (* refine each name conflict with access regions *)
  let region_of tree ~writes =
    let table = access_regions tree ~writes in
    fun array -> Option.value ~default:[] (List.assoc_opt array table)
  in
  let wx_r = region_of x ~writes:true
  and rx_r = region_of x ~writes:false
  and wy_r = region_of y ~writes:true
  and ry_r = region_of y ~writes:false in
  Strings.for_all
    (fun array ->
      regions_disjoint (wx_r array) (ry_r array @ wy_r array)
      && regions_disjoint (wy_r array) (rx_r array))
    name_conflicts
