module St = Tdo_poly.Schedule_tree
module Affine = Tdo_poly.Affine
module Access = Tdo_poly.Access
module Ir = Tdo_ir.Ir
module Ast = Tdo_lang.Ast
module Strings = Regions.Strings

let wrap bands s = List.fold_right (fun b t -> St.Band (b, t)) bands (St.Stmt s)

(* ---------- statement-level validation ---------- *)

(* Per-band component of a dependence distance vector between two
   accesses of the same array. [Dist d]: the sink instance runs d
   iterations of that band after the source. [Any]: the band does not
   constrain the pair (every pair of iterations can touch the same
   cell). [Unknown]: subscripts too complex to solve — conservative. *)
type comp = Dist of int | Any | Unknown

let simple_index idx =
  match Affine.vars idx with
  | [] -> Some (None, Affine.constant idx)
  | [ v ] when Affine.coeff idx v = 1 -> Some (Some v, Affine.constant idx)
  | _ -> None

(* Distance vector (over [iters], outermost first) of the dependence
   from access [src] to access [dst] on the same array, or [None] when
   the subscripts can never reference the same cell. *)
let distance_vector ~iters (src : Access.t) (dst : Access.t) =
  if List.length src.Access.indices <> List.length dst.Access.indices then None
  else begin
    let exception Never in
    let deltas = Hashtbl.create 4 in
    let unknown = ref false in
    (try
       List.iter2
         (fun is id ->
           match (simple_index is, simple_index id) with
           | Some (None, cs), Some (None, cd) -> if cs <> cd then raise Never
           | Some (Some v, cs), Some (Some v', cd) when String.equal v v' -> (
               (* v_dst = v_src + (cs - cd) *)
               let d = cs - cd in
               match Hashtbl.find_opt deltas v with
               | Some d' when d' <> d -> raise Never
               | Some _ -> ()
               | None -> Hashtbl.add deltas v d)
           | _ -> unknown := true)
         src.Access.indices dst.Access.indices;
       Some
         (List.map
            (fun iter ->
              if !unknown then Unknown
              else
                match Hashtbl.find_opt deltas iter with
                | Some d -> Dist d
                | None -> Any)
            iters)
     with Never -> None)
  end

let rec lex_sign = function
  | [] -> 0
  | 0 :: rest -> lex_sign rest
  | d :: _ -> compare d 0

(* Does some assignment of the [Any] components make the vector
   lexicographically positive under [order_a] and negative under
   [order_b]?  Any in {-1, 0, 1} is exhaustive for lexicographic
   sign patterns. *)
let reorder_breaks ~before_order ~after_order vec =
  let comps = List.combine before_order vec in
  if List.exists (fun (_, c) -> c = Unknown) comps then true
  else begin
    let anys = List.filter (fun (_, c) -> c = Any) comps in
    let rec assignments = function
      | [] -> [ [] ]
      | (v, _) :: rest ->
          List.concat_map
            (fun tail -> List.map (fun d -> (v, d) :: tail) [ -1; 0; 1 ])
            (assignments rest)
    in
    List.exists
      (fun assignment ->
        let value iter =
          match List.assoc iter comps with
          | Dist d -> d
          | Any -> List.assoc iter assignment
          | Unknown -> 0
        in
        lex_sign (List.map value before_order) > 0
        && lex_sign (List.map value after_order) < 0)
      (assignments anys)
  end

let stmt_conflicts (s1 : St.stmt_info) (s2 : St.stmt_info) =
  let reads (s : St.stmt_info) =
    let r = List.map (fun (a : Access.t) -> a.Access.array) s.St.reads in
    if s.St.op = Ast.Set then r else s.St.write.Access.array :: r
  in
  let w1 = s1.St.write.Access.array and w2 = s2.St.write.Access.array in
  let conflicts =
    (if List.mem w1 (reads s2) || String.equal w1 w2 then [ w1 ] else [])
    @ if List.mem w2 (reads s1) then [ w2 ] else []
  in
  List.sort_uniq compare conflicts

let is_accumulation (s : St.stmt_info) =
  match s.St.op with Ast.Add_assign | Ast.Sub_assign -> true | Ast.Set | Ast.Mul_assign -> false

(* All (source access, sink access) pairs of a statement's self
   dependences on one array: write-after-write and the two orders of
   write/read on the written array. *)
let self_dep_pairs (s : St.stmt_info) =
  let w = s.St.write in
  let same_array (a : Access.t) = String.equal a.Access.array w.Access.array in
  let reads = List.filter same_array s.St.reads in
  let reads = if s.St.op = Ast.Set then reads else w :: reads in
  ((w, w) :: List.map (fun r -> (w, r)) reads)
  @ List.map (fun r -> (r, w)) reads

let check_permutation ~sid ~before_bands ~after_bands (s : St.stmt_info) =
  if is_accumulation s then []
  else begin
    let before_order = List.map (fun (b : St.band) -> b.St.iter) before_bands in
    let after_order = List.map (fun (b : St.band) -> b.St.iter) after_bands in
    let broken =
      List.exists
        (fun (src, dst) ->
          match distance_vector ~iters:before_order src dst with
          | None -> false
          | Some vec -> reorder_breaks ~before_order ~after_order vec)
        (self_dep_pairs s)
    in
    if broken then
      [
        Diag.errorf "E101"
          ~hint:"the permuted nest executes dependent instances in the wrong order"
          "S%d (writing '%s'): band permutation %s -> %s reverses a dependence on '%s'" sid
          s.St.write.Access.array
          (String.concat "," before_order)
          (String.concat "," after_order) s.St.write.Access.array;
      ]
    else []
  end

let check_stmt_level ~before ~after =
  let diags = ref [] in
  let emit d = diags := !diags @ [ d ] in
  let index tree =
    List.mapi (fun pos (bands, s) -> (s.St.sid, (pos, bands, s))) (St.stmts_with_context tree)
  in
  let b_idx = index before and a_idx = index after in
  List.iter
    (fun (sid, (_, _, s)) ->
      if not (List.mem_assoc sid a_idx) then
        emit
          (Diag.errorf "E103" "statement S%d (writing '%s') dropped by the rewrite" sid
             s.St.write.Access.array))
    b_idx;
  List.iter
    (fun (sid, (_, _, s)) ->
      if not (List.mem_assoc sid b_idx) then
        emit
          (Diag.errorf "E105" "statement S%d (writing '%s') introduced by the rewrite" sid
             s.St.write.Access.array))
    a_idx;
  (* per-statement band context *)
  List.iter
    (fun (sid, (_, bands_b, s)) ->
      match List.assoc_opt sid a_idx with
      | None -> ()
      | Some (_, bands_a, _) ->
          let names (bs : St.band list) = List.map (fun b -> b.St.iter) bs in
          let nb = names bands_b and na = names bands_a in
          let missing = List.filter (fun v -> not (List.mem v na)) nb in
          let added = List.filter (fun v -> not (List.mem v nb)) na in
          if missing <> [] || added <> [] then begin
            List.iter
              (fun v ->
                emit
                  (Diag.errorf "E104" "band '%s' around S%d (writing '%s') dropped by the rewrite"
                     v sid s.St.write.Access.array))
              missing;
            List.iter
              (fun v -> emit (Diag.errorf "E104" "band '%s' introduced around S%d" v sid))
              added
          end
          else if nb <> na then
            List.iter emit (check_permutation ~sid ~before_bands:bands_b ~after_bands:bands_a s))
    b_idx;
  (* relative order of dependent statements *)
  List.iter
    (fun (sid1, (pos1, bands1, s1)) ->
      List.iter
        (fun (sid2, (pos2, bands2, s2)) ->
          if pos1 < pos2 && sid1 <> sid2 then
            match (List.assoc_opt sid1 a_idx, List.assoc_opt sid2 a_idx) with
            | Some (apos1, _, _), Some (apos2, _, _) when apos1 > apos2 ->
                if not (Depgraph.independent_trees (wrap bands1 s1) (wrap bands2 s2)) then
                  let arrays = stmt_conflicts s1 s2 in
                  emit
                    (Diag.errorf "E101"
                       ~hint:"only independent statements may be reordered"
                       "dependent statements S%d and S%d (conflict on '%s') reordered by the rewrite"
                       sid1 sid2
                       (match arrays with a :: _ -> a | [] -> s1.St.write.Access.array))
            | _ -> ())
        b_idx)
    b_idx;
  !diags

(* ---------- dataflow-level validation ---------- *)

let rec ir_calls (stmt : Ir.stmt) =
  match stmt with
  | Ir.Call call -> [ call ]
  | Ir.For { body; _ } -> List.concat_map ir_calls body
  | Ir.Assign _ | Ir.Decl_scalar _ | Ir.Decl_array _ | Ir.Roi_begin | Ir.Roi_end -> []

let rec tree_calls = function
  | St.Code stmts -> List.concat_map ir_calls stmts
  | St.Band (_, child) | St.Mark (_, child) -> tree_calls child
  | St.Seq children -> List.concat_map tree_calls children
  | St.Stmt _ -> []

let check_batched after =
  let diags = ref [] in
  let region r = Regions.mat_ref_region ~env:[] r in
  let conflicts (x : Ir.mat_ref) (y : Ir.mat_ref) =
    String.equal x.Ir.array y.Ir.array && Regions.overlap (region x) (region y)
  in
  List.iter
    (fun call ->
      match call with
      | Ir.Cim_gemm_batched { batch; _ } ->
          let entries = List.mapi (fun i (a, b, c) -> (i, a, b, c)) batch in
          List.iter
            (fun (i, ai, bi, ci) ->
              List.iter
                (fun (j, aj, bj, cj) ->
                  if i < j then
                    (* entry j's inputs/output vs entry i's output, and
                       entry i's inputs vs entry j's output: overlapping
                       operand windows make the parallel launch
                       order-sensitive (disjoint tiles of one array are
                       fine, whole-window aliasing is not). *)
                    let conflict =
                      if List.exists (conflicts ci) [ aj; bj; cj ] then Some ci.Ir.array
                      else if List.exists (conflicts cj) [ ai; bi ] then Some cj.Ir.array
                      else None
                    in
                    match conflict with
                    | Some array ->
                        diags :=
                          !diags
                          @ [
                              Diag.errorf "E102"
                                ~hint:
                                  "batched kernels execute as one parallel launch; fused kernels \
                                   must be pairwise independent (paper Listing 2)"
                                "illegal fusion: batched GEMM entries %d and %d conflict on '%s'" i
                                j array;
                            ]
                    | None -> ())
                entries)
            entries
      | _ -> ())
    (tree_calls after);
  !diags

(* Can array [b]'s writes in [after] be fed (transitively, through any
   chain of intermediate arrays) by a value of [a] produced after [a]'s
   first write in [after]? *)
let flow_reproduced ~after_events ~a ~b =
  let activated = ref false in
  let tainted = ref (Strings.singleton a) in
  let reached = ref false in
  List.iter
    (fun (reads, writes) ->
      if (not !activated) && Strings.mem a writes then activated := true;
      if !activated && not (Strings.is_empty (Strings.inter reads !tainted)) then begin
        tainted := Strings.union !tainted writes;
        if Strings.mem b writes then reached := true
      end)
    after_events;
  !reached

(* The arrays a subtree reads at a cell it may not have written earlier
   in the same iteration of its loops: the reads that can see a value
   from before the subtree. A statement leaf's read is covered by an
   earlier leaf that writes the same cell in the same loop iterations:
   the writer's bands are a prefix of the reader's, and the subscripts
   mention no iterator of the reader's other bands. So conv's
   [out[i][j] += ...] after [out[i][j] = 0.0] reads only what the nest
   wrote, while gemm's [C[i][j] *= beta] reads C's old value. Reads in
   [Code] subtrees always count. *)
let exposed_reads t =
  let leaves = Array.of_list (St.stmts_with_context t) in
  let covered i (r : Access.t) =
    let bands, _ = leaves.(i) in
    let rec prefix ws bs =
      match (ws, bs) with
      | [], _ -> true
      | w :: ws, b :: bs -> w == b && prefix ws bs
      | _ :: _, [] -> false
    in
    let fixed wbands =
      let moving =
        List.filter_map
          (fun (b : St.band) -> if List.memq b wbands then None else Some b.St.iter)
          bands
      in
      List.for_all
        (fun idx -> List.for_all (fun v -> not (List.mem v moving)) (Affine.vars idx))
        r.Access.indices
    in
    let rec scan j =
      j < i
      &&
      let wbands, (w : St.stmt_info) = leaves.(j) in
      (prefix wbands bands && Access.equal w.St.write r && fixed wbands) || scan (j + 1)
    in
    scan 0
  in
  let exposed = ref Strings.empty in
  Array.iteri
    (fun i (_, (s : St.stmt_info)) ->
      let reads = if s.St.op = Ast.Set then s.St.reads else s.St.write :: s.St.reads in
      List.iter
        (fun (r : Access.t) ->
          if not (covered i r) then exposed := Strings.add r.Access.array !exposed)
        reads)
    leaves;
  let rec code = function
    | St.Code _ as c -> exposed := Strings.union (fst (Regions.arrays c)) !exposed
    | St.Band (_, child) | St.Mark (_, child) -> code child
    | St.Seq children -> List.iter code children
    | St.Stmt _ -> ()
  in
  code t;
  !exposed

let check_dataflow ~before ~after =
  let diags = ref [] in
  let emit d = diags := !diags @ [ d ] in
  let ev_b = Depgraph.top_events before and ev_a = Depgraph.top_events after in
  let rwb = List.map Regions.arrays ev_b and rwa = List.map Regions.arrays ev_a in
  let union sel l = List.fold_left (fun acc x -> Strings.union acc (sel x)) Strings.empty l in
  let reads_b = union fst rwb
  and writes_b = union snd rwb
  and reads_a = union fst rwa
  and writes_a = union snd rwa in
  let touched_b = Strings.union reads_b writes_b in
  (* lost writes *)
  Strings.iter
    (fun arr ->
      if not (Strings.mem arr writes_a) then
        emit
          (Diag.errorf "E106" ~hint:"the rewrite must still compute every output array"
             "rewrite lost all writes to '%s'" arr))
    writes_b;
  (* a dropped read of a value from before the nest is suspicious but
     can be legal (e.g. beta = 0) *)
  Strings.iter
    (fun arr ->
      if not (Strings.mem arr reads_a) then
        emit (Diag.warningf "W108" "rewrite no longer reads '%s'" arr))
    (union Fun.id (List.map exposed_reads ev_b));
  (* illegal fusion inside batched launches *)
  List.iter emit (check_batched after);
  (* array-granularity flow dependences must be reproducible *)
  let n = List.length ev_b in
  let evb = Array.of_list (List.combine ev_b rwb) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let ti, (_, wi) = evb.(i) and tj, (rj, wj) = evb.(j) in
      let carried = Strings.inter wi rj in
      if (not (Strings.is_empty carried)) && not (Depgraph.independent_trees ti tj) then
        Strings.iter
          (fun a ->
            Strings.iter
              (fun b ->
                if (not (String.equal a b)) && Strings.mem b touched_b then
                  if not (flow_reproduced ~after_events:rwa ~a ~b) then
                    emit
                      (Diag.errorf "E101"
                         ~hint:"the consumer must still run after the producer's new value is ready"
                         "flow dependence '%s' -> '%s' (%s before %s) not preserved by the rewrite"
                         a b (Depgraph.event_label ti) (Depgraph.event_label tj)))
              wj)
          carried
    done
  done;
  !diags

let check ~before ~after =
  if St.contains_code after || St.contains_code before then check_dataflow ~before ~after
  else check_stmt_level ~before ~after
