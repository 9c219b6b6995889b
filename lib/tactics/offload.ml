module St = Tdo_poly.Schedule_tree
module Regions = Tdo_analysis.Regions
module Depgraph = Tdo_analysis.Depgraph
module Ir = Tdo_ir.Ir
module Ast = Tdo_lang.Ast

type config = {
  xbar_rows : int;
  xbar_cols : int;
  enable_fusion : bool;
  enable_tiling : bool;
  naive_pin : bool;
  min_intensity : float option;
}

let default_config =
  {
    xbar_rows = 256;
    xbar_cols = 256;
    enable_fusion = true;
    enable_tiling = true;
    naive_pin = false;
    min_intensity = None;
  }

type report = {
  kernels_detected : int;
  kernels_offloaded : int;
  fused_groups : int;
  tiled_kernels : int;
  skipped_low_intensity : int;
}

(* Normalised BLAS-3 view of a matched kernel (GEMV is a GEMM with
   n = 1, so one emission path covers both). *)
type gemm_like = {
  c_array : string;
  a : Patterns.operand;
  b : Patterns.operand;
  m : int;
  n : int;
  k : int;
  alpha : Ast.expr;
  beta : Ast.expr;
  is_gemv : bool;
}

let gemm_like_of_kernel = function
  | Patterns.Kgemm g ->
      Some
        {
          c_array = g.Patterns.c_array;
          a = g.Patterns.a;
          b = g.Patterns.b;
          m = g.Patterns.m;
          n = g.Patterns.n;
          k = g.Patterns.k;
          alpha = g.Patterns.alpha;
          beta = g.Patterns.beta;
          is_gemv = false;
        }
  | Patterns.Kgemv g ->
      Some
        {
          c_array = g.Patterns.y_array;
          a = g.Patterns.a;
          b = { Patterns.array = g.Patterns.x_array; trans = false };
          m = g.Patterns.m;
          n = 1;
          k = g.Patterns.k;
          alpha = g.Patterns.alpha;
          beta = g.Patterns.beta;
          is_gemv = true;
        }
  | Patterns.Kconv _ -> None

(* ---------- segment classification ---------- *)

type seg =
  | Shost of St.t
  | Sgemm of gemm_like * St.t
  | Sconv of Patterns.conv * St.t

let classify_segment ?(on_rewrite = fun _ ~before:_ ~after:_ -> ()) tree =
  (* match the tree as written, then — Loop Tactics style — modulo
     legal loop interchange of a perfect nest *)
  let kernel =
    List.find_map
      (fun cand ->
        match Patterns.classify cand with
        | Some k ->
            if cand != tree then on_rewrite "interchange" ~before:tree ~after:cand;
            Some k
        | None -> None)
      (Transform.interchange_candidates tree)
  in
  match kernel with
  | None -> Shost tree
  | Some (Patterns.Kconv c) -> Sconv (c, tree)
  | Some kernel -> (
      match gemm_like_of_kernel kernel with
      | Some g -> Sgemm (g, tree)
      | None -> Shost tree)

(* ---------- pinning, fit, intensity ---------- *)

type pin = Pa | Pb

let ir_pin = function Pa -> Ir.Pin_a | Pb -> Ir.Pin_b

let fits config pin (g : gemm_like) =
  g.k <= config.xbar_rows
  && (match pin with Pa -> g.m <= config.xbar_cols | Pb -> g.n <= config.xbar_cols)

let same_operand (x : Patterns.operand) (y : Patterns.operand) =
  String.equal x.Patterns.array y.Patterns.array && x.Patterns.trans = y.Patterns.trans

let group_pin config kernels =
  if config.naive_pin then
    (* ablation: deliberately stream the potentially-shared operand *)
    let g = List.hd kernels in
    if fits config Pb g then Pb else Pa
  else if List.for_all (fun g -> g.is_gemv) kernels then
    (* GEMV keeps the matrix stationary in the crossbar — the physical
       CIM mapping (pinning the 1-column vector would waste the array) *)
    Pa
  else
    match kernels with
    | [ g ] -> if fits config Pa g then Pa else if fits config Pb g then Pb else Pa
    | g0 :: rest ->
        if List.for_all (fun g -> same_operand g.a g0.a) rest && fits config Pa g0 then Pa
        else if List.for_all (fun g -> same_operand g.b g0.b) rest && fits config Pb g0 then Pb
        else Pa
    | [] -> Pa

let shares_pinned pin kernels =
  match kernels with
  | [] | [ _ ] -> true
  | g0 :: rest -> (
      match pin with
      | Pa -> List.for_all (fun g -> same_operand g.a g0.a) rest
      | Pb -> List.for_all (fun g -> same_operand g.b g0.b) rest)

let estimated_intensity pin kernels =
  let cells (g : gemm_like) = g.k * (match pin with Pa -> g.m | Pb -> g.n) in
  let macs = List.fold_left (fun acc g -> acc + (g.m * g.n * g.k)) 0 kernels in
  let programs = if shares_pinned pin kernels then 1 else List.length kernels in
  (* members of a group share one shape, and only a kernel alone can
     exceed the crossbar: tiled, it writes every element of the pinned
     operand exactly once, as a fitting kernel does *)
  float_of_int macs /. float_of_int (max 1 (programs * cells (List.hd kernels)))

(* ---------- fusion grouping (paper Listing 2) ---------- *)

let compatible (x : gemm_like) (y : gemm_like) =
  x.m = y.m && x.n = y.n && x.k = y.k
  && x.a.Patterns.trans = y.a.Patterns.trans
  && x.b.Patterns.trans = y.b.Patterns.trans
  && Ast.expr_equal x.alpha y.alpha
  && Ast.expr_equal x.beta y.beta

type unit_ =
  | Uhost of St.t
  | Ugroup of gemm_like list * St.t list
  | Uconv of Patterns.conv

let group_segments config segments =
  let rec loop acc = function
    | [] -> List.rev acc
    | Shost t :: rest -> loop (Uhost t :: acc) rest
    | Sconv (c, _) :: rest -> loop (Uconv c :: acc) rest
    | Sgemm (g, t) :: rest when config.enable_fusion ->
        (* absorb following kernels with the same access pattern that
           are pairwise independent of everything already absorbed *)
        let rec absorb kernels trees rest =
          match rest with
          | Sgemm (g', t') :: tail
            when compatible g g'
                 && List.for_all (fun prev -> Depgraph.independent_trees prev t') trees
                 && fits config (group_pin config (kernels @ [ g' ])) g' ->
              absorb (kernels @ [ g' ]) (trees @ [ t' ]) tail
          | _ -> (kernels, trees, rest)
        in
        let kernels, trees, rest = absorb [ g ] [ t ] rest in
        loop (Ugroup (kernels, trees) :: acc) rest
    | Sgemm (g, t) :: rest -> loop (Ugroup ([ g ], [ t ]) :: acc) rest
  in
  loop [] segments

(* ---------- call emission ---------- *)

(* Fresh-name supply, created per [apply] so generated names depend
   only on the tree being compiled — never on how many compilations ran
   earlier in the process (or concurrently on other domains). *)
let make_gensym () =
  let counter = ref 0 in
  fun prefix ->
    incr counter;
    Printf.sprintf "__%s%d" prefix !counter

let i0 = Ast.Int_lit 0

(* physical offsets of a logical-operand tile at (row, col) *)
let phys_off (op : Patterns.operand) ~row ~col =
  if op.Patterns.trans then (col, row) else (row, col)

let a_ref (g : gemm_like) ~row ~col ~rows ~cols =
  let row_off, col_off = phys_off g.a ~row ~col in
  { Ir.array = g.a.Patterns.array; row_off; col_off; rows; cols; trans = g.a.Patterns.trans }

let b_ref (g : gemm_like) ~row ~col ~rows ~cols =
  let row_off, col_off = phys_off g.b ~row ~col in
  { Ir.array = g.b.Patterns.array; row_off; col_off; rows; cols; trans = g.b.Patterns.trans }

let c_ref (g : gemm_like) ~row ~col ~rows ~cols =
  { Ir.array = g.c_array; row_off = row; col_off = col; rows; cols; trans = false }

let whole_refs g =
  ( a_ref g ~row:i0 ~col:i0 ~rows:g.m ~cols:g.k,
    b_ref g ~row:i0 ~col:i0 ~rows:g.k ~cols:g.n,
    c_ref g ~row:i0 ~col:i0 ~rows:g.m ~cols:g.n )

let plain_call pin g =
  let a, b, c = whole_refs g in
  Ir.Call
    (Ir.Cim_gemm
       { m = g.m; n = g.n; k = g.k; alpha = g.alpha; beta = g.beta; a; b; c; pin = ir_pin pin })

let batched_call pin kernels =
  let g0 = List.hd kernels in
  let batch = List.map (fun g -> whole_refs g) kernels in
  Ir.Call
    (Ir.Cim_gemm_batched
       {
         m = g0.m;
         n = g0.n;
         k = g0.k;
         alpha = g0.alpha;
         beta = g0.beta;
         batch;
         pin = ir_pin pin;
       })

(* Revisited tiling (paper Listing 3): tile the pinned dimension and
   the reduction, peel the first k-tile so beta applies exactly once,
   and rely on the engine's streaming for the remaining dimension. *)
let tiled_calls gensym config pin (g : gemm_like) =
  let outer_total = match pin with Pa -> g.m | Pb -> g.n in
  let tile_outer = min outer_total config.xbar_cols in
  let tile_k = min g.k config.xbar_rows in
  if outer_total mod tile_outer <> 0 || g.k mod tile_k <> 0 then None
  else begin
    let ii = gensym "ii" and kk = gensym "kk" in
    let call ~outer ~kexpr ~beta =
      let tm, tn = match pin with Pa -> (tile_outer, g.n) | Pb -> (g.m, tile_outer) in
      let a, b, c =
        match pin with
        | Pa ->
            ( a_ref g ~row:outer ~col:kexpr ~rows:tm ~cols:tile_k,
              b_ref g ~row:kexpr ~col:i0 ~rows:tile_k ~cols:g.n,
              c_ref g ~row:outer ~col:i0 ~rows:tm ~cols:g.n )
        | Pb ->
            ( a_ref g ~row:i0 ~col:kexpr ~rows:g.m ~cols:tile_k,
              b_ref g ~row:kexpr ~col:outer ~rows:tile_k ~cols:tn,
              c_ref g ~row:i0 ~col:outer ~rows:g.m ~cols:tn )
      in
      Ir.Call
        (Ir.Cim_gemm
           { m = tm; n = tn; k = tile_k; alpha = g.alpha; beta; a; b; c; pin = ir_pin pin })
    in
    let inner_body outer =
      call ~outer ~kexpr:i0 ~beta:g.beta
      ::
      (if g.k > tile_k then
         [
           Ir.For
             {
               var = kk;
               lo = Ast.Int_lit tile_k;
               hi = Ast.Int_lit g.k;
               step = tile_k;
               body = [ call ~outer ~kexpr:(Ast.Var kk) ~beta:(Ast.Float_lit 1.0) ];
             };
         ]
       else [])
    in
    let stmts =
      if outer_total > tile_outer then
        [
          Ir.For
            {
              var = ii;
              lo = Ast.Int_lit 0;
              hi = Ast.Int_lit outer_total;
              step = tile_outer;
              body = inner_body (Ast.Var ii);
            };
        ]
      else
        (* only the reduction needs tiling *)
        inner_body i0
    in
    Some stmts
  end

(* ---------- conv lowering: im2col + GEMM with pinned weights ---------- *)

let conv_code gensym (c : Patterns.conv) =
  let patches = gensym "conv_patches"
  and wflat = gensym "conv_w"
  and outflat = gensym "conv_out" in
  let i = gensym "i" and j = gensym "j" and p = gensym "p" and q = gensym "q" in
  let open Ast in
  let mul a b = Binop (Mul, a, b) in
  let add a b = Binop (Add, a, b) in
  let m = c.Patterns.out_h * c.Patterns.out_w in
  let kk = c.Patterns.ker_h * c.Patterns.ker_w in
  let for_ var hi body = Ir.For { var; lo = Int_lit 0; hi = Int_lit hi; step = 1; body } in
  let patch_row = add (mul (Var i) (Int_lit c.Patterns.out_w)) (Var j) in
  let patch_col = add (mul (Var p) (Int_lit c.Patterns.ker_w)) (Var q) in
  (* patch gathering happens on the device's DMA, not in a host loop *)
  let im2col =
    Ir.Call
      (Ir.Cim_im2col
         {
           src = c.Patterns.input;
           dst = patches;
           kh = c.Patterns.ker_h;
           kw = c.Patterns.ker_w;
           oh = c.Patterns.out_h;
           ow = c.Patterns.out_w;
         })
  in
  let flatten_w =
    for_ p c.Patterns.ker_h
      [
        for_ q c.Patterns.ker_w
          [
            Ir.Assign
              {
                lhs = { base = wflat; indices = [ patch_col ] };
                op = Set;
                rhs = Index (c.Patterns.weights, [ Var p; Var q ]);
              };
          ];
      ]
  in
  let gather_out =
    for_ i c.Patterns.out_h
      [
        for_ j c.Patterns.out_w
          [
            Ir.Assign
              {
                lhs = { base = outflat; indices = [ patch_row ] };
                op = Set;
                rhs = Index (c.Patterns.output, [ Var i; Var j ]);
              };
          ];
      ]
  in
  let scatter_out =
    for_ i c.Patterns.out_h
      [
        for_ j c.Patterns.out_w
          [
            Ir.Assign
              {
                lhs = { base = c.Patterns.output; indices = [ Var i; Var j ] };
                op = Set;
                rhs = Index (outflat, [ patch_row ]);
              };
          ];
      ]
  in
  let beta = if c.Patterns.accumulate then Float_lit 1.0 else Float_lit 0.0 in
  let gemm =
    Ir.Call
      (Ir.Cim_gemm
         {
           m;
           n = 1;
           k = kk;
           alpha = c.Patterns.alpha;
           beta;
           a =
             { Ir.array = patches; row_off = i0; col_off = i0; rows = m; cols = kk; trans = false };
           b = { Ir.array = wflat; row_off = i0; col_off = i0; rows = kk; cols = 1; trans = false };
           c =
             { Ir.array = outflat; row_off = i0; col_off = i0; rows = m; cols = 1; trans = false };
           pin = Ir.Pin_b;
         })
  in
  [ Ir.Decl_array { name = patches; dims = [ m; kk ] };
    Ir.Decl_array { name = wflat; dims = [ kk ] };
    Ir.Decl_array { name = outflat; dims = [ m ] };
    flatten_w ]
  @ (if c.Patterns.accumulate then [ gather_out ] else [])
  @ [ Ir.Call (Ir.Cim_alloc { array = patches });
      Ir.Call (Ir.Cim_alloc { array = wflat });
      Ir.Call (Ir.Cim_alloc { array = outflat });
      Ir.Call (Ir.Cim_h2d { array = wflat }) ]
  @ (if c.Patterns.accumulate then [ Ir.Call (Ir.Cim_h2d { array = outflat }) ] else [])
  @ [ im2col;
      gemm;
      Ir.Call (Ir.Cim_d2h { array = outflat });
      scatter_out;
      Ir.Call (Ir.Cim_free { array = patches });
      Ir.Call (Ir.Cim_free { array = wflat });
      Ir.Call (Ir.Cim_free { array = outflat }) ]

(* ---------- data placement ---------- *)

type residency = { mutable dev_alloc : bool; mutable host_fresh : bool; mutable dev_fresh : bool }

let apply ?on_rewrite ~shapes config tree =
  let gensym = make_gensym () in
  let residency_table = Hashtbl.create 16 in
  let state arr =
    match Hashtbl.find_opt residency_table arr with
    | Some s -> s
    | None ->
        let s = { dev_alloc = false; host_fresh = true; dev_fresh = false } in
        Hashtbl.add residency_table arr s;
        s
  in
  let segments = List.map (classify_segment ?on_rewrite) (Depgraph.top_events tree) in
  let detected =
    List.length (List.filter (function Shost _ -> false | Sgemm _ | Sconv _ -> true) segments)
  in
  let units = group_segments config segments in
  let offloaded = ref 0
  and fused = ref 0
  and tiled = ref 0
  and skipped = ref 0
  and needs_init = ref false in
  let out = ref [] in
  let emit tree = out := tree :: !out in
  let emit_code stmts = if stmts <> [] then emit (St.Code stmts) in
  let ensure_host arrays =
    let moves =
      List.filter_map
        (fun arr ->
          let s = state arr in
          if s.dev_alloc && not s.host_fresh then begin
            s.host_fresh <- true;
            Some (Ir.Call (Ir.Cim_d2h { array = arr }))
          end
          else None)
        arrays
    in
    emit_code moves
  in
  let host_writes arrays =
    List.iter
      (fun arr ->
        let s = state arr in
        s.host_fresh <- true;
        s.dev_fresh <- false)
      arrays
  in
  let ensure_device ~inputs ~outputs =
    needs_init := true;
    let moves = ref [] in
    List.iter
      (fun arr ->
        let s = state arr in
        if not s.dev_alloc then begin
          s.dev_alloc <- true;
          moves := Ir.Call (Ir.Cim_alloc { array = arr }) :: !moves
        end)
      (inputs @ outputs);
    List.iter
      (fun arr ->
        let s = state arr in
        if not s.dev_fresh then begin
          s.dev_fresh <- true;
          moves := Ir.Call (Ir.Cim_h2d { array = arr }) :: !moves
        end)
      inputs;
    emit_code (List.rev !moves);
    List.iter
      (fun arr ->
        let s = state arr in
        s.dev_fresh <- true;
        s.host_fresh <- false)
      outputs
  in
  let host t =
    let reads, writes = Regions.arrays t in
    ensure_host (Regions.Strings.elements reads);
    host_writes (Regions.Strings.elements writes);
    emit t
  in
  let process = function
    | Uhost t -> host t
    | Uconv c ->
        (* weight flattening and output scatter run on the host; the
           image goes to the device once and patches are gathered by
           the device DMA inside the generated block *)
        needs_init := true;
        incr offloaded;
        let host_reads =
          c.Patterns.weights :: (if c.Patterns.accumulate then [ c.Patterns.output ] else [])
        in
        ensure_host host_reads;
        ensure_device ~inputs:[ c.Patterns.input ] ~outputs:[];
        host_writes [ c.Patterns.output ];
        emit_code (conv_code gensym c)
    | Ugroup (kernels, trees) -> (
        let pin = group_pin config kernels in
        let intensity = estimated_intensity pin kernels in
        let below_threshold =
          match config.min_intensity with Some t -> intensity < t | None -> false
        in
        if below_threshold then begin
          skipped := !skipped + List.length kernels;
          List.iter host trees
        end
        else
          (* A literal-0 beta needs no copy of C in, unless the
             kernel's box leaves part of C out: the copy back moves the
             whole array, so that part must be on the device. *)
          let skips_copy_in g =
            let box = if g.is_gemv then [ g.m ] else [ g.m; g.n ] in
            (match g.beta with Ast.Float_lit 0.0 -> true | _ -> false)
            && List.assoc_opt g.c_array shapes = Some box
          in
          let inputs =
            List.concat_map
              (fun g ->
                [ g.a.Patterns.array; g.b.Patterns.array ]
                @ if skips_copy_in g then [] else [ g.c_array ])
              kernels
            |> List.sort_uniq compare
          in
          let outputs = List.map (fun g -> g.c_array) kernels |> List.sort_uniq compare in
          match kernels with
          | [ g ] when fits config pin g ->
              ensure_device ~inputs ~outputs;
              incr offloaded;
              emit_code [ plain_call pin g ]
          | [ g ] -> (
              match (config.enable_tiling, tiled_calls gensym config pin g) with
              | true, Some stmts ->
                  ensure_device ~inputs ~outputs;
                  incr offloaded;
                  incr tiled;
                  emit_code stmts
              | _ ->
                  (* not expressible as exact compiler tiles: emit the
                     plain call and let the runtime library tile *)
                  ensure_device ~inputs ~outputs;
                  incr offloaded;
                  emit_code [ plain_call pin g ])
          | kernels ->
              ensure_device ~inputs ~outputs;
              offloaded := !offloaded + List.length kernels;
              incr fused;
              emit_code [ batched_call pin kernels ])
  in
  List.iter process units;
  (* copy every device-fresh array back and release the buffers *)
  let resident =
    Hashtbl.fold (fun arr s acc -> (arr, s) :: acc) residency_table []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let copy_backs =
    List.filter_map
      (fun (arr, s) ->
        if s.dev_alloc && not s.host_fresh then Some (Ir.Call (Ir.Cim_d2h { array = arr }))
        else None)
      resident
  in
  let frees =
    List.filter_map
      (fun (arr, s) -> if s.dev_alloc then Some (Ir.Call (Ir.Cim_free { array = arr })) else None)
      resident
  in
  emit_code (copy_backs @ frees);
  let body = List.rev !out in
  let body = if !needs_init then St.Code [ Ir.Call Ir.Cim_init ] :: body else body in
  let result = match body with [ single ] -> single | children -> St.Seq children in
  ( result,
    {
      kernels_detected = detected;
      kernels_offloaded = !offloaded;
      fused_groups = !fused;
      tiled_kernels = !tiled;
      skipped_low_intensity = !skipped;
    } )

(* ---------- analytic execution plan ---------- *)

type plan = {
  launches : int;
  rows_programmed : int;
  cells_programmed : int;
  gemv_passes : int;
  gemv_row_passes : int;
  device_macs : int;
  dma_bytes : int;
  host_ops : int;
}

let empty_plan =
  {
    launches = 0;
    rows_programmed = 0;
    cells_programmed = 0;
    gemv_passes = 0;
    gemv_row_passes = 0;
    device_macs = 0;
    dma_bytes = 0;
    host_ops = 0;
  }

let rec expr_ops = function
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Var _ -> 1
  | Ast.Index (_, idx) -> 1 + List.fold_left (fun acc e -> acc + expr_ops e) 0 idx
  | Ast.Binop (_, a, b) -> 1 + expr_ops a + expr_ops b
  | Ast.Neg e -> 1 + expr_ops e

let plan config (f : Ir.func) =
  let ceil_div a b = (a + b - 1) / b in
  let dims = Hashtbl.create 16 in
  List.iter
    (fun (p : Ast.param) -> if p.Ast.dims <> [] then Hashtbl.replace dims p.Ast.pname p.Ast.dims)
    f.Ir.params;
  let elems arr =
    match Hashtbl.find_opt dims arr with
    | Some ds -> List.fold_left ( * ) 1 ds
    | None -> 0
  in
  (* host-write generations: a bumped generation invalidates any pinned
     operand living in that array, as the engine's reuse check does *)
  let gen = Hashtbl.create 16 in
  let generation arr = Option.value ~default:0 (Hashtbl.find_opt gen arr) in
  let bump arr = Hashtbl.replace gen arr (generation arr + 1) in
  let pinned = ref None in
  let totals = ref empty_plan in
  let add f = totals := f !totals in
  let gemm_job ~mult ~loop_vars ~m ~n ~k ~(a : Ir.mat_ref) ~(b : Ir.mat_ref) ~pin =
    let outer = match pin with Ir.Pin_a -> m | Ir.Pin_b -> n in
    let streamed = match pin with Ir.Pin_a -> n | Ir.Pin_b -> m in
    let col_chunks = max 1 (ceil_div outer config.xbar_cols) in
    let k_chunks = max 1 (ceil_div k config.xbar_rows) in
    let k_active = min k config.xbar_rows in
    let p = match pin with Ir.Pin_a -> a | Ir.Pin_b -> b in
    let key =
      (p.Ir.array, p.Ir.row_off, p.Ir.col_off, p.Ir.rows, p.Ir.cols, p.Ir.trans,
       generation p.Ir.array)
    in
    let variant = Regions.window_varies ~vars:loop_vars p in
    let programs =
      if variant then mult else if !pinned = Some key then 0 else 1
    in
    pinned := (if variant then None else Some key);
    let passes = mult * streamed * col_chunks * k_chunks in
    add (fun t ->
        {
          t with
          launches = t.launches + (mult * col_chunks * k_chunks);
          (* every pinned element is written once per program: k rows per
             column chunk, k x outer cells in total *)
          rows_programmed = t.rows_programmed + (programs * col_chunks * k);
          (* the pinned operand window is exactly [k x outer] cells, so
             price it off the region the analyzer sees: the tuner's
             write-bytes model and the W008 lint stay in agreement *)
          cells_programmed =
            t.cells_programmed + (programs * Regions.mat_ref_cells p);
          gemv_passes = t.gemv_passes + passes;
          gemv_row_passes = t.gemv_row_passes + (passes * k_active);
          device_macs = t.device_macs + (mult * m * n * k);
        })
  in
  let rec stmt ~mult ~loop_vars = function
    | Ir.For { var; lo; hi; step; body } ->
        let trip =
          match (lo, hi) with
          | Ast.Int_lit a, Ast.Int_lit b -> max 0 (ceil_div (b - a) (max 1 step))
          | _ -> 1
        in
        if trip > 0 then
          List.iter (stmt ~mult:(mult * trip) ~loop_vars:(var :: loop_vars)) body
    | Ir.Assign { lhs; op = _; rhs } ->
        if Hashtbl.mem dims lhs.Ast.base then bump lhs.Ast.base;
        let idx_ops =
          List.fold_left (fun acc e -> acc + expr_ops e) 0 lhs.Ast.indices
        in
        add (fun t -> { t with host_ops = t.host_ops + (mult * (1 + idx_ops + expr_ops rhs)) })
    | Ir.Decl_scalar { init; _ } ->
        let ops = match init with Some e -> 1 + expr_ops e | None -> 1 in
        add (fun t -> { t with host_ops = t.host_ops + (mult * ops) })
    | Ir.Decl_array { name; dims = ds } ->
        Hashtbl.replace dims name ds
    | Ir.Roi_begin | Ir.Roi_end -> ()
    | Ir.Call c -> (
        match c with
        | Ir.Cim_init | Ir.Cim_alloc _ | Ir.Cim_free _ -> ()
        | Ir.Cim_h2d { array } ->
            bump array;
            add (fun t -> { t with dma_bytes = t.dma_bytes + (mult * elems array * 4) })
        | Ir.Cim_d2h { array } ->
            add (fun t -> { t with dma_bytes = t.dma_bytes + (mult * elems array * 4) })
        | Ir.Cim_im2col { kh; kw; oh; ow; _ } ->
            add (fun t ->
                { t with dma_bytes = t.dma_bytes + (mult * oh * ow * kh * kw * 4) })
        | Ir.Cim_gemm { m; n; k; a; b; c = cref; pin; _ } ->
            bump cref.Ir.array;
            gemm_job ~mult ~loop_vars ~m ~n ~k ~a ~b ~pin
        | Ir.Cim_gemm_batched { m; n; k; batch; pin; _ } ->
            List.iter
              (fun (a, b, cref) ->
                bump cref.Ir.array;
                gemm_job ~mult ~loop_vars ~m ~n ~k ~a ~b ~pin)
              batch)
  in
  List.iter (stmt ~mult:1 ~loop_vars:[]) f.Ir.body;
  !totals
