module St = Tdo_poly.Schedule_tree
module Affine = Tdo_poly.Affine
module Access = Tdo_poly.Access
module Scop_detect = Tdo_poly.Scop_detect
module Endurance = Tdo_pcm.Endurance
module Ir = Tdo_ir.Ir
module Ast = Tdo_lang.Ast
module Strings = Regions.Strings

type config = {
  xbar_rows : int;
  xbar_cols : int;
  enable_tiling : bool;
  min_intensity : float;
  fault_rate : float;
  abft_guard : bool;
  device_rows : int option;
  device_cols : int option;
}

let default_config =
  {
    xbar_rows = 256;
    xbar_cols = 256;
    enable_tiling = true;
    min_intensity = 4.0;
    fault_rate = 0.0;
    abft_guard = false;
    device_rows = None;
    device_cols = None;
  }

(* Eq. 1 parameters for W003: PCM cell endurance, one region execution
   per second, and the lifetime floor *)
let cell_endurance = 1e7
let invocations_per_second = 1.0
let min_lifetime_years = 1.0

(* ---------- W004 / W005: dead stores and unused arrays ---------- *)

let func (f : Ir.func) =
  (* reads from the liveness solver: the union of live-in sets over the
     whole graph is exactly the arrays the function ever reads *)
  let _, live = Dataflow.live_arrays f in
  let reads = Array.fold_left Strings.union Strings.empty live in
  let writes =
    List.fold_left
      (fun w stmt -> Strings.union w (snd (Regions.stmt_arrays stmt)))
      Strings.empty f.Ir.body
  in
  let rec locals (stmt : Ir.stmt) =
    match stmt with
    | Ir.Decl_array { name; _ } -> [ name ]
    | Ir.For { body; _ } -> List.concat_map locals body
    | _ -> []
  in
  let local_arrays = List.concat_map locals f.Ir.body in
  let param_arrays =
    List.filter_map (fun (p : Ast.param) -> if p.Ast.dims = [] then None else Some p.Ast.pname) f.Ir.params
  in
  let unused name kind =
    if (not (Strings.mem name reads)) && not (Strings.mem name writes) then
      [ Diag.warningf "W005" "unused %s '%s'" kind name ]
    else []
  in
  List.concat_map
    (fun name ->
      if Strings.mem name writes && not (Strings.mem name reads) then
        [
          Diag.warningf "W004"
            ~hint:"a local array's final values are unobservable; delete the stores or return them"
            "dead stores: local array '%s' is written but never read" name;
        ]
      else unused name "local array")
    local_arrays
  @ List.concat_map (fun name -> unused name "array parameter") param_arrays

(* ---------- W001 / W002 / W003: offload profitability ---------- *)

type candidate = {
  sid : int;
  target : string;  (** written array *)
  pinned : string;  (** operand a crossbar mapping would pin *)
  macs : int;  (** statement instances = multiply-accumulates *)
  footprint : int;  (** cells of the pinned operand's region *)
  pinned_rows : int;
  pinned_cols : int;
  pinned_bounds : (int * int) list;
      (** box bounds of the pinned region — part of the W008 pin key *)
  pinned_red_axes : int list;
      (** subscript positions of the pinned access carrying a reduction
          iterator: [A\[j\]\[i\]] and [A\[i\]\[j\]] pin different layouts *)
  invariant_iters : string list;
      (** enclosing iterators appearing in no subscript (W010) *)
}

let box_cells = Regions.box_cells
let box_shape = Regions.box_shape

(* An offload candidate: an accumulation statement under a constant
   nest with at least one reduction iterator, reading at least one
   "matrix-like" operand (subscripts using both a reduction and an
   output iterator — the operand a crossbar mapping would pin). The
   profitability estimate pins the smallest such operand: the
   best-case MACs-per-crossbar-write. *)
let candidate_of (bands, (s : St.stmt_info)) =
  if s.St.op <> Ast.Add_assign then None
  else
    let extents =
      List.filter_map
        (fun (b : St.band) -> Option.map (fun iv -> (b.St.iter, iv)) (Regions.band_interval b))
        bands
    in
    if List.length extents <> List.length bands || bands = [] then None
    else
      let iters = List.map (fun (b : St.band) -> b.St.iter) bands in
      let write_vars = List.concat_map Affine.vars s.St.write.Access.indices in
      let out_iters = List.filter (fun v -> List.mem v write_vars) iters in
      let red_iters = List.filter (fun v -> not (List.mem v write_vars)) iters in
      if red_iters = [] then None
      else
        let matrix_like (a : Access.t) =
          let vs = List.concat_map Affine.vars a.Access.indices in
          List.exists (fun v -> List.mem v red_iters) vs
          && List.exists (fun v -> List.mem v out_iters) vs
        in
        let pinnable =
          List.filter_map
            (fun a ->
              if matrix_like a then
                match Access.region a ~extents with
                | Some box -> Some (a, box)
                | None -> None
              else None)
            s.St.reads
        in
        match
          List.stable_sort (fun (_, b1) (_, b2) -> compare (box_cells b1) (box_cells b2)) pinnable
        with
        | [] -> None
        | (pinned, box) :: _ ->
            let macs =
              List.fold_left
                (fun acc b ->
                  match St.band_extent b with Some n -> acc * n | None -> acc)
                1 bands
            in
            let rows, cols = box_shape box in
            let red_axes =
              List.concat
                (List.mapi
                   (fun i idx ->
                     if List.exists (fun v -> List.mem v red_iters) (Affine.vars idx) then [ i ]
                     else [])
                   pinned.Access.indices)
            in
            let used_vars =
              write_vars
              @ List.concat_map
                  (fun (a : Access.t) -> List.concat_map Affine.vars a.Access.indices)
                  s.St.reads
            in
            Some
              {
                sid = s.St.sid;
                target = s.St.write.Access.array;
                pinned = pinned.Access.array;
                macs;
                footprint = box_cells box;
                pinned_rows = rows;
                pinned_cols = cols;
                pinned_bounds = Tdo_poly.Domain.box_bounds box;
                pinned_red_axes = red_axes;
                invariant_iters = List.filter (fun v -> not (List.mem v used_vars)) iters;
              }

let candidates t = List.filter_map candidate_of (St.stmts_with_context t)

(* ---------- W008 / W009: cross-kernel pinning and coherence ---------- *)

let intensity c = float_of_int c.macs /. float_of_int (max 1 c.footprint)

(* Replay the program's top-level events against the engine's
   single-slot pin-reuse check (the same generation-keyed model the
   offload census prices): a kernel that re-programs an operand window
   already programmed this generation — evicted by an unrelated pin in
   between — is a missed pin (W008). Alongside, track which arrays'
   freshest values a device kernel produced; a plain host statement
   reading one sits on the wrong side of the coherence boundary until a
   copy-back runs (W009). *)
let coherence ~config t =
  let diags = ref [] in
  let emit d = diags := !diags @ [ d ] in
  let gen = Hashtbl.create 8 in
  let generation a = Option.value ~default:0 (Hashtbl.find_opt gen a) in
  let bump a = Hashtbl.replace gen a (generation a + 1) in
  let device_fresh = Hashtbl.create 8 in
  let programmed = Hashtbl.create 8 in
  let current = ref None in
  List.iter
    (fun ev ->
      let cands =
        List.filter (fun c -> intensity c >= config.min_intensity) (candidates ev)
      in
      let reads, writes = Regions.arrays ev in
      if cands <> [] then
        List.iter
          (fun c ->
            let key = (c.pinned, c.pinned_red_axes, c.pinned_bounds, generation c.pinned) in
            (match !current with
            | Some k when k = key -> () (* adjacent kernels share the pin: no re-program *)
            | _ ->
                (match Hashtbl.find_opt programmed key with
                | Some prev ->
                    emit
                      (Diag.warningf "W008"
                         ~hint:
                           "reorder or fuse kernels sharing a pinned operand so they run \
                            adjacently; every avoided re-program saves the operand's full cell \
                            count in crossbar writes (the tuner's write-bytes model counts them)"
                         "redundant crossbar re-program: kernel S%d re-pins '%s' (%dx%d, \
                          unchanged since kernel S%d programmed it) after an eviction in between"
                         c.sid c.pinned c.pinned_rows c.pinned_cols prev)
                | None -> ());
                Hashtbl.replace programmed key c.sid;
                current := Some key);
            Hashtbl.replace device_fresh c.target c.sid)
          cands
      else if not (St.contains_code ev) then
        (* plain host statements; generated code is checked against the
           explicit runtime calls in its IR form (offload_ir) *)
        Strings.iter
          (fun a ->
            match Hashtbl.find_opt device_fresh a with
            | Some producer ->
                emit
                  (Diag.warningf "W009"
                     ~hint:
                       "the offloaded kernel's result lives in the crossbar until a cim_d2h \
                        copy-back; reading the host array before it runs observes stale data"
                     "stale host read: %s reads '%s' whose freshest value was produced by \
                      offloaded kernel S%d on the device"
                     (Depgraph.event_label ev) a producer)
            | None -> ())
          reads;
      Strings.iter
        (fun a ->
          bump a;
          if cands = [] then Hashtbl.remove device_fresh a)
        writes)
    (Depgraph.top_events t);
  !diags

let tree ?(config = default_config) t =
  let cands = candidates t in
  let diags = ref [] in
  let emit d = diags := !diags @ [ d ] in
  let programmed = ref 0 in
  List.iter
    (fun c ->
      let intensity = intensity c in
      if intensity < config.min_intensity then
        emit
          (Diag.warningf "W001"
             ~hint:
               "GEMV-class kernels re-program the crossbar as often as they use it; keep them on \
                the CPU (selective offload)"
             "kernel S%d writing '%s': compute intensity %.1f MACs per pinned cell of '%s' is \
              below the offload threshold %.1f"
             c.sid c.target intensity c.pinned config.min_intensity)
      else begin
        if c.invariant_iters <> [] then
          emit
            (Diag.warningf "W010"
               ~hint:
                 "hoist the kernel out of the invariant loop (for accumulations, scale by the \
                  trip count instead); each iteration re-launches — and may re-program — the \
                  identical kernel"
               "loop-invariant offload: kernel S%d writing '%s' sits under loop iterator%s %s \
                that appear%s in none of its subscripts"
               c.sid c.target
               (if List.length c.invariant_iters = 1 then "" else "s")
               (String.concat ", " (List.map (fun v -> "'" ^ v ^ "'") c.invariant_iters))
               (if List.length c.invariant_iters = 1 then "s" else ""));
        programmed := !programmed + c.footprint;
        if
          (c.pinned_rows > config.xbar_rows || c.pinned_cols > config.xbar_cols)
          && not config.enable_tiling
        then
          emit
            (Diag.warningf "W002"
               ~hint:"enable tiling (Listing 3) to decompose the operand into crossbar-sized tiles"
               "kernel S%d writing '%s': pinned operand '%s' (%dx%d) exceeds the %dx%d crossbar \
                and tiling is disabled"
               c.sid c.target c.pinned c.pinned_rows c.pinned_cols config.xbar_rows config.xbar_cols);
        let device_rows = Option.value ~default:config.xbar_rows config.device_rows in
        let device_cols = Option.value ~default:config.xbar_cols config.device_cols in
        let tile_rows = min c.pinned_rows config.xbar_rows in
        let tile_cols = min c.pinned_cols config.xbar_cols in
        if tile_rows > device_rows || tile_cols > device_cols then
          emit
            (Diag.warningf "W007"
               ~hint:
                 "the runtime library will re-tile every launch; tune with the device's real \
                  geometry (or clamp the tuned configuration to it)"
               "kernel S%d writing '%s': configured %dx%d tiles of pinned operand '%s' exceed \
                the device's %dx%d crossbar"
               c.sid c.target tile_rows tile_cols c.pinned device_rows device_cols)
      end)
    cands;
  (if !programmed > 0 then
     let traffic = float_of_int !programmed *. invocations_per_second in
     let years =
       Endurance.lifetime_years ~cell_endurance
         ~crossbar_bytes:(config.xbar_rows * config.xbar_cols)
         ~write_bytes_per_second:traffic
     in
     if years < min_lifetime_years then
       emit
         (Diag.warningf "W003"
            ~hint:
              "reduce crossbar re-programming: fuse kernels sharing an operand, or pin the \
               operand that is written least"
            "endurance budget: %d crossbar cells programmed per region execution projects a \
             system lifetime of %.2f years (Eq. 1, floor %.1f)"
            !programmed years min_lifetime_years));
  if cands <> [] && config.fault_rate > 0.0 && not config.abft_guard then
    emit
      (Diag.warningf "W006"
         ~hint:
           "enable the ABFT checksum guard (Micro_engine.config.abft) so corrupted offloads are \
            detected instead of silently served"
         "offload configured without an ABFT guard on a device with fault rate %g: a stuck cell \
          corrupts results silently"
         config.fault_rate);
  !diags @ coherence ~config t

(* ---------- N001: why SCoP detection failed ---------- *)

let explain_scop_failure msg =
  let has sub =
    let n = String.length sub and m = String.length msg in
    let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
    go 0
  in
  let hint =
    if has "non-affine bound" then
      Some "loop bounds must be affine in outer iterators and parameters (Section III-A)"
    else if has "non-affine subscript" then
      Some "array subscripts must be affine for the polyhedral model to apply"
    else if has "scalar write" then
      Some
        "scalar assignments block SCoP modelling; accumulate into an array cell instead of a \
         scalar temporary"
    else if has "declaration" then Some "hoist declarations out of the region of interest"
    else if has "runtime call" then Some "the region already contains offloaded code"
    else if has "ROI marker" then Some "region-of-interest markers must not nest"
    else None
  in
  [ Diag.notef "N001" ?hint "no offload: SCoP detection failed: %s" msg ]

(* ---------- IR-mode coherence and pinning (explicit runtime calls) ---------- *)

(* Stale host reads (W009) against the reaching-definitions solver: a
   device definition flowing into a host read means no [cim_d2h] ran in
   between on that path. *)
let stale_reads (f : Ir.func) =
  let g, reach = Dataflow.reaching_definitions f in
  let diags = ref [] in
  let emit d = diags := !diags @ [ d ] in
  Array.iter
    (fun (nd : Dataflow.node) ->
      match nd.Dataflow.point with
      | Dataflow.Atom ((Ir.Assign _ | Ir.Decl_scalar _) as s) ->
          let host_reads = fst (Regions.stmt_arrays s) in
          Strings.iter
            (fun a ->
              if
                Dataflow.Defs.exists
                  (fun (d : Dataflow.Def.t) -> String.equal d.Dataflow.Def.array a && d.Dataflow.Def.on_device)
                  reach.(nd.Dataflow.id)
              then
                emit
                  (Diag.warningf "W009"
                     ~hint:"insert a cim_d2h copy-back between the kernel and the read"
                     "stale host read: '%s' is read on the host while its freshest value lives \
                      on the device"
                     a))
            host_reads
      | _ -> ())
    (Dataflow.nodes g);
  (* results still on the device when the function returns are stale for
     the caller *)
  Dataflow.Defs.iter
    (fun (d : Dataflow.Def.t) ->
      if
        d.Dataflow.Def.on_device
        && List.exists
             (fun (p : Ast.param) -> p.Ast.dims <> [] && String.equal p.Ast.pname d.Dataflow.Def.array)
             f.Ir.params
      then
        emit
          (Diag.warningf "W009"
             ~hint:"copy device results back before returning (cim_d2h)"
             "stale host read: '%s' still lives on the device at function exit; the caller \
              observes a stale host copy"
             d.Dataflow.Def.array))
    reach.(Dataflow.exit_id g);
  !diags

(* Redundant re-programs (W008) and loop-invariant launches (W010) over
   explicit [cim_gemm] calls: emulate the engine's generation-keyed
   single-slot reuse check exactly as the offload census does. Loop
   bodies containing calls are walked twice so a loop-carried eviction
   (pin A, overwrite the slot, come back to A next iteration) is
   observed; duplicate diagnostics from the second pass are merged. *)
let call_discipline (f : Ir.func) =
  let diags = ref [] in
  let emit d = if not (List.mem d !diags) then diags := !diags @ [ d ] in
  let gen = Hashtbl.create 8 in
  let generation a = Option.value ~default:0 (Hashtbl.find_opt gen a) in
  let bump a = Hashtbl.replace gen a (generation a + 1) in
  let pinned = ref None in
  let programmed = Hashtbl.create 8 in
  let rec has_call = function
    | Ir.Call _ -> true
    | Ir.For { body; _ } -> List.exists has_call body
    | _ -> false
  in
  let rec walk loop_vars (s : Ir.stmt) =
    match s with
    | Ir.For { var; body; _ } ->
        let times = if List.exists has_call body then 2 else 1 in
        for _ = 1 to times do
          List.iter (walk (var :: loop_vars)) body
        done
    | Ir.Assign { lhs; _ } -> if lhs.Ast.indices <> [] then bump lhs.Ast.base
    | Ir.Call (Ir.Cim_gemm { a; b; c; pin; _ }) ->
        let p = match pin with Ir.Pin_a -> a | Ir.Pin_b -> b in
        let loop_dependent r = Regions.window_varies ~vars:loop_vars r in
        if loop_vars <> [] && not (List.exists loop_dependent [ a; b; c ]) then
          emit
            (Diag.warningf "W010"
               ~hint:"hoist the call out of the loop: every iteration launches it unchanged"
               "loop-invariant offload: cim_gemm on '%s' under loop%s %s uses no loop-dependent \
                operand window"
               c.Ir.array
               (if List.length loop_vars = 1 then "" else "s")
               (String.concat ", "
                  (List.rev_map (fun v -> "'" ^ v ^ "'") loop_vars)));
        if loop_dependent p then pinned := None
        else begin
          let key =
            (p.Ir.array, p.Ir.row_off, p.Ir.col_off, p.Ir.rows, p.Ir.cols, p.Ir.trans,
             generation p.Ir.array)
          in
          (match !pinned with
          | Some k when k = key -> ()
          | _ ->
              (if Hashtbl.mem programmed key then
                 emit
                   (Diag.warningf "W008"
                      ~hint:
                        "group launches sharing a pinned operand adjacently; the engine reuses \
                         an unchanged pin and skips the re-program"
                      "redundant crossbar re-program: cim_gemm re-pins unchanged operand window \
                       '%s' (%d cells) after an eviction in between"
                      p.Ir.array (Regions.mat_ref_cells p)));
              Hashtbl.replace programmed key ();
              pinned := Some key)
        end;
        bump c.Ir.array
    | Ir.Call (Ir.Cim_gemm_batched { batch; _ }) ->
        (* a batched launch programs its entries as one fused unit *)
        pinned := None;
        List.iter (fun (_, _, (c : Ir.mat_ref)) -> bump c.Ir.array) batch
    | Ir.Call (Ir.Cim_im2col { dst; _ }) -> bump dst
    | Ir.Call _ | Ir.Decl_scalar _ | Ir.Decl_array _ | Ir.Roi_begin | Ir.Roi_end -> ()
  in
  List.iter (walk []) f.Ir.body;
  !diags

let offload_ir (f : Ir.func) = stale_reads f @ call_discipline f

let run ?(config = default_config) (f : Ir.func) =
  func f
  @ (if Ir.contains_cim_calls f then offload_ir f else [])
  @
  match Scop_detect.detect_func f with
  | Error msg -> explain_scop_failure msg
  | Ok t ->
      let ds = tree ~config t in
      if candidates t = [] then
        ds
        @ [
            Diag.notef "N002"
              ~hint:"offloadable kernels are accumulation loops with a matrix-shaped operand"
              "no offload: the region is a SCoP but contains no GEMM/GEMV/conv-shaped \
               accumulation";
          ]
      else ds
