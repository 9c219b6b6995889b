module Ast = Tdo_lang.Ast
module Interp = Tdo_lang.Interp
module Sim = Tdo_sim
module Platform = Tdo_runtime.Platform
module Api = Tdo_runtime.Api
module Regs = Tdo_cimacc.Context_regs

type metrics = {
  roi_instructions : int;
  roi_cycles : int;
  roi_time_ps : int;
  used_cim : bool;
  cim_launches : int;
}

exception Exec_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Exec_error s)) fmt

type array_info = { base : int; dims : int list }

(* ---------- resolved (slot-table) program ----------

   [run] first resolves every identifier to a typed slot index in one
   binding pass over the IR, then executes the resolved program against
   flat unboxed arrays. The interpreter previously paid a [List.assoc]
   string search plus a boxed [Vi]/[Vf] allocation for every operand of
   every dynamic instruction; on the PolyBench nests that was the
   hottest path of the whole evaluation. Instruction charging is
   unchanged: the same classes are issued for the same source
   constructs, with the same addresses. *)

type rexpr =
  | Ci of int  (** int literal *)
  | Cf of float  (** float literal *)
  | Vi of int  (** int scalar slot *)
  | Vf of int  (** float scalar slot *)
  | Load of { arr : int; dims : int array; idxs : rexpr array }
  | Ibin of Ast.binop * rexpr * rexpr  (** both operands int-typed *)
  | Fbin of Ast.binop * rexpr * rexpr  (** float result, operands coerced *)
  | Ineg of rexpr
  | Fneg of rexpr

let is_int = function
  | Ci _ | Vi _ | Ibin _ | Ineg _ -> true
  | Cf _ | Vf _ | Load _ | Fbin _ | Fneg _ -> false

(* right-hand side of [lhs op= rhs]: a top-level multiply under [+=]
   retires as one fused multiply-accumulate on the A7's VFP *)
type rrhs =
  | Rmac of rexpr * rexpr * bool  (** factors; [true] = integer multiply *)
  | Rplain of rexpr

type rmat = {
  mslot : int;
  mname : string;
  mrow_off : rexpr;
  mcol_off : rexpr;
  mtrans : bool;
}

type rcall =
  | Rinit
  | Ralloc of int * string
  | Rh2d of int * string
  | Rd2h of int * string
  | Rfree of int * string
  | Rgemm of {
      gm : int;
      gn : int;
      gk : int;
      galpha : rexpr;
      gbeta : rexpr;
      ga : rmat;
      gb : rmat;
      gc : rmat;
      gpin : Ir.pin;
    }
  | Rgemm_batched of {
      bm : int;
      bn : int;
      bk : int;
      balpha : rexpr;
      bbeta : rexpr;
      bbatch : (rmat * rmat * rmat) list;
      bpin : Ir.pin;
    }
  | Rim2col of {
      isrc : int;
      isrc_name : string;
      idst : int;
      idst_name : string;
      ikh : int;
      ikw : int;
      ioh : int;
      iow : int;
    }

type rstmt =
  | Rfor of { slot : int; lo : rexpr; hi : rexpr; step : int; body : rstmt array }
  | Rstore of { arr : int; dims : int array; idxs : rexpr array; op : Ast.assign_op; rhs : rrhs }
  | Rset_f of { slot : int; op : Ast.assign_op; rhs : rexpr }
  | Rset_i of { slot : int; op : Ast.assign_op; rhs : rexpr }
  | Rdecl_i of { slot : int; init : rexpr option }
  | Rdecl_f of { slot : int; init : rexpr option }
  | Rdecl_arr of { slot : int; adims : int list }
  | Rcall of rcall
  | Rroi_begin
  | Rroi_end

(* ---------- binding pass ---------- *)

type bind = Bint of int | Bfloat of int | Barr of int * int list

type counters = { mutable n_int : int; mutable n_float : int; mutable n_arr : int }

let new_int c =
  let s = c.n_int in
  c.n_int <- s + 1;
  s

let new_float c =
  let s = c.n_float in
  c.n_float <- s + 1;
  s

let new_arr c =
  let s = c.n_arr in
  c.n_arr <- s + 1;
  s

let lookup env name =
  match List.assoc_opt name env with
  | Some b -> b
  | None -> fail "unbound identifier '%s'" name

let rec compile_expr env c (e : Ast.expr) : rexpr =
  match e with
  | Ast.Int_lit n -> Ci n
  | Ast.Float_lit f -> Cf f
  | Ast.Var name -> (
      match lookup env name with
      | Bint s -> Vi s
      | Bfloat s -> Vf s
      | Barr _ -> fail "array '%s' used as a scalar" name)
  | Ast.Index (name, indices) -> (
      match lookup env name with
      | Barr (slot, dims) ->
          if List.length indices <> List.length dims then
            fail "array '%s': rank mismatch" name;
          let idxs =
            List.map
              (fun e ->
                let r = compile_expr env c e in
                if not (is_int r) then fail "non-integer subscript";
                r)
              indices
          in
          Load { arr = slot; dims = Array.of_list dims; idxs = Array.of_list idxs }
      | Bint _ | Bfloat _ -> fail "scalar '%s' indexed" name)
  | Ast.Binop (op, a, b) ->
      let ra = compile_expr env c a in
      let rb = compile_expr env c b in
      if is_int ra && is_int rb then Ibin (op, ra, rb) else Fbin (op, ra, rb)
  | Ast.Neg e ->
      let r = compile_expr env c e in
      if is_int r then Ineg r else Fneg r

let compile_int_expr env c what e =
  let r = compile_expr env c e in
  if not (is_int r) then fail "%s: expected an integer value" what;
  r

let compile_mat_ref env c (r : Ir.mat_ref) =
  match lookup env r.Ir.array with
  | Barr (slot, _) ->
      {
        mslot = slot;
        mname = r.Ir.array;
        mrow_off = compile_int_expr env c "mat_ref row offset" r.Ir.row_off;
        mcol_off = compile_int_expr env c "mat_ref col offset" r.Ir.col_off;
        mtrans = r.Ir.trans;
      }
  | Bint _ | Bfloat _ -> fail "'%s' is not an array" r.Ir.array

let array_slot env name =
  match lookup env name with
  | Barr (slot, _) -> (slot, name)
  | Bint _ | Bfloat _ -> fail "'%s' is not an array" name

let compile_call env c (call : Ir.call) : rcall =
  match call with
  | Ir.Cim_init -> Rinit
  | Ir.Cim_alloc { array } ->
      let s, n = array_slot env array in
      Ralloc (s, n)
  | Ir.Cim_h2d { array } ->
      let s, n = array_slot env array in
      Rh2d (s, n)
  | Ir.Cim_d2h { array } ->
      let s, n = array_slot env array in
      Rd2h (s, n)
  | Ir.Cim_free { array } ->
      let s, n = array_slot env array in
      Rfree (s, n)
  | Ir.Cim_gemm { m; n; k; alpha; beta; a; b; c = cm; pin } ->
      if cm.Ir.trans then fail "polly_cimBlasSGemm: transposed C is not supported";
      Rgemm
        {
          gm = m;
          gn = n;
          gk = k;
          galpha = compile_expr env c alpha;
          gbeta = compile_expr env c beta;
          ga = compile_mat_ref env c a;
          gb = compile_mat_ref env c b;
          gc = compile_mat_ref env c cm;
          gpin = pin;
        }
  | Ir.Cim_gemm_batched { m; n; k; alpha; beta; batch; pin } ->
      Rgemm_batched
        {
          bm = m;
          bn = n;
          bk = k;
          balpha = compile_expr env c alpha;
          bbeta = compile_expr env c beta;
          bbatch =
            List.map
              (fun (a, b, cm) ->
                ( compile_mat_ref env c a,
                  compile_mat_ref env c b,
                  compile_mat_ref env c cm ))
              batch;
          bpin = pin;
        }
  | Ir.Cim_im2col { src; dst; kh; kw; oh; ow } ->
      let isrc, isrc_name = array_slot env src in
      let idst, idst_name = array_slot env dst in
      Rim2col { isrc; isrc_name; idst; idst_name; ikh = kh; ikw = kw; ioh = oh; iow = ow }

let rec compile_body env c (body : Ir.stmt list) : rstmt list =
  match body with
  | [] -> []
  | Ir.Decl_scalar { name; typ; init } :: rest -> (
      match typ with
      | Ast.Tint ->
          let init =
            Option.map (fun e -> compile_int_expr env c "initialiser" e) init
          in
          let slot = new_int c in
          Rdecl_i { slot; init } :: compile_body ((name, Bint slot) :: env) c rest
      | Ast.Tfloat ->
          let init = Option.map (compile_expr env c) init in
          let slot = new_float c in
          Rdecl_f { slot; init } :: compile_body ((name, Bfloat slot) :: env) c rest
      | Ast.Tvoid -> fail "void declaration")
  | Ir.Decl_array { name; dims } :: rest ->
      let slot = new_arr c in
      Rdecl_arr { slot; adims = dims }
      :: compile_body ((name, Barr (slot, dims)) :: env) c rest
  | stmt :: rest -> compile_stmt env c stmt :: compile_body env c rest

and compile_stmt env c (stmt : Ir.stmt) : rstmt =
  match stmt with
  | Ir.For { var; lo; hi; step; body } ->
      let lo = compile_int_expr env c "loop bound" lo in
      let hi = compile_int_expr env c "loop bound" hi in
      let slot = new_int c in
      let body = compile_body ((var, Bint slot) :: env) c body in
      Rfor { slot; lo; hi; step; body = Array.of_list body }
  | Ir.Assign { lhs; op; rhs } -> (
      match (lookup env lhs.Ast.base, lhs.Ast.indices) with
      | Barr (slot, dims), indices ->
          if List.length indices <> List.length dims then
            fail "array '%s': rank mismatch" lhs.Ast.base;
          let idxs =
            List.map
              (fun e ->
                let r = compile_expr env c e in
                if not (is_int r) then fail "non-integer subscript";
                r)
              indices
          in
          let rhs =
            match (op, rhs) with
            | Ast.Add_assign, Ast.Binop (Ast.Mul, a, b) ->
                let ra = compile_expr env c a in
                let rb = compile_expr env c b in
                Rmac (ra, rb, is_int ra && is_int rb)
            | _ -> Rplain (compile_expr env c rhs)
          in
          Rstore
            { arr = slot; dims = Array.of_list dims; idxs = Array.of_list idxs; op; rhs }
      | Bfloat slot, [] -> Rset_f { slot; op; rhs = compile_expr env c rhs }
      | Bint slot, [] ->
          let r = compile_expr env c rhs in
          if not (is_int r) then fail "integer assignment: expected an integer value";
          Rset_i { slot; op; rhs = r }
      | (Bint _ | Bfloat _), _ :: _ -> fail "scalar '%s' indexed" lhs.Ast.base)
  | Ir.Decl_scalar _ | Ir.Decl_array _ ->
      (* handled by compile_body so the binding covers the rest of the body *)
      assert false
  | Ir.Call call -> Rcall (compile_call env c call)
  | Ir.Roi_begin -> Rroi_begin
  | Ir.Roi_end -> Rroi_end

(* ---------- runtime state ---------- *)

type state = {
  platform : Platform.t;
  cpu : Sim.Cpu.t;
  memory : Sim.Memory.t;
  ints : int array;
  floats : float array;
  arrays : array_info array;
  facc : floatarray;
      (** single-slot accumulator [eval_f] leaves its result in: a
          [float]-returning recursive evaluator boxes its result at
          every call, and the evaluator runs once per operand of every
          dynamic instruction *)
  mutable heap : int;
  mutable api : Api.t option;
  dev : (int, Api.buffer) Hashtbl.t;  (** keyed by array slot *)
}

let heap_base = 0x0100_0000

let no_array = { base = -1; dims = [] }

let alloc_array st dims =
  let bytes = 4 * List.fold_left ( * ) 1 dims in
  let base = st.heap in
  st.heap <- (st.heap + bytes + 63) / 64 * 64;
  { base; dims }

let issue st cls = Sim.Cpu.issue st.cpu cls
let[@inline always] issue_at st addr cls = Sim.Cpu.issue_at st.cpu ~addr cls

(* ---------- expression evaluation with instruction charging ----------

   [eval_f] communicates through [st.facc] instead of returning the
   float: the accumulator store and load compile to raw [floatarray]
   accesses, so evaluating an expression tree allocates nothing —
   intermediate values live in registers (or are spilled unboxed). *)

let[@inline always] getf st = Float.Array.unsafe_get st.facc 0
let[@inline always] setf st v = Float.Array.unsafe_set st.facc 0 v

let rec element_address st base (dims : int array) (idxs : rexpr array) =
  let flat = ref 0 in
  for i = 0 to Array.length dims - 1 do
    let idx = eval_i st (Array.unsafe_get idxs i) in
    let dim = Array.unsafe_get dims i in
    if idx < 0 || idx >= dim then fail "index %d out of bound %d" idx dim;
    (* mul + add of the row-major address computation *)
    issue st Sim.Cpu.Int_alu;
    flat := (!flat * dim) + idx
  done;
  base + (4 * !flat)

and eval_i st (e : rexpr) : int =
  match e with
  | Ci n -> n
  | Vi s -> Array.unsafe_get st.ints s
  | Ibin (op, a, b) ->
      let x = eval_i st a in
      let y = eval_i st b in
      issue st Sim.Cpu.Int_alu;
      (match op with
      | Ast.Add -> x + y
      | Ast.Sub -> x - y
      | Ast.Mul -> x * y
      | Ast.Div ->
          if y = 0 then fail "integer division by zero";
          x / y)
  | Ineg e ->
      let v = eval_i st e in
      issue st Sim.Cpu.Int_alu;
      -v
  | Cf _ | Vf _ | Load _ | Fbin _ | Fneg _ -> assert false

and eval_f st (e : rexpr) : unit =
  match e with
  | Cf f -> setf st f
  | Vf s -> setf st (Array.unsafe_get st.floats s)
  | Load { arr; dims; idxs } ->
      let info = Array.unsafe_get st.arrays arr in
      let addr = element_address st info.base dims idxs in
      issue_at st addr Sim.Cpu.Load;
      setf st (Sim.Memory.read_f32 st.memory addr)
  | Fbin (op, a, b) ->
      eval_f st a;
      let x = getf st in
      eval_f st b;
      let y = getf st in
      let cls =
        match op with
        | Ast.Add | Ast.Sub -> Sim.Cpu.Fp_add
        | Ast.Mul -> Sim.Cpu.Fp_mul
        | Ast.Div -> Sim.Cpu.Fp_div
      in
      issue st cls;
      setf st
        (match op with
        | Ast.Add -> x +. y
        | Ast.Sub -> x -. y
        | Ast.Mul -> x *. y
        | Ast.Div -> x /. y)
  | Fneg e ->
      eval_f st e;
      let v = getf st in
      issue st Sim.Cpu.Fp_add;
      setf st (-.v)
  | Ci n -> setf st (float_of_int n)
  | Vi s -> setf st (float_of_int (Array.unsafe_get st.ints s))
  | (Ibin _ | Ineg _) as e -> setf st (float_of_int (eval_i st e))

(* ---------- runtime-call support ---------- *)

let require_api st =
  match st.api with
  | Some api -> api
  | None -> fail "CIM runtime used before polly_cimInit"

let array_info st slot name =
  let info = st.arrays.(slot) in
  if info.base < 0 then fail "array '%s' used before its declaration" name;
  info

let array_shape_2d info =
  match info.dims with
  | [ rows; cols ] -> (rows, cols)
  | [ n ] -> (n, 1)
  | _ -> fail "device arrays must have rank 1 or 2"

let dev_buffer st slot name =
  match Hashtbl.find_opt st.dev slot with
  | Some buf -> buf
  | None -> fail "array '%s' is not on the device (missing polly_cimMalloc)" name

(* The host copy loops run over the flat row-major data (a
   [float]-returning [Mat.init] closure boxes every element) and charge
   the element loop's address arithmetic and loads or stores in bulk:
   [Cpu.issue_run] is equivalent to one [issue_at] per element. *)
let host_matrix st info =
  let rows, cols = array_shape_2d info in
  let m = Tdo_linalg.Mat.create ~rows ~cols in
  let data = Tdo_linalg.Mat.data m in
  let n = rows * cols in
  Sim.Cpu.issue_many st.cpu Sim.Cpu.Int_alu n;
  Sim.Cpu.issue_run st.cpu ~addr:info.base ~count:n Sim.Cpu.Load;
  for k = 0 to n - 1 do
    Array.unsafe_set data k (Sim.Memory.read_f32 st.memory (info.base + (4 * k)))
  done;
  m

let store_host_matrix st info name m =
  let rows, cols = array_shape_2d info in
  if Tdo_linalg.Mat.rows m <> rows || Tdo_linalg.Mat.cols m <> cols then
    fail "polly_cimDevToHost: shape mismatch for '%s'" name;
  let data = Tdo_linalg.Mat.data m in
  let n = rows * cols in
  Sim.Cpu.issue_many st.cpu Sim.Cpu.Int_alu n;
  Sim.Cpu.issue_run st.cpu ~addr:info.base ~count:n Sim.Cpu.Store;
  for k = 0 to n - 1 do
    Sim.Memory.write_f32 st.memory (info.base + (4 * k)) (Array.unsafe_get data k)
  done

let view_of_ref st (r : rmat) =
  let info = array_info st r.mslot r.mname in
  let _, ld = array_shape_2d info in
  let buf = dev_buffer st r.mslot r.mname in
  let row_off = eval_i st r.mrow_off in
  let col_off = eval_i st r.mcol_off in
  issue st Sim.Cpu.Int_alu;
  Api.view ~offset_elems:((row_off * ld) + col_off) ~ld buf

let pin_of = function Ir.Pin_a -> Regs.Pin_a | Ir.Pin_b -> Regs.Pin_b

let exec_call st (call : rcall) =
  match call with
  | Rinit -> if st.api = None then st.api <- Some (Api.init st.platform)
  | Ralloc (slot, name) ->
      let api = require_api st in
      let info = array_info st slot name in
      let rows, cols = array_shape_2d info in
      if Hashtbl.mem st.dev slot then fail "polly_cimMalloc: '%s' already allocated" name;
      (match Api.malloc api ~bytes:(4 * rows * cols) with
      | Error reason -> fail "polly_cimMalloc(%s): %s" name reason
      | Ok buf -> Hashtbl.add st.dev slot buf)
  | Rh2d (slot, name) ->
      let api = require_api st in
      let info = array_info st slot name in
      let _, ld = array_shape_2d info in
      let buf = dev_buffer st slot name in
      Api.host_to_dev api ~src:(host_matrix st info) ~dst:(Api.view ~ld buf)
  | Rd2h (slot, name) ->
      let api = require_api st in
      let info = array_info st slot name in
      let rows, cols = array_shape_2d info in
      let buf = dev_buffer st slot name in
      let m = Api.dev_to_host api ~src:(Api.view ~ld:cols buf) ~rows ~cols in
      store_host_matrix st info name m
  | Rfree (slot, name) ->
      let api = require_api st in
      Api.free api (dev_buffer st slot name);
      Hashtbl.remove st.dev slot
  | Rgemm { gm; gn; gk; galpha; gbeta; ga; gb; gc; gpin } ->
      let api = require_api st in
      eval_f st galpha;
      let alpha = getf st in
      eval_f st gbeta;
      let beta = getf st in
      let va = view_of_ref st ga in
      let vb = view_of_ref st gb in
      let vc = view_of_ref st gc in
      (match
         Api.sgemm api ~trans_a:ga.mtrans ~trans_b:gb.mtrans ~pin:(pin_of gpin) ~m:gm ~n:gn
           ~k:gk ~alpha ~a:va ~b:vb ~beta ~c:vc ()
       with
      | Ok () -> ()
      | Error reason -> fail "polly_cimBlasSGemm: %s" reason)
  | Rgemm_batched { bm; bn; bk; balpha; bbeta; bbatch; bpin } ->
      let api = require_api st in
      eval_f st balpha;
      let alpha = getf st in
      eval_f st bbeta;
      let beta = getf st in
      let trans_a, trans_b =
        match bbatch with
        | (a, b, _) :: _ -> (a.mtrans, b.mtrans)
        | [] -> fail "polly_cimBlasGemmBatched: empty batch"
      in
      let batch =
        List.map
          (fun (a, b, c) -> (view_of_ref st a, view_of_ref st b, view_of_ref st c))
          bbatch
      in
      (match
         Api.gemm_batched api ~trans_a ~trans_b ~pin:(pin_of bpin) ~m:bm ~n:bn ~k:bk ~alpha
           ~beta ~batch ()
       with
      | Ok () -> ()
      | Error reason -> fail "polly_cimBlasGemmBatched: %s" reason)
  | Rim2col { isrc; isrc_name; idst; idst_name; ikh; ikw; ioh; iow } ->
      let api = require_api st in
      let src_info = array_info st isrc isrc_name in
      let src_rows, src_cols = array_shape_2d src_info in
      let dst_info = array_info st idst idst_name in
      let _, dst_ld = array_shape_2d dst_info in
      let src_buf = dev_buffer st isrc isrc_name in
      let dst_buf = dev_buffer st idst idst_name in
      Api.dev_im2col api
        ~src:(Api.view ~ld:src_cols src_buf)
        ~src_rows ~src_cols
        ~dst:(Api.view ~ld:dst_ld dst_buf)
        ~kh:ikh ~kw:ikw ~oh:ioh ~ow:iow

(* ---------- statements ---------- *)

let[@inline always] apply_op op old rhs =
  match op with
  | Ast.Set -> rhs
  | Ast.Add_assign -> old +. rhs
  | Ast.Sub_assign -> old -. rhs
  | Ast.Mul_assign -> old *. rhs

let rec exec_stmt st (stmt : rstmt) =
  match stmt with
  | Rfor { slot; lo; hi; step; body } ->
      let lo = eval_i st lo in
      let hi = eval_i st hi in
      let ints = st.ints in
      ints.(slot) <- lo;
      while ints.(slot) < hi do
        exec_body st body;
        (* increment + back-edge test *)
        issue st Sim.Cpu.Int_alu;
        issue st Sim.Cpu.Branch;
        ints.(slot) <- ints.(slot) + step
      done
  | Rstore { arr; dims; idxs; op; rhs } ->
      let info = Array.unsafe_get st.arrays arr in
      let addr = element_address st info.base dims idxs in
      let rhs_value =
        match rhs with
        | Rmac (a, b, int_mul) ->
            eval_f st a;
            let x = getf st in
            eval_f st b;
            let y = getf st in
            issue st (if int_mul then Sim.Cpu.Int_alu else Sim.Cpu.Fp_mac);
            x *. y
        | Rplain e ->
            eval_f st e;
            getf st
      in
      let old =
        match op with
        | Ast.Set -> 0.0
        | Ast.Add_assign | Ast.Sub_assign | Ast.Mul_assign ->
            issue_at st addr Sim.Cpu.Load;
            Sim.Memory.read_f32 st.memory addr
      in
      (match op with
      | Ast.Set | Ast.Add_assign -> () (* Add_assign folded into the MAC *)
      | Ast.Sub_assign | Ast.Mul_assign -> issue st Sim.Cpu.Fp_add);
      issue_at st addr Sim.Cpu.Store;
      Sim.Memory.write_f32 st.memory addr (apply_op op old rhs_value)
  | Rset_f { slot; op; rhs } ->
      eval_f st rhs;
      let rhs = getf st in
      if op <> Ast.Set then issue st Sim.Cpu.Fp_add;
      st.floats.(slot) <- apply_op op st.floats.(slot) rhs
  | Rset_i { slot; op; rhs } ->
      let rhs = eval_i st rhs in
      issue st Sim.Cpu.Int_alu;
      (match op with
      | Ast.Set -> st.ints.(slot) <- rhs
      | Ast.Add_assign -> st.ints.(slot) <- st.ints.(slot) + rhs
      | Ast.Sub_assign -> st.ints.(slot) <- st.ints.(slot) - rhs
      | Ast.Mul_assign -> st.ints.(slot) <- st.ints.(slot) * rhs)
  | Rdecl_i { slot; init } ->
      st.ints.(slot) <- (match init with Some e -> eval_i st e | None -> 0)
  | Rdecl_f { slot; init } ->
      st.floats.(slot) <-
        (match init with
        | Some e ->
            eval_f st e;
            getf st
        | None -> 0.0)
  | Rdecl_arr { slot; adims } -> st.arrays.(slot) <- alloc_array st adims
  | Rcall call -> exec_call st call
  | Rroi_begin -> Sim.Cpu.roi_begin st.cpu
  | Rroi_end -> Sim.Cpu.roi_end st.cpu

and exec_body st (body : rstmt array) =
  for i = 0 to Array.length body - 1 do
    exec_stmt st (Array.unsafe_get body i)
  done

(* ---------- staging arguments in and out of simulated memory ---------- *)

let stage_in st (arr : Interp.arr) info =
  let data = arr.Interp.data in
  for i = 0 to Array.length data - 1 do
    Sim.Memory.write_f32 st.memory (info.base + (4 * i)) (Array.unsafe_get data i)
  done

let stage_out st info (arr : Interp.arr) =
  let data = arr.Interp.data in
  for i = 0 to Array.length data - 1 do
    data.(i) <- Sim.Memory.read_f32 st.memory (info.base + (4 * i))
  done

let run ?scratch (f : Ir.func) ~platform ~args =
  (* Slot types follow the argument values (as before): scalar params
     take the kind of the value passed for them. *)
  let c = { n_int = 0; n_float = 0; n_arr = 0 } in
  let bind_param (p : Ast.param) =
    match List.assoc_opt p.Ast.pname args with
    | None -> fail "missing argument '%s'" p.Ast.pname
    | Some (Interp.Vint n) ->
        if p.Ast.dims <> [] then fail "argument '%s' should be an array" p.Ast.pname;
        ((p.Ast.pname, Bint (new_int c)), `Int n)
    | Some (Interp.Vfloat v) ->
        if p.Ast.dims <> [] then fail "argument '%s' should be an array" p.Ast.pname;
        ((p.Ast.pname, Bfloat (new_float c)), `Float v)
    | Some (Interp.Varray arr) ->
        if arr.Interp.dims <> p.Ast.dims then
          fail "argument '%s' has mismatched dimensions" p.Ast.pname;
        ((p.Ast.pname, Barr (new_arr c, p.Ast.dims)), `Array arr)
  in
  let bound = List.map bind_param f.Ir.params in
  let env = List.map fst bound in
  let program = compile_body env c f.Ir.body in
  (* Slot tables come from the per-domain arena when the caller passes
     one — every slot is written (by binding or its [Rdecl_*]) before it
     is read, but zero-fill anyway so a miscompiled program reads
     deterministic garbage rather than a previous run's values. *)
  let ints =
    match scratch with
    | None -> Array.make (max 1 c.n_int) 0
    | Some a ->
        let t = Tdo_util.Arena.int_array a (max 1 c.n_int) in
        Array.fill t 0 (Array.length t) 0;
        t
  in
  let floats =
    match scratch with
    | None -> Array.make (max 1 c.n_float) 0.0
    | Some a ->
        let t = Tdo_util.Arena.float_array a (max 1 c.n_float) in
        Array.fill t 0 (Array.length t) 0.0;
        t
  in
  let st =
    {
      platform;
      cpu = Platform.cpu platform;
      memory = platform.Platform.memory;
      ints;
      floats;
      arrays = Array.make (max 1 c.n_arr) no_array;
      facc = Float.Array.create 1;
      heap = heap_base;
      api = None;
      dev = Hashtbl.create 8;
    }
  in
  let staged = ref [] in
  List.iter
    (fun ((_, bind), value) ->
      match (bind, value) with
      | Bint slot, `Int n -> st.ints.(slot) <- n
      | Bfloat slot, `Float v -> st.floats.(slot) <- v
      | Barr (slot, dims), `Array arr ->
          let info = alloc_array st dims in
          st.arrays.(slot) <- info;
          stage_in st arr info;
          staged := (info, arr) :: !staged
      | _ -> assert false)
    bound;
  exec_body st (Array.of_list program);
  List.iter (fun (info, arr) -> stage_out st info arr) !staged;
  let roi = Sim.Cpu.roi st.cpu in
  let launches =
    match st.api with None -> 0 | Some api -> (Api.counters api).Api.launches
  in
  {
    roi_instructions = roi.Sim.Cpu.roi_instructions;
    roi_cycles = roi.Sim.Cpu.roi_cycles;
    roi_time_ps = roi.Sim.Cpu.roi_time_ps;
    used_cim = st.api <> None;
    cim_launches = launches;
  }
