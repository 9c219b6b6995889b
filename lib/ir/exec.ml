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

(* ---------- runtime state ---------- *)

type state = {
  platform : Platform.t;
  cpu : Sim.Cpu.t;
  memory : Sim.Memory.t;
  ints : int array;
  floats : float array;
  arrays : array_info array;
  facc : floatarray;
      (** single-slot accumulator a compiled float expression leaves
          its result in: a [float]-returning closure boxes its result
          at every call *)
  mutable heap : int;
  mutable api : Api.t option;
  dev : (int, Api.buffer) Hashtbl.t;  (** keyed by array slot *)
  pending : int array;
      (** instructions counted but not yet retired to the core, by
          {!counted_classes} index *)
  mutable roi_open : bool;  (** this run opened the ROI window and has not closed it *)
}

let heap_base = 0x0100_0000

let no_array = { base = -1; dims = [] }

let alloc_array st dims =
  let bytes = 4 * List.fold_left ( * ) 1 dims in
  let base = st.heap in
  st.heap <- (st.heap + bytes + 63) / 64 * 64;
  { base; dims }

let[@inline always] getf st = Float.Array.unsafe_get st.facc 0
let[@inline always] setf st v = Float.Array.unsafe_set st.facc 0 v

let[@inline always] load st addr =
  Sim.Cpu.issue_at st.cpu ~addr Sim.Cpu.Load;
  Sim.Memory.read_f32 st.memory addr

let[@inline always] store st addr v =
  Sim.Cpu.issue_at st.cpu ~addr Sim.Cpu.Store;
  Sim.Memory.write_f32 st.memory addr v

(* ---------- instruction counting ----------

   The non-memory instructions a statement issues do not depend on the
   data, so they are counted once, at compile time, into a [count]
   array; the compiled code adds them to the run's pending counters in
   bulk and [retire] hands those to the core with [Cpu.issue_many].
   This is exact: the core's cycle count is a sum of per-instruction
   costs, no cache, bus or memory latency reads the core's clock, and
   only runtime calls, ROI markers and the end of the run read the
   core's counters — each of which retires everything pending first.
   Loads and stores still go through [Cpu.issue_at] one at a time, in
   program order and at their addresses, so the L1D and L2 see the same
   access stream. *)

let counted_classes = Sim.Cpu.[| Int_alu; Fp_add; Fp_mul; Fp_mac; Fp_div; Branch |]
let alu = 0
let fadd = 1
let fmul = 2
let fmac = 3
let fdiv = 4
let branch = 5

type count = int array
(** instructions by {!counted_classes} index; filled while a statement
    compiles, read-only once its closure exists *)

let new_count () : count = Array.make (Array.length counted_classes) 0
let bump (k : count) cls = k.(cls) <- k.(cls) + 1

let[@inline always] add_pending st (k : count) times =
  let p = st.pending in
  for i = 0 to Array.length k - 1 do
    Array.unsafe_set p i (Array.unsafe_get p i + (times * Array.unsafe_get k i))
  done

let retire st =
  let p = st.pending in
  for i = 0 to Array.length p - 1 do
    let n = Array.unsafe_get p i in
    if n > 0 then begin
      Sim.Cpu.issue_many st.cpu (Array.unsafe_get counted_classes i) n;
      Array.unsafe_set p i 0
    end
  done

(* ---------- binding ----------

   [prepare] compiles the IR in one pass: each identifier resolves to a
   typed slot of the run's flat scalar or array tables as its
   expression compiles, so the closures never look a name up. *)

type bind = Bint of int | Bfloat of int | Barr of int * int list

type slots = { mutable n_int : int; mutable n_float : int; mutable n_arr : int }

let new_int s =
  let slot = s.n_int in
  s.n_int <- slot + 1;
  slot

let new_float s =
  let slot = s.n_float in
  s.n_float <- slot + 1;
  slot

let new_arr s =
  let slot = s.n_arr in
  s.n_arr <- slot + 1;
  slot

let lookup env name =
  match List.assoc_opt name env with
  | Some b -> b
  | None -> fail "unbound identifier '%s'" name

let array_slot env name =
  match lookup env name with
  | Barr (slot, _) -> slot
  | Bint _ | Bfloat _ -> fail "'%s' is not an array" name

(* ---------- expressions ----------

   An expression compiles to a closure and adds its non-memory
   instructions to the count [k]: [Int_alu] per integer operator,
   subscript dimension or negation; [Fp_add], [Fp_mul] or [Fp_div] per
   float operator and [Fp_add] per float negation. Float results go
   through [st.facc], so evaluating an expression allocates nothing. *)

type code = state -> unit

type value =
  | Int of (state -> int)
  | Float of code  (** leaves its result in [st.facc] *)

let[@inline always] int_op op x y =
  match op with
  | Ast.Add -> x + y
  | Ast.Sub -> x - y
  | Ast.Mul -> x * y
  | Ast.Div ->
      if y = 0 then fail "integer division by zero";
      x / y

let[@inline always] float_op op x y =
  match op with
  | Ast.Add -> x +. y
  | Ast.Sub -> x -. y
  | Ast.Mul -> x *. y
  | Ast.Div -> x /. y

let[@inline always] check_index idx dim =
  if idx < 0 || idx >= dim then fail "index %d out of bound %d" idx dim

let as_float = function
  | Float f -> f
  | Int f -> fun st -> setf st (float_of_int (f st))

let rec compile_expr env s k (e : Ast.expr) : value =
  match e with
  | Ast.Int_lit n -> Int (fun _ -> n)
  | Ast.Float_lit f -> Float (fun st -> setf st f)
  | Ast.Var name -> (
      match lookup env name with
      | Bint slot -> Int (fun st -> Array.unsafe_get st.ints slot)
      | Bfloat slot -> Float (fun st -> setf st (Array.unsafe_get st.floats slot))
      | Barr _ -> fail "array '%s' used as a scalar" name)
  | Ast.Index (name, indices) ->
      let address = compile_address env s k name indices in
      Float (fun st -> setf st (load st (address st)))
  | Ast.Binop (op, a, b) -> (
      match (compile_expr env s k a, compile_expr env s k b) with
      | Int ca, Int cb ->
          bump k alu;
          Int
            (fun st ->
              let x = ca st in
              int_op op x (cb st))
      | a, b ->
          let ca = as_float a in
          let cb = as_float b in
          bump k (match op with Ast.Add | Ast.Sub -> fadd | Ast.Mul -> fmul | Ast.Div -> fdiv);
          Float
            (fun st ->
              ca st;
              let x = getf st in
              cb st;
              setf st (float_op op x (getf st))))
  | Ast.Neg e -> (
      match compile_expr env s k e with
      | Int ca ->
          bump k alu;
          Int (fun st -> -ca st)
      | Float ca ->
          bump k fadd;
          Float
            (fun st ->
              ca st;
              setf st (-.getf st)))

(* Byte address of a row-major element; one [Int_alu] per dimension. *)
and compile_address env s k name indices : state -> int =
  match lookup env name with
  | Barr (slot, dims) ->
      if List.length indices <> List.length dims then fail "array '%s': rank mismatch" name;
      let idxs =
        Array.of_list
          (List.map
             (fun e ->
               match compile_expr env s k e with
               | Int f -> f
               | Float _ -> fail "non-integer subscript")
             indices)
      in
      let dims = Array.of_list dims in
      k.(alu) <- k.(alu) + Array.length dims;
      fun st ->
        let flat = ref 0 in
        for i = 0 to Array.length dims - 1 do
          let idx = (Array.unsafe_get idxs i) st in
          let dim = Array.unsafe_get dims i in
          check_index idx dim;
          flat := (!flat * dim) + idx
        done;
        (Array.unsafe_get st.arrays slot).base + (4 * !flat)
  | Bint _ | Bfloat _ -> fail "scalar '%s' indexed" name

let int_expr env s k what e =
  match compile_expr env s k e with
  | Int f -> f
  | Float _ -> fail "%s: expected an integer value" what

(* ---------- runtime calls ---------- *)

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

(* Device view of an operand; one [Int_alu] for the offset. *)
let compile_view env s k (r : Ir.mat_ref) : state -> Api.view =
  let name = r.Ir.array in
  let slot = array_slot env name in
  let row_off = int_expr env s k "mat_ref row offset" r.Ir.row_off in
  let col_off = int_expr env s k "mat_ref col offset" r.Ir.col_off in
  bump k alu;
  fun st ->
    let info = array_info st slot name in
    let _, ld = array_shape_2d info in
    let buf = dev_buffer st slot name in
    let row_off = row_off st in
    let col_off = col_off st in
    Api.view ~offset_elems:((row_off * ld) + col_off) ~ld buf

let pin_of = function Ir.Pin_a -> Regs.Pin_a | Ir.Pin_b -> Regs.Pin_b

(* A runtime call reads the core's clock, so it retires everything
   pending — its own operand arithmetic included — before it runs. *)
let compile_call env s (call : Ir.call) : code =
  match call with
  | Ir.Cim_init ->
      fun st ->
        retire st;
        if st.api = None then st.api <- Some (Api.init st.platform)
  | Ir.Cim_alloc { array = name } ->
      let slot = array_slot env name in
      fun st ->
        retire st;
        let api = require_api st in
        let info = array_info st slot name in
        let rows, cols = array_shape_2d info in
        if Hashtbl.mem st.dev slot then fail "polly_cimMalloc: '%s' already allocated" name;
        (match Api.malloc api ~bytes:(4 * rows * cols) with
        | Error reason -> fail "polly_cimMalloc(%s): %s" name reason
        | Ok buf -> Hashtbl.add st.dev slot buf)
  | Ir.Cim_h2d { array = name } ->
      let slot = array_slot env name in
      fun st ->
        retire st;
        let api = require_api st in
        let info = array_info st slot name in
        let _, ld = array_shape_2d info in
        let buf = dev_buffer st slot name in
        Api.host_to_dev api ~src:(host_matrix st info) ~dst:(Api.view ~ld buf)
  | Ir.Cim_d2h { array = name } ->
      let slot = array_slot env name in
      fun st ->
        retire st;
        let api = require_api st in
        let info = array_info st slot name in
        let rows, cols = array_shape_2d info in
        let buf = dev_buffer st slot name in
        let m = Api.dev_to_host api ~src:(Api.view ~ld:cols buf) ~rows ~cols in
        store_host_matrix st info name m
  | Ir.Cim_free { array = name } ->
      let slot = array_slot env name in
      fun st ->
        retire st;
        let api = require_api st in
        Api.free api (dev_buffer st slot name);
        Hashtbl.remove st.dev slot
  | Ir.Cim_im2col { src; dst; kh; kw; oh; ow } ->
      let src_slot = array_slot env src in
      let dst_slot = array_slot env dst in
      fun st ->
        retire st;
        let api = require_api st in
        let src_info = array_info st src_slot src in
        let src_rows, src_cols = array_shape_2d src_info in
        let dst_info = array_info st dst_slot dst in
        let _, dst_ld = array_shape_2d dst_info in
        let src_buf = dev_buffer st src_slot src in
        let dst_buf = dev_buffer st dst_slot dst in
        Api.dev_im2col api
          ~src:(Api.view ~ld:src_cols src_buf)
          ~src_rows ~src_cols
          ~dst:(Api.view ~ld:dst_ld dst_buf)
          ~kh ~kw ~oh ~ow
  | Ir.Cim_gemm { m; n; k = kdim; alpha; beta; a; b; c; pin } ->
      if c.Ir.trans then fail "polly_cimBlasSGemm: transposed C is not supported";
      let k = new_count () in
      let alpha = as_float (compile_expr env s k alpha) in
      let beta = as_float (compile_expr env s k beta) in
      let va = compile_view env s k a in
      let vb = compile_view env s k b in
      let vc = compile_view env s k c in
      let pin = pin_of pin in
      fun st ->
        let api = require_api st in
        alpha st;
        let alpha = getf st in
        beta st;
        let beta = getf st in
        let va = va st in
        let vb = vb st in
        let vc = vc st in
        add_pending st k 1;
        retire st;
        (match
           Api.sgemm api ~trans_a:a.Ir.trans ~trans_b:b.Ir.trans ~pin ~m ~n ~k:kdim ~alpha ~a:va
             ~b:vb ~beta ~c:vc ()
         with
        | Ok () -> ()
        | Error reason -> fail "polly_cimBlasSGemm: %s" reason)
  | Ir.Cim_gemm_batched { m; n; k = kdim; alpha; beta; batch; pin } ->
      let k = new_count () in
      let alpha = as_float (compile_expr env s k alpha) in
      let beta = as_float (compile_expr env s k beta) in
      let views =
        List.map
          (fun (a, b, c) ->
            let va = compile_view env s k a in
            let vb = compile_view env s k b in
            let vc = compile_view env s k c in
            fun st -> (va st, vb st, vc st))
          batch
      in
      let pin = pin_of pin in
      fun st ->
        let api = require_api st in
        alpha st;
        let alpha = getf st in
        beta st;
        let beta = getf st in
        let trans_a, trans_b =
          match batch with
          | (a, b, _) :: _ -> (a.Ir.trans, b.Ir.trans)
          | [] -> fail "polly_cimBlasGemmBatched: empty batch"
        in
        let batch = List.map (fun view -> view st) views in
        add_pending st k 1;
        retire st;
        (match
           Api.gemm_batched api ~trans_a ~trans_b ~pin ~m ~n ~k:kdim ~alpha ~beta ~batch ()
         with
        | Ok () -> ()
        | Error reason -> fail "polly_cimBlasGemmBatched: %s" reason)

(* ---------- statements ----------

   [compile_stmt env s k stmt] returns the environment of the
   statements after [stmt] and its closure, and adds to [k] the
   instructions one execution of [stmt] issues that the closure does
   not count itself; [compile_block] accounts for them — a loop
   without runtime calls or ROI markers folds them into its
   per-iteration count, any other block adds them to the pending
   counters right after the statement runs. A loop counts its own
   iterations: [Int_alu] plus [Branch] each (increment and back-edge
   test). A loop whose body cannot read the core's counters adds
   [trips] times its per-iteration count once, when it exits; any
   other loop adds the iteration's count after each iteration, so it
   is pending before the next runtime call. *)

(* The value [lhs op= v] leaves in [lhs], whose value was [old]. *)
let[@inline always] assign_f op old v =
  match op with
  | Ast.Set -> v
  | Ast.Add_assign -> old +. v
  | Ast.Sub_assign -> old -. v
  | Ast.Mul_assign -> old *. v

let[@inline always] assign_i op old v =
  match op with
  | Ast.Set -> v
  | Ast.Add_assign -> old + v
  | Ast.Sub_assign -> old - v
  | Ast.Mul_assign -> old * v

let rec reads_counters (stmt : Ir.stmt) =
  match stmt with
  | Ir.Call _ | Ir.Roi_begin | Ir.Roi_end -> true
  | Ir.For { body; _ } -> List.exists reads_counters body
  | Ir.Assign _ | Ir.Decl_scalar _ | Ir.Decl_array _ -> false

let[@inline always] run_block (block : code array) st =
  for i = 0 to Array.length block - 1 do
    (Array.unsafe_get block i) st
  done

let compile_assign env s k (lhs : Ast.lvalue) op (rhs : Ast.expr) : code =
  match (lookup env lhs.Ast.base, lhs.Ast.indices) with
  | Barr _, indices -> (
      let address = compile_address env s k lhs.Ast.base indices in
      let rhs =
        match (op, rhs) with
        | Ast.Add_assign, Ast.Binop (Ast.Mul, a, b) ->
            (* a top-level multiply under [+=] retires as one fused
               multiply-accumulate on the A7's VFP *)
            let a = compile_expr env s k a in
            let b = compile_expr env s k b in
            bump k (match (a, b) with Int _, Int _ -> alu | _ -> fmac);
            let ca = as_float a in
            let cb = as_float b in
            fun st ->
              ca st;
              let x = getf st in
              cb st;
              setf st (x *. getf st)
        | _ -> as_float (compile_expr env s k rhs)
      in
      (* [+=] is folded into the multiply-accumulate (or is a plain
         store of the sum); [-=] and [*=] issue one more FP op *)
      (match op with
      | Ast.Sub_assign | Ast.Mul_assign -> bump k fadd
      | Ast.Set | Ast.Add_assign -> ());
      match op with
      | Ast.Set ->
          fun st ->
            let addr = address st in
            rhs st;
            store st addr (getf st)
      | Ast.Add_assign | Ast.Sub_assign | Ast.Mul_assign ->
          fun st ->
            let addr = address st in
            rhs st;
            let v = getf st in
            store st addr (assign_f op (load st addr) v))
  | Bfloat slot, [] ->
      let rhs = as_float (compile_expr env s k rhs) in
      if op <> Ast.Set then bump k fadd;
      fun st ->
        rhs st;
        Array.unsafe_set st.floats slot (assign_f op (Array.unsafe_get st.floats slot) (getf st))
  | Bint slot, [] ->
      let rhs =
        match compile_expr env s k rhs with
        | Int f -> f
        | Float _ -> fail "integer assignment: expected an integer value"
      in
      bump k alu;
      fun st ->
        let v = rhs st in
        Array.unsafe_set st.ints slot (assign_i op (Array.unsafe_get st.ints slot) v)
  | (Bint _ | Bfloat _), _ :: _ -> fail "scalar '%s' indexed" lhs.Ast.base

let rec compile_stmt env s k (stmt : Ir.stmt) =
  match stmt with
  | Ir.For { var; lo; hi; step; body } when not (List.exists reads_counters body) ->
      let lo = int_expr env s k "loop bound" lo in
      let hi = int_expr env s k "loop bound" hi in
      let slot = new_int s in
      let iteration = new_count () in
      let body = compile_block ((var, Bint slot) :: env) s (Some iteration) body in
      bump iteration alu;
      bump iteration branch;
      ( env,
        fun st ->
          let lo = lo st in
          let hi = hi st in
          let ints = st.ints in
          Array.unsafe_set ints slot lo;
          let trips = ref 0 in
          while Array.unsafe_get ints slot < hi do
            run_block body st;
            incr trips;
            Array.unsafe_set ints slot (Array.unsafe_get ints slot + step)
          done;
          if !trips > 0 then add_pending st iteration !trips )
  | Ir.For { var; lo; hi; step; body } ->
      let bounds = new_count () in
      let lo = int_expr env s bounds "loop bound" lo in
      let hi = int_expr env s bounds "loop bound" hi in
      let slot = new_int s in
      let body = compile_block ((var, Bint slot) :: env) s None body in
      let iteration = new_count () in
      bump iteration alu;
      bump iteration branch;
      ( env,
        fun st ->
          let lo = lo st in
          let hi = hi st in
          add_pending st bounds 1;
          let ints = st.ints in
          Array.unsafe_set ints slot lo;
          while Array.unsafe_get ints slot < hi do
            run_block body st;
            add_pending st iteration 1;
            Array.unsafe_set ints slot (Array.unsafe_get ints slot + step)
          done )
  | Ir.Assign { lhs; op; rhs } -> (env, compile_assign env s k lhs op rhs)
  | Ir.Decl_scalar { name; typ = Ast.Tint; init } ->
      let init = Option.map (int_expr env s k "initialiser") init in
      let slot = new_int s in
      ( (name, Bint slot) :: env,
        match init with
        | Some init -> fun st -> Array.unsafe_set st.ints slot (init st)
        | None -> fun st -> Array.unsafe_set st.ints slot 0 )
  | Ir.Decl_scalar { name; typ = Ast.Tfloat; init } ->
      let init = Option.map (fun e -> as_float (compile_expr env s k e)) init in
      let slot = new_float s in
      ( (name, Bfloat slot) :: env,
        match init with
        | Some init ->
            fun st ->
              init st;
              Array.unsafe_set st.floats slot (getf st)
        | None -> fun st -> Array.unsafe_set st.floats slot 0.0 )
  | Ir.Decl_scalar { typ = Ast.Tvoid; _ } -> fail "void declaration"
  | Ir.Decl_array { name; dims } ->
      let slot = new_arr s in
      ((name, Barr (slot, dims)) :: env, fun st -> st.arrays.(slot) <- alloc_array st dims)
  | Ir.Call call -> (env, compile_call env s call)
  | Ir.Roi_begin ->
      ( env,
        fun st ->
          retire st;
          Sim.Cpu.roi_begin st.cpu;
          st.roi_open <- true )
  | Ir.Roi_end ->
      ( env,
        fun st ->
          retire st;
          Sim.Cpu.roi_end st.cpu;
          st.roi_open <- false )

(* A statement list, each declaration in scope for the statements after
   it. [Some k]: every statement adds its count to [k], the body of a
   loop that retires when it exits. [None]: each statement's own count
   is pending right after it runs. *)
and compile_block env s (into : count option) (body : Ir.stmt list) : code array =
  let rec go env = function
    | [] -> []
    | stmt :: rest -> (
        match into with
        | Some k ->
            let env, code = compile_stmt env s k stmt in
            code :: go env rest
        | None ->
            let k = new_count () in
            let env, code = compile_stmt env s k stmt in
            let code =
              if Array.for_all (( = ) 0) k then code
              else fun st ->
                code st;
                add_pending st k 1
            in
            code :: go env rest)
  in
  Array.of_list (go env body)

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

(* ---------- prepared programs ---------- *)

type prepared = {
  params : (string * bind) list;  (** declaration order *)
  n_ints : int;
  n_floats : int;
  n_arrays : int;
  body : code array;
}

type program = (prepared, string) result

(* Scalar parameters take the slot kind of their declared type. *)
let bind_param s (p : Ast.param) =
  if p.Ast.dims <> [] then Barr (new_arr s, p.Ast.dims)
  else
    match p.Ast.ptyp with
    | Ast.Tint -> Bint (new_int s)
    | Ast.Tfloat -> Bfloat (new_float s)
    | Ast.Tvoid -> fail "parameter '%s' has type void" p.Ast.pname

let prepare (f : Ir.func) : program =
  match
    let s = { n_int = 0; n_float = 0; n_arr = 0 } in
    let params = List.map (fun (p : Ast.param) -> (p.Ast.pname, bind_param s p)) f.Ir.params in
    let body = compile_block params s None f.Ir.body in
    { params; n_ints = s.n_int; n_floats = s.n_float; n_arrays = s.n_arr; body }
  with
  | prepared -> Ok prepared
  | exception Exec_error msg -> Error msg

type arg = Aint of int * int | Afloat of int * float | Aarray of int * int list * Interp.arr

let check_arg args (name, bind) =
  match (bind, List.assoc_opt name args) with
  | _, None -> fail "missing argument '%s'" name
  | Bint slot, Some (Interp.Vint n) -> Aint (slot, n)
  | Bfloat slot, Some (Interp.Vfloat v) -> Afloat (slot, v)
  | Bint _, Some (Interp.Vfloat _) -> fail "argument '%s' should be an int" name
  | Bfloat _, Some (Interp.Vint _) -> fail "argument '%s' should be a float" name
  | Barr _, Some (Interp.Vint _ | Interp.Vfloat _) ->
      fail "argument '%s' should be an array" name
  | (Bint _ | Bfloat _), Some (Interp.Varray _) ->
      fail "argument '%s' has mismatched dimensions" name
  | Barr (slot, dims), Some (Interp.Varray arr) ->
      if arr.Interp.dims <> dims then fail "argument '%s' has mismatched dimensions" name;
      Aarray (slot, dims, arr)

let exec ?scratch (program : program) ~platform ~args =
  let p = match program with Ok p -> p | Error msg -> raise (Exec_error msg) in
  let bound = List.map (check_arg args) p.params in
  (* Slot tables come from the per-domain arena when the caller passes
     one — every slot is written (by binding or its declaration) before
     it is read, but zero-fill anyway so a miscompiled program reads
     deterministic garbage rather than a previous run's values. *)
  let ints =
    match scratch with
    | None -> Array.make (max 1 p.n_ints) 0
    | Some a ->
        let t = Tdo_util.Arena.int_array a (max 1 p.n_ints) in
        Array.fill t 0 (Array.length t) 0;
        t
  in
  let floats =
    match scratch with
    | None -> Array.make (max 1 p.n_floats) 0.0
    | Some a ->
        let t = Tdo_util.Arena.float_array a (max 1 p.n_floats) in
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
      arrays = Array.make (max 1 p.n_arrays) no_array;
      facc = Float.Array.create 1;
      heap = heap_base;
      api = None;
      dev = Hashtbl.create 8;
      pending = new_count ();
      roi_open = false;
    }
  in
  let staged =
    List.fold_left
      (fun staged arg ->
        match arg with
        | Aint (slot, n) ->
            ints.(slot) <- n;
            staged
        | Afloat (slot, v) ->
            floats.(slot) <- v;
            staged
        | Aarray (slot, dims, arr) ->
            let info = alloc_array st dims in
            st.arrays.(slot) <- info;
            stage_in st arr info;
            (info, arr) :: staged)
      [] bound
  in
  (* A failed run leaves its platform as usable as a completed one: what
     it counted is retired, a ROI window it opened is closed and the
     device buffers it still holds go back to the CMA region, which
     outlives the run. *)
  (try
     run_block p.body st;
     retire st
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     retire st;
     if st.roi_open then Sim.Cpu.roi_end st.cpu;
     Option.iter (fun api -> Hashtbl.iter (fun _ buf -> Api.free api buf) st.dev) st.api;
     Printexc.raise_with_backtrace e bt);
  List.iter (fun (info, arr) -> stage_out st info arr) staged;
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

let run ?scratch f ~platform ~args = exec ?scratch (prepare f) ~platform ~args
