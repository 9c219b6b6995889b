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
  kernel_iterations : int;
}

exception Exec_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Exec_error s)) fmt

(* ---------- runtime state ---------- *)

type state = {
  platform : Platform.t;
  cpu : Sim.Cpu.t;
  memory : Sim.Memory.t;
  ints : int array;
  floats : float array;
  bases : int array;
      (** by array slot: the array's base address in simulated memory,
          -1 before its declaration *)
  facc : floatarray;
      (** single-slot accumulator a compiled float expression leaves
          its result in: a [float]-returning closure boxes its result
          at every call *)
  mutable heap : int;
  mutable api : Api.t option;
  dev : Api.view option array;
      (** by array slot: the whole-array view of its device buffer,
          made by [polly_cimMalloc] *)
  pending : int array;
      (** instructions counted but not yet retired to the core, by
          {!counted_classes} index *)
  mutable loads : int;  (** probed and not yet retired *)
  mutable stores : int;
  mutable miss_cycles : int;  (** what those probes cost beyond L1D hits *)
  memory_bytes : int;  (** the size of simulated memory *)
  mutable roi_open : bool;  (** this run opened the ROI window and has not closed it *)
  addr : int array;  (** by site: a running loop kernel's address register *)
  chunk : Bytes.t array;
      (** by site: the memory chunk a running loop kernel's site reads
          and writes directly, or [Bytes.empty] *)
  mutable kernel_iterations : int;  (** iterations run as loop kernels *)
  mutable binary32 : Tdo_linalg.Quant.binary32;
      (** the cell a loop kernel's register rounds through, made at the
          run's first such loop; [unused_cell] until then *)
}

let heap_base = 0x0100_0000

(* Shared by every run: [binary32] before the first loop kernel whose
   target stays in a register. It is replaced before anything could
   write to it. *)
let unused_cell = Tdo_linalg.Quant.binary32 ()

(* The base address of a fresh array of [dims]. *)
let alloc_array st dims =
  let bytes = 4 * List.fold_left ( * ) 1 dims in
  let base = st.heap in
  st.heap <- (st.heap + bytes + 63) / 64 * 64;
  base

let[@inline always] getf st = Float.Array.unsafe_get st.facc 0
let[@inline always] setf st v = Float.Array.unsafe_set st.facc 0 v

(* ---------- instruction counting ----------

   The non-memory instructions a statement issues do not depend on the
   data, so they are counted once, at compile time, into a [count]
   array; the compiled code adds them to the run's pending counters in
   bulk. A load or store probes the L1D as it runs, in program order
   and at its address, so the L1D and L2 see the same access stream,
   and adds itself and the cycles it cost beyond a hit to the pending
   counters too. [retire] hands everything pending to the core, with
   [Cpu.issue_many] and [Cpu.retire_probed]. This is exact: the core's
   cycle count is a sum of per-instruction costs, no cache, bus or
   memory latency reads the core's clock, and only runtime calls, ROI
   markers and the end of the run read the core's counters — each of
   which retires everything pending first. *)

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
  done;
  if st.loads + st.stores > 0 then begin
    Sim.Cpu.retire_probed st.cpu ~loads:st.loads ~stores:st.stores ~cycles:st.miss_cycles;
    st.loads <- 0;
    st.stores <- 0;
    st.miss_cycles <- 0
  end

(* Each load and store site of the program has its own number, under
   which the core remembers the line the site last touched. *)
let[@inline always] load st site addr =
  st.loads <- st.loads + 1;
  st.miss_cycles <- st.miss_cycles + Sim.Cpu.probe_load st.cpu ~site ~addr;
  Sim.Memory.read_f32 st.memory addr

let[@inline always] store st site addr v =
  st.stores <- st.stores + 1;
  st.miss_cycles <- st.miss_cycles + Sim.Cpu.probe_store st.cpu ~site ~addr;
  Sim.Memory.write_f32 st.memory addr v

(* ---------- access sites ----------

   Every array access of the program, a load or an assignment's
   target, is one site: the record both the per-iteration closure and a
   loop kernel's entry check read. Its address is row-major, each
   subscript checked in order; a subscript that is an integer variable
   is read from its slot in place, any other runs its closure. *)

type site = {
  id : int;  (** the site's number *)
  arr : int;  (** the array's slot *)
  extents : int array;
  vars : int array;  (** each subscript's integer slot when it is a plain variable, or -1 *)
  subs : (state -> int) array;  (** each other subscript's closure *)
  exprs : Ast.expr array;  (** the subscripts *)
}

let[@inline always] check_index idx dim =
  if idx < 0 || idx >= dim then fail "index %d out of bound %d" idx dim

let[@inline always] subscript st s d =
  let var = Array.unsafe_get s.vars d in
  if var >= 0 then Array.unsafe_get st.ints var else (Array.unsafe_get s.subs d) st

let[@inline always] address st s =
  let flat = ref 0 in
  for d = 0 to Array.length s.extents - 1 do
    let idx = subscript st s d in
    let dim = Array.unsafe_get s.extents d in
    check_index idx dim;
    flat := (!flat * dim) + idx
  done;
  Array.unsafe_get st.bases s.arr + (4 * !flat)

(* ---------- binding ----------

   [prepare] compiles the IR in one pass: each identifier resolves to a
   typed slot of the run's flat scalar or array tables as its
   expression compiles, so the closures never look a name up. *)

type bind = Bint of int | Bfloat of int | Barr of int * int list

type slots = {
  mutable n_int : int;
  mutable n_float : int;
  mutable n_arr : int;
  mutable n_site : int;  (** load and store sites *)
  mutable last_sites : site list;  (** the sites of the assignment compiled last, latest first *)
  mutable written : int list;
      (** array slots the program assigns or copies back from the device *)
  kernels : bool;  (** compile qualifying innermost loops as loop kernels *)
}

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

let as_float = function
  | Float f -> f
  | Int f -> fun st -> setf st (float_of_int (f st))

(* The closure slot of a subscript read in place: never called. *)
let in_place : state -> int = fun _ -> 0

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
      let site = compile_site env s k name indices in
      Float (fun st -> setf st (load st site.id (address st site)))
  | Ast.Binop (op, a, b) -> (
      (* left operand first, so that sites are numbered in source order *)
      let a = compile_expr env s k a in
      let b = compile_expr env s k b in
      match (a, b) with
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

(* The next site, an access of array [name]; one [Int_alu] per
   dimension. *)
and compile_site env s k name indices : site =
  match lookup env name with
  | Barr (arr, dims) ->
      if List.length indices <> List.length dims then fail "array '%s': rank mismatch" name;
      k.(alu) <- k.(alu) + List.length dims;
      let int_var = function
        | Ast.Var v -> ( match List.assoc_opt v env with Some (Bint i) -> i | _ -> -1)
        | _ -> -1
      in
      let exprs = Array.of_list indices in
      let vars = Array.map int_var exprs in
      let subs =
        Array.mapi
          (fun d e ->
            if vars.(d) >= 0 then in_place
            else
              match compile_expr env s k e with
              | Int f -> f
              | Float _ -> fail "non-integer subscript")
          exprs
      in
      let site = { id = s.n_site; arr; extents = Array.of_list dims; vars; subs; exprs } in
      s.n_site <- s.n_site + 1;
      s.last_sites <- site :: s.last_sites;
      site
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

let check_declared st slot name =
  if st.bases.(slot) < 0 then fail "array '%s' used before its declaration" name

let array_base st slot name =
  check_declared st slot name;
  st.bases.(slot)

(* A device array's slot and shape: [rows x cols], a vector of [n] is
   [n x 1], and [None] for a rank a runtime call rejects when it runs. *)
let device_array env name =
  let shape =
    match lookup env name with
    | Barr (_, [ rows; cols ]) -> Some (rows, cols)
    | Barr (_, [ n ]) -> Some (n, 1)
    | Barr _ | Bint _ | Bfloat _ -> None
  in
  (array_slot env name, shape)

let shape_2d = function
  | Some shape -> shape
  | None -> fail "device arrays must have rank 1 or 2"

let dev_view st slot name =
  match Array.unsafe_get st.dev slot with
  | Some view -> view
  | None -> fail "array '%s' is not on the device (missing polly_cimMalloc)" name

(* The host side of a copy between an array at [base] and its device
   buffer: one address computation and one load or store per element
   of the packed array, charged in bulk ([Cpu.issue_run] is equivalent
   to one [issue_at] per element). The data moves memory to memory in
   [Api]. *)
let charge_host_copy st base ~rows ~cols cls =
  Sim.Cpu.issue_many st.cpu Sim.Cpu.Int_alu (rows * cols);
  Sim.Cpu.issue_run st.cpu ~addr:base ~count:(rows * cols) cls

(* Device view of an operand; one [Int_alu] for the offset. An operand
   at offset 0 is its array's whole view. *)
let compile_view env s k (r : Ir.mat_ref) : state -> Api.view =
  let name = r.Ir.array in
  let slot, shape = device_array env name in
  let row_off = int_expr env s k "mat_ref row offset" r.Ir.row_off in
  let col_off = int_expr env s k "mat_ref col offset" r.Ir.col_off in
  bump k alu;
  fun st ->
    check_declared st slot name;
    let _, ld = shape_2d shape in
    let whole = dev_view st slot name in
    let row_off = row_off st in
    let col_off = col_off st in
    match (row_off * ld) + col_off with
    | 0 -> whole
    | offset_elems -> Api.view ~offset_elems ~ld whole.Api.buf

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
      let slot, shape = device_array env name in
      fun st ->
        retire st;
        let api = require_api st in
        check_declared st slot name;
        let rows, cols = shape_2d shape in
        if Option.is_some st.dev.(slot) then fail "polly_cimMalloc: '%s' already allocated" name;
        (match Api.malloc api ~bytes:(4 * rows * cols) with
        | Error reason -> fail "polly_cimMalloc(%s): %s" name reason
        | Ok buf -> st.dev.(slot) <- Some (Api.view ~ld:cols buf))
  | Ir.Cim_h2d { array = name } ->
      let slot, shape = device_array env name in
      fun st ->
        retire st;
        let api = require_api st in
        let base = array_base st slot name in
        let rows, cols = shape_2d shape in
        let dst = dev_view st slot name in
        charge_host_copy st base ~rows ~cols Sim.Cpu.Load;
        Api.host_to_dev_mem api ~src:base ~dst ~rows ~cols
  | Ir.Cim_d2h { array = name } ->
      let slot, shape = device_array env name in
      s.written <- slot :: s.written;
      fun st ->
        retire st;
        let api = require_api st in
        let base = array_base st slot name in
        let rows, cols = shape_2d shape in
        let src = dev_view st slot name in
        Api.dev_to_host_mem api ~src ~dst:base ~rows ~cols;
        charge_host_copy st base ~rows ~cols Sim.Cpu.Store
  | Ir.Cim_free { array = name } ->
      let slot = array_slot env name in
      fun st ->
        retire st;
        let api = require_api st in
        Api.free api (dev_view st slot name).Api.buf;
        st.dev.(slot) <- None
  | Ir.Cim_im2col { src; dst; kh; kw; oh; ow } ->
      let src_slot, src_shape = device_array env src in
      let dst_slot, dst_shape = device_array env dst in
      fun st ->
        retire st;
        let api = require_api st in
        check_declared st src_slot src;
        let src_rows, src_cols = shape_2d src_shape in
        check_declared st dst_slot dst;
        (* the destination's rank is checked, its whole view used *)
        ignore (shape_2d dst_shape : int * int);
        let src_view = dev_view st src_slot src in
        let dst_view = dev_view st dst_slot dst in
        Api.dev_im2col api ~src:src_view ~src_rows ~src_cols ~dst:dst_view ~kh ~kw ~oh ~ow
  | Ir.Cim_gemm { m; n; k = kdim; alpha; beta; a; b; c; pin } ->
      if c.Ir.trans then fail "polly_cimBlasSGemm: transposed C is not supported";
      let k = new_count () in
      let alpha = as_float (compile_expr env s k alpha) in
      let beta = as_float (compile_expr env s k beta) in
      let va = compile_view env s k a in
      let vb = compile_view env s k b in
      let vc = compile_view env s k c in
      (* passed as options, so a launch wraps none of them *)
      let trans_a = Some a.Ir.trans and trans_b = Some b.Ir.trans and pin = Some (pin_of pin) in
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
           Api.sgemm api ?trans_a ?trans_b ?pin ~m ~n ~k:kdim ~alpha ~a:va ~b:vb ~beta ~c:vc ()
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

(* [a[..] op= v] at [addr]: the load and the store are back to back, so
   one probe serves both. Where [Memory] rejects the address, the load
   raises before any store, so it is probed alone. *)
let[@inline always] update st site addr op v =
  if addr + 4 > st.memory_bytes then ignore (load st site addr)
  else begin
    st.loads <- st.loads + 1;
    st.stores <- st.stores + 1;
    st.miss_cycles <- st.miss_cycles + Sim.Cpu.probe_update st.cpu ~site ~addr;
    Sim.Memory.write_f32 st.memory addr (assign_f op (Sim.Memory.read_f32 st.memory addr) v)
  end

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
  s.last_sites <- [];
  match (lookup env lhs.Ast.base, lhs.Ast.indices) with
  | Barr (slot, _), indices -> (
      s.written <- slot :: s.written;
      let site = compile_site env s k lhs.Ast.base indices in
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
            let addr = address st site in
            rhs st;
            store st site.id addr (getf st)
      | Ast.Add_assign | Ast.Sub_assign | Ast.Mul_assign ->
          fun st ->
            let addr = address st site in
            rhs st;
            update st site.id addr op (getf st))
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

(* ---------- loop kernels ----------

   An innermost loop with a positive step whose body is one assignment
   [a[..] op= x], [x * y] or [x * y * z], each factor a load, a float
   scalar or a float literal, and whose every subscript is affine in
   the loop variable (a compile-time coefficient times the variable,
   plus integer terms, which the one array assignment cannot change),
   also compiles into a kernel: one closure that runs the whole loop
   from the sites its per-iteration compile built. At loop entry the
   kernel evaluates each site's subscripts at the first iteration and
   derives them at the last. A subscript moves linearly with the
   iteration, so when both ends are in bounds, and both ends' addresses
   inside simulated memory, every access of the loop is, and nothing in
   the loop can fail: an affine subscript holds no integer division.
   Otherwise the per-iteration closure runs the loop and fails where it
   always failed, with every access before the failing one probed. It
   also runs a loop whose sites outnumber the L1D's ways (below), and
   any loop of another shape.

   Inside the kernel each site's byte address advances by the site's
   stride, and a site whose span lies inside one memory chunk reads and
   writes that chunk's bytes, with the registers, chunks and factors in
   locals. Each iteration accesses the loads left to right and then the
   target, each store rounds to f32, the loop variable ends at its
   final value, and the loop adds [trips] times its per-iteration count
   when it exits, as the per-iteration closure does.

   The L1D sees the accesses line by line. With S sites, at most the
   L1D's ways, an access on the line its site touched one iteration
   earlier is a hit: only S - 1 accesses came between, and evicting the
   line takes [ways] other lines. Such a hit is skipped (see
   {!Sim.Cache.skip_hits}); only a site that moves to a new line is
   probed, at its own site number, once the clock is brought up to the
   probe's tick. Every access ticks the clock once, a read-modify-write
   twice, so the tick of a site's access in iteration [i] is the clock
   at entry plus [i] times the ticks per iteration plus the site's
   place among them. A skipped hit leaves one more trace, its line's
   LRU stamp, which only a fill in that line's set reads: a line gets
   the stamp of its site's last access there when the site leaves it,
   before a probe that would miss fills a line of its set, and at exit,
   when the clock moves to the loop's end. Between two iterations where
   some site moves the loop only computes.

   A target with stride 0 that no load reads keeps its value in a
   local, rounded to binary32 after each update, as a store and a load
   of memory round it, and is stored once at exit: nothing else reads
   memory while the loop runs, and nothing in it can fail. Arrays never
   overlap, so a loop qualifies unless a load names the target's array;
   then it qualifies at an entry where that load's span misses the
   target. *)

exception Not_a_kernel

type factor =
  | Load of { site : int; stride : int }
  | Slot of int  (** a float slot *)
  | Lit of float

type shape = Two_loads | Scaled_two_loads | Other

type kernel = {
  var : int;  (** the loop variable's slot *)
  step : int;
  sites : site array;  (** the statement's sites in access order: its loads, then its target *)
  deltas : int array array;  (** by site, each subscript's change per iteration *)
  strides : int array;  (** by site, its bytes per iteration *)
  shifts : int array;  (** by site, log2 of its stride's magnitude when a power of two, or -1 *)
  target : int;  (** the target's site number *)
  stride : int;  (** the target's bytes per iteration *)
  op : Ast.assign_op;
  factors : factor array;  (** 1 to 3, multiplied left to right *)
  shape : shape;
  period : int;  (** L1D clock ticks per iteration: one per load, one or two for the target *)
  aliases : int;  (** bit [j] set: the [j]th load reads the target's array *)
  loads : int;  (** counted per iteration *)
  max_trips : int;  (** past it, a subscript's change over the loop could overflow *)
}

let chunk_mask = Sim.Memory.chunk_size - 1

(* An f32 at [addr], through [c] when it is the chunk that holds
   [addr], through [Sim.Memory] when it is [Bytes.empty]. A chunk holds
   its site's whole span, checked at loop entry, so the kernel reads
   and writes it without a bounds check, little-endian as [Sim.Memory]
   lays it out. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline always] get_i32_le c off = if Sys.big_endian then swap32 (get32u c off) else get32u c off

let[@inline always] set_i32_le c off v =
  if Sys.big_endian then set32u c off (swap32 v) else set32u c off v

let[@inline always] read_at st addr c =
  if c != Bytes.empty then Int32.float_of_bits (get_i32_le c (addr land chunk_mask))
  else Sim.Memory.read_f32 st.memory addr

let[@inline always] write_at st addr c v =
  if c != Bytes.empty then set_i32_le c (addr land chunk_mask) (Int32.bits_of_float v)
  else Sim.Memory.write_f32 st.memory addr v

(* Sets each site's register to its first address and takes its chunk,
   sets the loop variable to its first value, and tells whether every
   subscript stays in bounds and every address inside memory for
   [trips] iterations. A site whose span crosses a chunk boundary goes
   through [Sim.Memory]. *)
let kernel_enter st kn ~lo ~trips =
  Array.unsafe_set st.ints kn.var lo;
  let inside = ref true in
  for j = 0 to Array.length kn.sites - 1 do
    let s = Array.unsafe_get kn.sites j in
    let deltas = Array.unsafe_get kn.deltas j in
    let first = ref 0 and last = ref 0 in
    for d = 0 to Array.length s.extents - 1 do
      let dim = Array.unsafe_get s.extents d in
      let v0 = subscript st s d in
      let v1 = v0 + (Array.unsafe_get deltas d * (trips - 1)) in
      if v0 < 0 || v0 >= dim || v1 < 0 || v1 >= dim then inside := false;
      first := (!first * dim) + v0;
      last := (!last * dim) + v1
    done;
    let base = Array.unsafe_get st.bases s.arr in
    let a0 = base + (4 * !first) and a1 = base + (4 * !last) in
    let low = Int.min a0 a1 and high = Int.max a0 a1 + 4 in
    if low < 0 || high > st.memory_bytes then inside := false
    else begin
      Array.unsafe_set st.addr s.id a0;
      Array.unsafe_set st.chunk s.id
        (if low lxor (high - 1) <= chunk_mask then Sim.Memory.chunk_at st.memory low
         else Bytes.empty)
    end
  done;
  !inside

(* Whether no load's span covers the target, at [addr], over [trips]
   iterations. *)
let clear_of_loads st kn ~addr ~trips =
  let clear = ref true in
  for j = 0 to Array.length kn.sites - 2 do
    if kn.aliases land (1 lsl j) <> 0 then begin
      let a0 = Array.unsafe_get st.addr (Array.unsafe_get kn.sites j).id in
      let a1 = a0 + (Array.unsafe_get kn.strides j * (trips - 1)) in
      if Int.min a0 a1 <= addr && addr <= Int.max a0 a1 then clear := false
    end
  done;
  !clear

(* Whether the target stays in a register for [trips] iterations: its
   stride is 0 and no load reads it. *)
let[@inline always] in_register st kn ~trips =
  kn.stride = 0
  && (kn.aliases = 0 || clear_of_loads st kn ~addr:(Array.unsafe_get st.addr kn.target) ~trips)

(* The tick of the [r]th access of iteration [i] in a loop entered at
   clock [clock], the later one if the access takes two. *)
let[@inline always] tick kn ~clock ~i r =
  clock + (i * kn.period) + if r < Array.length kn.sites - 1 then r + 1 else kn.period

let[@inline always] site_number kn r = (Array.unsafe_get kn.sites r).id

(* The address of the [r]th access of iteration [i]. *)
let[@inline always] address_at st kn ~i r =
  Array.unsafe_get st.addr (site_number kn r) + (i * Array.unsafe_get kn.strides r)

(* The [q]th access of iteration [i], at site [site], moves to the line
   of [addr], so it is probed; [pending]: the line it leaves took
   skipped hits, the last one in iteration [i - 1]. No site touches
   that line again, so it gets its stamp now. The clock moves to the
   tick before the probe. A probe that would miss fills a line of
   [addr]'s set, choosing the victim by the stamps there, so first each
   other site's line in that set gets the stamp of that site's last
   access ([probe_missed]); then the line fills without a second search
   of the set ([Cpu.probe_fill]). Lines in other sets keep their
   skipped hits until their own set fills, their site moves on or the
   loop exits. *)
let probe_missed st kn ~clock ~i ~q ~site op ~update ~addr =
  let l1d = st.platform.Platform.l1d in
  let set = Sim.Cache.set_of l1d addr in
  for r = 0 to Array.length kn.sites - 1 do
    let i = if r < q then i else i - 1 in
    if r <> q && i >= 0 && Sim.Cache.set_of l1d (address_at st kn ~i r) = set then
      Sim.Cpu.stamp_site st.cpu ~site:(site_number kn r) (tick kn ~clock ~i r)
  done;
  st.miss_cycles <- st.miss_cycles + Sim.Cpu.probe_fill st.cpu ~site op ~update ~addr

let[@inline always] probe_moved st kn ~clock ~i ~q ~site op ~update ~addr ~pending =
  if pending then Sim.Cpu.stamp_site st.cpu ~site (tick kn ~clock ~i:(i - 1) q);
  Sim.Cpu.skip_hits st.cpu ~until:(clock + (i * kn.period) + q);
  if not (Sim.Cpu.probe_hit st.cpu ~site op ~update ~addr) then
    probe_missed st kn ~clock ~i ~q ~site op ~update ~addr

(* A factor position's parts, read once per loop entry. Factors are
   invariant unless they are loads, since the statement assigns an
   array element. *)

let[@inline always] factor kn p = Array.unsafe_get kn.factors (Int.min p (Array.length kn.factors - 1))
let is_load = function Load _ -> true | Slot _ | Lit _ -> false
let register st = function Load { site; _ } -> Array.unsafe_get st.addr site | Slot _ | Lit _ -> 0
let chunk st = function Load { site; _ } -> Array.unsafe_get st.chunk site | Slot _ | Lit _ -> Bytes.empty
let stride = function Load { stride; _ } -> stride | Slot _ | Lit _ -> 0
let scalar st = function Slot slot -> Array.unsafe_get st.floats slot | Lit x -> x | Load _ -> 0.0

(* The first iteration after [i] whose access, from [a] at [i] on by
   [d] bytes per iteration, leaves the line of [a], or [trips] when
   none before it does. A column walk leaves at once. Within a line a
   stride of [1 lsl p] bytes takes a shift; any other stride steps
   through the line, which costs less than a division per move. *)
let step_lines ~sh a d ~i ~trips =
  let line = a lsr sh in
  let a = ref (a + d) and i = ref (i + 1) in
  while !i < trips && !a lsr sh = line do
    a := !a + d;
    incr i
  done;
  !i

let[@inline always] next_move ~sh a d ~p ~i ~trips =
  if d = 0 then trips
  else if (a + d) lsr sh <> a lsr sh then i + 1
  else if p < 0 then step_lines ~sh (a + d) d ~i:(i + 1) ~trips
  else
    let first = (a lsr sh) lsl sh in
    Int.min trips (i + 1 + if d > 0 then (first + (1 lsl sh) - 1 - a) lsr p else (a - first) lsr p)

(* The [q]th load's site number, or 0 past the last load, for a factor
   position that holds no load and is never probed; the [q]th site's
   shift *)
let load_site kn q = if q < Array.length kn.sites - 1 then site_number kn q else 0
let shift kn q = if q < Array.length kn.shifts then Array.unsafe_get kn.shifts q else -1

(* The loop, with its registers, chunks, factors and lines in locals.
   It runs from one iteration where sites move to a new line to the
   next: there it probes them, in order, and in between it only
   computes. [n] factors, [k0], [k1] and [k2] telling which positions
   hold loads, and [register] are constants where this is inlined. *)
let[@inline always] run_lines st kn ~trips ~n ~k0 ~k1 ~k2 ~register:in_register cell =
  let sh = Sim.Cache.line_shift st.platform.Platform.l1d and op = kn.op in
  let clock = Sim.Cpu.l1d_clock st.cpu in
  let f0 = factor kn 0 and f1 = factor kn 1 and f2 = factor kn 2 in
  let q1 = Bool.to_int k0 in
  let q2 = q1 + Bool.to_int k1 in
  let qt = q2 + Bool.to_int k2 in
  let z0 = load_site kn 0 and z1 = load_site kn q1 and z2 = load_site kn q2 and zt = kn.target in
  let p0 = shift kn 0 and p1 = shift kn q1 and p2 = shift kn q2 and pt = shift kn qt in
  let s0 = scalar st f0 and s1 = scalar st f1 and s2 = scalar st f2 in
  let c0 = chunk st f0 and c1 = chunk st f1 and c2 = chunk st f2 in
  let d0 = stride f0 and d1 = stride f1 and d2 = stride f2 and dt = kn.stride in
  let a0 = ref (register st f0) and a1 = ref (register st f1) and a2 = ref (register st f2) in
  let ct = Array.unsafe_get st.chunk kn.target in
  let at = ref (Array.unsafe_get st.addr kn.target) in
  (* by site, the iteration it next moves to a new line at, and the one
     it moved to its current line at *)
  let m0 = ref (if k0 then 0 else trips) and m1 = ref (if k1 then 0 else trips) in
  let m2 = ref (if k2 then 0 else trips) and mt = ref 0 in
  let e0 = ref 0 and e1 = ref 0 and e2 = ref 0 and et = ref 0 in
  let update = op <> Ast.Set in
  let target_op = if update then Sim.Cache.Read else Sim.Cache.Write in
  let v = ref (if in_register then read_at st !at ct else 0.0) in
  let i = ref 0 in
  while !i < trips do
    (* the sites that move to a new line at iteration [i0], in order;
       then the iterations up to the next move *)
    let i0 = !i in
    if !m0 = i0 then begin
      probe_moved st kn ~clock ~i:i0 ~q:0 ~site:z0 Sim.Cache.Read ~update:false ~addr:!a0
        ~pending:(i0 - !e0 >= 2);
      e0 := i0;
      m0 := next_move ~sh !a0 d0 ~p:p0 ~i:i0 ~trips
    end;
    if !m1 = i0 then begin
      probe_moved st kn ~clock ~i:i0 ~q:q1 ~site:z1 Sim.Cache.Read ~update:false ~addr:!a1
        ~pending:(i0 - !e1 >= 2);
      e1 := i0;
      m1 := next_move ~sh !a1 d1 ~p:p1 ~i:i0 ~trips
    end;
    if !m2 = i0 then begin
      probe_moved st kn ~clock ~i:i0 ~q:q2 ~site:z2 Sim.Cache.Read ~update:false ~addr:!a2
        ~pending:(i0 - !e2 >= 2);
      e2 := i0;
      m2 := next_move ~sh !a2 d2 ~p:p2 ~i:i0 ~trips
    end;
    if !mt = i0 then begin
      probe_moved st kn ~clock ~i:i0 ~q:qt ~site:zt target_op ~update ~addr:!at
        ~pending:(i0 - !et >= 2);
      et := i0;
      mt := next_move ~sh !at dt ~p:pt ~i:i0 ~trips
    end;
    let next = Int.min (Int.min !m0 !m1) (Int.min !m2 !mt) in
    for _ = i0 to Int.min next trips - 1 do
      let x = if k0 then read_at st !a0 c0 else s0 in
      let x = if n > 1 then x *. if k1 then read_at st !a1 c1 else s1 else x in
      let x = if n > 2 then x *. if k2 then read_at st !a2 c2 else s2 else x in
      if in_register then v := Tdo_linalg.Quant.round_binary32 cell (assign_f op !v x)
      else if op = Ast.Set then write_at st !at ct x
      else write_at st !at ct (assign_f op (read_at st !at ct) x);
      if k0 then a0 := !a0 + d0;
      if k1 then a1 := !a1 + d1;
      if k2 then a2 := !a2 + d2;
      if not in_register then at := !at + dt
    done;
    i := next
  done;
  if in_register then write_at st !at ct !v;
  (* each line that took skipped hits since its site moved there gets
     the stamp of the last, and the clock moves to the loop's end *)
  let last = trips - 1 in
  if k0 && !e0 < last then Sim.Cpu.stamp_site st.cpu ~site:z0 (tick kn ~clock ~i:last 0);
  if k1 && !e1 < last then Sim.Cpu.stamp_site st.cpu ~site:z1 (tick kn ~clock ~i:last q1);
  if k2 && !e2 < last then Sim.Cpu.stamp_site st.cpu ~site:z2 (tick kn ~clock ~i:last q2);
  if !et < last then Sim.Cpu.stamp_site st.cpu ~site:zt (tick kn ~clock ~i:last qt);
  Sim.Cpu.skip_hits st.cpu ~until:(clock + (trips * kn.period))

(* Two loads, or a scalar and then two loads, into a target in a
   register are most kernels' shapes, and get loops of their own; any
   other shape takes its loads' places from [kn.factors]. *)
let[@inline always] run_shapes st kn ~trips ~register cell =
  match kn.shape with
  | Two_loads -> run_lines st kn ~trips ~n:2 ~k0:true ~k1:true ~k2:false ~register cell
  | Scaled_two_loads -> run_lines st kn ~trips ~n:3 ~k0:false ~k1:true ~k2:true ~register cell
  | Other ->
      let n = Array.length kn.factors in
      let k0 = is_load (factor kn 0) and k1 = n > 1 && is_load (factor kn 1) in
      let k2 = n > 2 && is_load (factor kn 2) in
      run_lines st kn ~trips ~n ~k0 ~k1 ~k2 ~register cell

let run_kernel st kn ~trips =
  if in_register st kn ~trips then begin
    if st.binary32 == unused_cell then st.binary32 <- Tdo_linalg.Quant.binary32 ();
    run_shapes st kn ~trips ~register:true st.binary32
  end
  else run_shapes st kn ~trips ~register:false unused_cell

(* The loop as one closure, [per_iteration] where the kernel may not
   run it. [trips] is what the per-iteration loop would count: the body
   does not assign the loop variable, and the variable's last value
   plus the step does not overflow. *)
let kernel_loop kn ~lo ~hi ~iteration (per_iteration : code) : code =
 fun st ->
  let lo = lo st and hi = hi st in
  if lo >= hi then Array.unsafe_set st.ints kn.var lo
  else begin
    let span = hi - lo in
    let trips =
      if span <= 0 then 0 else if kn.step = 1 then span else ((span - 1) / kn.step) + 1
    in
    if
      trips > 0
      && trips - 1 <= kn.max_trips
      && lo + ((trips - 1) * kn.step) <= max_int - kn.step
      && Array.length kn.sites <= (Sim.Cache.config st.platform.Platform.l1d).Sim.Cache.ways
      && kernel_enter st kn ~lo ~trips
    then begin
      run_kernel st kn ~trips;
      Array.unsafe_set st.ints kn.var (lo + (trips * kn.step));
      st.loads <- st.loads + (trips * kn.loads);
      st.stores <- st.stores + trips;
      st.kernel_iterations <- st.kernel_iterations + trips;
      add_pending st iteration trips
    end
    else per_iteration st
  end

(* The value of an integer expression of literals. *)
let rec literal (e : Ast.expr) =
  match e with
  | Ast.Int_lit n -> Some n
  | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul) as op), a, b) -> (
      match (literal a, literal b) with Some x, Some y -> Some (int_op op x y) | _ -> None)
  | Ast.Neg a -> Option.map Int.neg (literal a)
  | Ast.Binop (Ast.Div, _, _) | Ast.Float_lit _ | Ast.Var _ | Ast.Index _ -> None

(* Coefficients stay small enough that no product of two overflows. *)
let max_coefficient = 1 lsl 24

let bounded c = if Int.abs c > max_coefficient then raise Not_a_kernel else c

(* The coefficient of the loop variable (slot [var]) in a subscript;
   [Not_a_kernel] when the subscript is not affine in it. *)
let rec coefficient env ~var (e : Ast.expr) =
  let coef = coefficient env ~var in
  match e with
  | Ast.Int_lit _ -> 0
  | Ast.Var name -> (
      match lookup env name with
      | Bint slot -> if slot = var then 1 else 0
      | Bfloat _ | Barr _ -> raise Not_a_kernel)
  | Ast.Binop (Ast.Add, a, b) -> bounded (coef a + coef b)
  | Ast.Binop (Ast.Sub, a, b) -> bounded (coef a - coef b)
  | Ast.Binop (Ast.Mul, a, b) -> (
      match (coef a, coef b) with
      | 0, 0 -> 0
      | c, 0 -> ( match literal b with Some n -> bounded (c * bounded n) | None -> raise Not_a_kernel)
      | 0, c -> ( match literal a with Some n -> bounded (bounded n * c) | None -> raise Not_a_kernel)
      | _ -> raise Not_a_kernel)
  | Ast.Neg a -> -coef a
  | Ast.Binop (Ast.Div, _, _) | Ast.Float_lit _ | Ast.Index _ -> raise Not_a_kernel

(* [k] when [abs d = 1 lsl k], or -1. *)
let pow2_log d =
  let d = Int.abs d in
  if d = 0 || d land (d - 1) <> 0 then -1
  else
    let rec go k = if 1 lsl k = d then k else go (k + 1) in
    go 0

(* The operands of [x], [x * y] or [x * y * z], nested to the left. *)
let rec operands = function
  | Ast.Binop (Ast.Mul, a, b) -> operands a @ [ b ]
  | e -> [ e ]

(* The kernel of an innermost loop over slot [var] whose body is [body],
   or [Not_a_kernel]. [sites] are the sites the per-iteration compile
   built for the body's assignment, latest first: its target, then its
   loads left to right. *)
let loop_kernel_exn env ~var ~step (body : Ir.stmt list) sites =
  let op, operands =
    match body with
    | [ Ir.Assign { lhs; op; rhs } ] when step > 0 -> (
        match lookup env lhs.Ast.base with
        | Barr _ -> (op, operands rhs)
        | Bint _ | Bfloat _ -> raise Not_a_kernel)
    | _ -> raise Not_a_kernel
  in
  if List.length operands > 3 then raise Not_a_kernel;
  (* [sites] is latest first: the loads right to left, then the target *)
  let sites = Array.of_list sites in
  let n = Array.length sites in
  for k = 0 to ((n - 1) / 2) - 1 do
    let site = sites.(k) in
    sites.(k) <- sites.(n - 2 - k);
    sites.(n - 2 - k) <- site
  done;
  let deltas =
    Array.map
      (fun site ->
        Array.map
          (fun e ->
            let c = coefficient env ~var e in
            if Int.abs c > (1 lsl 40) / step then raise Not_a_kernel;
            c * step)
          site.exprs)
      sites
  in
  let stride j =
    let elems = ref 0 in
    for d = 0 to Array.length deltas.(j) - 1 do
      elems := (!elems * sites.(j).extents.(d)) + deltas.(j).(d)
    done;
    4 * !elems
  in
  let strides = Array.init n stride in
  let shifts = Array.map pow2_log strides in
  let rec factors j = function
    | [] -> []
    | Ast.Index _ :: rest -> Load { site = sites.(j).id; stride = strides.(j) } :: factors (j + 1) rest
    | Ast.Float_lit x :: rest -> Lit x :: factors j rest
    | Ast.Var name :: rest -> (
        match lookup env name with
        | Bfloat slot -> Slot slot :: factors j rest
        | Bint _ | Barr _ -> raise Not_a_kernel)
    | (Ast.Int_lit _ | Ast.Binop _ | Ast.Neg _) :: _ -> raise Not_a_kernel
  in
  let widest = Array.fold_left (Array.fold_left (fun m d -> Int.max m (Int.abs d))) 1 deltas in
  let target = sites.(n - 1) in
  let aliases = ref 0 in
  for j = 0 to n - 2 do
    if sites.(j).arr = target.arr then aliases := !aliases lor (1 lsl j)
  done;
  let factors = Array.of_list (factors 0 operands) in
  {
    var;
    step;
    sites;
    deltas;
    strides;
    shifts;
    target = target.id;
    stride = strides.(n - 1);
    op;
    factors;
    shape =
      (match factors with
      | [| Load _; Load _ |] -> Two_loads
      | [| (Slot _ | Lit _); Load _; Load _ |] -> Scaled_two_loads
      | _ -> Other);
    period = n - 1 + (if op = Ast.Set then 1 else 2);
    aliases = !aliases;
    loads = n - 1 + (if op = Ast.Set then 0 else 1);
    (* clock ticks, at most 5 an iteration, stay far from overflow *)
    max_trips = max_int / widest / 8;
  }

let rec compile_stmt env s k (stmt : Ir.stmt) =
  match stmt with
  | Ir.For { var; lo; hi; step; body = stmts } when not (List.exists reads_counters stmts) ->
      let lo = int_expr env s k "loop bound" lo in
      let hi = int_expr env s k "loop bound" hi in
      let slot = new_int s in
      let iteration = new_count () in
      let body_env = (var, Bint slot) :: env in
      let body = compile_block body_env s (Some iteration) stmts in
      bump iteration alu;
      bump iteration branch;
      let per_iteration st =
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
        if !trips > 0 then add_pending st iteration !trips
      in
      ( env,
        if not s.kernels then per_iteration
        else
          match loop_kernel_exn body_env ~var:slot ~step stmts s.last_sites with
          | kn -> kernel_loop kn ~lo ~hi ~iteration per_iteration
          | exception Not_a_kernel -> per_iteration )
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
      ((name, Barr (slot, dims)) :: env, fun st -> st.bases.(slot) <- alloc_array st dims)
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

let stage_in st (arr : Interp.arr) base =
  let data = arr.Interp.data in
  Sim.Memory.write_f32s st.memory base data ~pos:0 ~len:(Array.length data)

let stage_out st base (arr : Interp.arr) =
  let data = arr.Interp.data in
  Sim.Memory.read_f32s st.memory base data ~pos:0 ~len:(Array.length data)

(* ---------- prepared programs ---------- *)

type prepared = {
  params : (string * bind) list;  (** declaration order *)
  n_ints : int;
  n_floats : int;
  n_arrays : int;
  n_sites : int;
  written : int list;  (** array slots the program may write *)
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

let compile ~kernels (f : Ir.func) : program =
  match
    let s =
      { n_int = 0; n_float = 0; n_arr = 0; n_site = 0; last_sites = []; written = []; kernels }
    in
    let params = List.map (fun (p : Ast.param) -> (p.Ast.pname, bind_param s p)) f.Ir.params in
    let body = compile_block params s None f.Ir.body in
    {
      params;
      n_ints = s.n_int;
      n_floats = s.n_float;
      n_arrays = s.n_arr;
      n_sites = s.n_site;
      written = List.sort_uniq compare s.written;
      body;
    }
  with
  | prepared -> Ok prepared
  | exception Exec_error msg -> Error msg

let prepare f = compile ~kernels:true f
let prepare_reference f = compile ~kernels:false f

(* The argument bound to [name], checked against its declaration. *)
let check_arg args (name, bind) =
  let value =
    match List.assoc name args with v -> v | exception Not_found -> fail "missing argument '%s'" name
  in
  match (bind, value) with
  | Bint _, Interp.Vint _ | Bfloat _, Interp.Vfloat _ -> ()
  | Bint _, Interp.Vfloat _ -> fail "argument '%s' should be an int" name
  | Bfloat _, Interp.Vint _ -> fail "argument '%s' should be a float" name
  | Barr _, (Interp.Vint _ | Interp.Vfloat _) -> fail "argument '%s' should be an array" name
  | (Bint _ | Bfloat _), Interp.Varray _ -> fail "argument '%s' has mismatched dimensions" name
  | Barr (_, dims), Interp.Varray arr ->
      if arr.Interp.dims <> dims then fail "argument '%s' has mismatched dimensions" name

(* Bind one argument [check_arg] accepted: scalars into their slots,
   arrays into simulated memory. [check_arg] rejected every other
   pairing. *)
let bind_arg st args (name, bind) =
  match (bind, List.assoc name args) with
  | Bint slot, Interp.Vint n -> st.ints.(slot) <- n
  | Bfloat slot, Interp.Vfloat v -> st.floats.(slot) <- v
  | Barr (slot, dims), Interp.Varray arr ->
      let base = alloc_array st dims in
      st.bases.(slot) <- base;
      stage_in st arr base
  | (Bint _ | Bfloat _ | Barr _), _ -> assert false

(* Copy the arrays the program may write back into their arguments,
   last parameter first. *)
let rec stage_outs st args written = function
  | [] -> ()
  | (name, bind) :: rest -> (
      stage_outs st args written rest;
      match (bind, List.assoc name args) with
      | Barr (slot, _), Interp.Varray arr when List.mem slot written ->
          stage_out st st.bases.(slot) arr
      | _ -> ())

let exec (program : program) ~platform ~args =
  let p = match program with Ok p -> p | Error msg -> raise (Exec_error msg) in
  List.iter (check_arg args) p.params;
  let st =
    {
      platform;
      cpu = Platform.cpu platform;
      memory = platform.Platform.memory;
      ints = Array.make (max 1 p.n_ints) 0;
      floats = Array.make (max 1 p.n_floats) 0.0;
      bases = Array.make (max 1 p.n_arrays) (-1);
      facc = Float.Array.create 1;
      heap = heap_base;
      api = None;
      dev = Array.make (max 1 p.n_arrays) None;
      pending = new_count ();
      loads = 0;
      stores = 0;
      miss_cycles = 0;
      memory_bytes = (Sim.Memory.config platform.Platform.memory).Sim.Memory.size_bytes;
      roi_open = false;
      addr = Array.make (max 1 p.n_sites) 0;
      chunk = Array.make (max 1 p.n_sites) Bytes.empty;
      kernel_iterations = 0;
      binary32 = unused_cell;
    }
  in
  List.iter (bind_arg st args) p.params;
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
     Option.iter
       (fun api -> Array.iter (Option.iter (fun view -> Api.free api view.Api.buf)) st.dev)
       st.api;
     Printexc.raise_with_backtrace e bt);
  stage_outs st args p.written p.params;
  let roi = Sim.Cpu.roi st.cpu in
  let launches = match st.api with None -> 0 | Some api -> Api.launches api in
  {
    roi_instructions = roi.Sim.Cpu.roi_instructions;
    roi_cycles = roi.Sim.Cpu.roi_cycles;
    roi_time_ps = roi.Sim.Cpu.roi_time_ps;
    used_cim = st.api <> None;
    cim_launches = launches;
    kernel_iterations = st.kernel_iterations;
  }

let run f ~platform ~args = exec (prepare f) ~platform ~args
