open Ast

exception Runtime_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

type arr = { dims : int list; data : float array }
type value = Vint of int | Vfloat of float | Varray of arr

let[@inline always] f32 v = Int32.float_of_bits (Int32.bits_of_float v)

let make_array ~dims =
  if dims = [] || List.exists (fun d -> d <= 0) dims then
    fail "make_array: invalid dimensions";
  { dims; data = Array.make (List.fold_left ( * ) 1 dims) 0.0 }

let flat_index arr indices =
  if List.length indices <> List.length arr.dims then fail "rank mismatch";
  List.fold_left2
    (fun acc idx dim ->
      if idx < 0 || idx >= dim then fail "index %d out of bound %d" idx dim;
      (acc * dim) + idx)
    0 indices arr.dims

let arr_set arr indices v = arr.data.(flat_index arr indices) <- f32 v

let arr_of_mat m =
  let module Mat = Tdo_linalg.Mat in
  let arr = make_array ~dims:[ Mat.rows m; Mat.cols m ] in
  Mat.iteri ~f:(fun i j v -> arr_set arr [ i; j ] v) m;
  arr

let mat_of_arr arr =
  let module Mat = Tdo_linalg.Mat in
  match arr.dims with
  | [ rows; cols ] -> Mat.of_data ~rows ~cols (Array.copy arr.data)
  | _ -> fail "mat_of_arr: not a 2-D array"

(* ---------- resolved (slot-table) program ----------

   [run] resolves every identifier to a typed slot index in one binding
   pass, then executes against flat unboxed arrays — no [List.assoc]
   lookups, boxed values or per-access index lists at run time. The
   interpreter is the golden model under qcheck equivalence tests, so
   it follows the same slot discipline as [Tdo_ir.Exec]. *)

type rexpr =
  | Ci of int
  | Cf of float
  | Vi of int  (** int scalar slot *)
  | Vf of int  (** float scalar slot *)
  | Load of { arr : int; dims : int array; idxs : rexpr array }
  | Ibin of binop * rexpr * rexpr
  | Fbin of binop * rexpr * rexpr
  | Ineg of rexpr
  | Fneg of rexpr

let is_int = function
  | Ci _ | Vi _ | Ibin _ | Ineg _ -> true
  | Cf _ | Vf _ | Load _ | Fbin _ | Fneg _ -> false

type rstmt =
  | Rfor of { slot : int; lo : rexpr; hi : rexpr; step : int; body : rstmt array }
  | Rstore of { arr : int; dims : int array; idxs : rexpr array; op : assign_op; rhs : rexpr }
  | Rset_f of { slot : int; op : assign_op; rhs : rexpr }
  | Rset_i of { slot : int; op : assign_op; rhs : rexpr }
  | Rdecl_i of { slot : int; init : rexpr option }
  | Rdecl_f of { slot : int; init : rexpr option }
  | Rdecl_arr of { slot : int; adims : int list }
  | Rblock of rstmt array

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

let rec compile_expr env c = function
  | Int_lit n -> Ci n
  | Float_lit f -> Cf f
  | Var name -> (
      match lookup env name with
      | Bint s -> Vi s
      | Bfloat s -> Vf s
      | Barr _ -> fail "array '%s' used as a scalar" name)
  | Index (name, indices) -> (
      match lookup env name with
      | Barr (slot, dims) ->
          Load { arr = slot; dims = compile_indices env c name dims indices; idxs = idx_array env c indices }
      | Bint _ | Bfloat _ -> fail "scalar '%s' indexed" name)
  | Binop (op, a, b) ->
      let ra = compile_expr env c a in
      let rb = compile_expr env c b in
      if is_int ra && is_int rb then Ibin (op, ra, rb) else Fbin (op, ra, rb)
  | Neg e ->
      let r = compile_expr env c e in
      if is_int r then Ineg r else Fneg r

and compile_indices _env _c _name dims indices =
  if List.length indices <> List.length dims then fail "rank mismatch";
  Array.of_list dims

and idx_array env c indices =
  Array.of_list
    (List.map
       (fun e ->
         let r = compile_expr env c e in
         if not (is_int r) then fail "expected an integer expression";
         r)
       indices)

let compile_int_expr env c e =
  let r = compile_expr env c e in
  if not (is_int r) then fail "expected an integer expression";
  r

let rec compile_body env c = function
  | [] -> []
  | Decl_scalar { name; typ; init } :: rest -> (
      match typ with
      | Tint ->
          let init = Option.map (compile_int_expr env c) init in
          let slot = new_int c in
          Rdecl_i { slot; init } :: compile_body ((name, Bint slot) :: env) c rest
      | Tfloat ->
          let init = Option.map (compile_expr env c) init in
          let slot = new_float c in
          Rdecl_f { slot; init } :: compile_body ((name, Bfloat slot) :: env) c rest
      | Tvoid -> fail "void declaration")
  | Decl_array { name; dims } :: rest ->
      if dims = [] || List.exists (fun d -> d <= 0) dims then
        fail "make_array: invalid dimensions";
      let slot = new_arr c in
      Rdecl_arr { slot; adims = dims }
      :: compile_body ((name, Barr (slot, dims)) :: env) c rest
  | stmt :: rest -> compile_stmt env c stmt :: compile_body env c rest

and compile_stmt env c = function
  | For { var; lo; hi; step; body } ->
      let lo = compile_int_expr env c lo in
      let hi = compile_int_expr env c hi in
      let slot = new_int c in
      let body = compile_body ((var, Bint slot) :: env) c body in
      Rfor { slot; lo; hi; step; body = Array.of_list body }
  | Assign { lhs; op; rhs } -> (
      match (lookup env lhs.base, lhs.indices) with
      | Barr (slot, dims), indices ->
          if List.length indices <> List.length dims then fail "rank mismatch";
          Rstore
            {
              arr = slot;
              dims = Array.of_list dims;
              idxs = idx_array env c indices;
              op;
              rhs = compile_expr env c rhs;
            }
      | Bfloat slot, [] -> Rset_f { slot; op; rhs = compile_expr env c rhs }
      | Bint slot, [] ->
          let r = compile_expr env c rhs in
          if not (is_int r) then fail "integer '%s' assigned a non-integer" lhs.base;
          Rset_i { slot; op; rhs = r }
      | (Bint _ | Bfloat _), _ :: _ -> fail "scalar '%s' indexed" lhs.base)
  | Decl_scalar _ | Decl_array _ ->
      (* handled by compile_body so the binding covers the rest of the body *)
      assert false
  | Block body -> Rblock (Array.of_list (compile_body env c body))

(* ---------- execution ---------- *)

type state = {
  ints : int array;
  floats : float array;
  arrays : arr array;
  facc : floatarray;
      (** single-slot accumulator [eval_f] leaves its result in, so the
          recursive evaluator never boxes a returned float (same
          discipline as [Tdo_ir.Exec]) *)
}

let dummy_arr = { dims = []; data = [||] }

let[@inline always] getf st = Float.Array.unsafe_get st.facc 0
let[@inline always] setf st v = Float.Array.unsafe_set st.facc 0 v

let rec eval_i st = function
  | Ci n -> n
  | Vi s -> Array.unsafe_get st.ints s
  | Ibin (op, a, b) -> (
      let x = eval_i st a in
      let y = eval_i st b in
      match op with
      | Add -> x + y
      | Sub -> x - y
      | Mul -> x * y
      | Div ->
          if y = 0 then fail "integer division by zero";
          x / y)
  | Ineg e -> -eval_i st e
  | Cf _ | Vf _ | Load _ | Fbin _ | Fneg _ -> assert false

and eval_f st e =
  match e with
  | Cf f -> setf st f
  | Vf s -> setf st (Array.unsafe_get st.floats s)
  | Load { arr; dims; idxs } ->
      setf st (Array.unsafe_get (Array.unsafe_get st.arrays arr).data (flat_offset st dims idxs))
  | Fbin (op, a, b) ->
      eval_f st a;
      let x = getf st in
      eval_f st b;
      let y = getf st in
      setf st (match op with Add -> x +. y | Sub -> x -. y | Mul -> x *. y | Div -> x /. y)
  | Fneg e ->
      eval_f st e;
      setf st (-.getf st)
  | Ci n -> setf st (float_of_int n)
  | Vi s -> setf st (float_of_int (Array.unsafe_get st.ints s))
  | (Ibin _ | Ineg _) as e -> setf st (float_of_int (eval_i st e))

and flat_offset st (dims : int array) (idxs : rexpr array) =
  let flat = ref 0 in
  for i = 0 to Array.length dims - 1 do
    let idx = eval_i st (Array.unsafe_get idxs i) in
    let dim = Array.unsafe_get dims i in
    if idx < 0 || idx >= dim then fail "index %d out of bound %d" idx dim;
    flat := (!flat * dim) + idx
  done;
  !flat

let[@inline always] apply_op op old rhs =
  match op with
  | Set -> rhs
  | Add_assign -> old +. rhs
  | Sub_assign -> old -. rhs
  | Mul_assign -> old *. rhs

let rec exec_stmt st = function
  | Rfor { slot; lo; hi; step; body } ->
      let lo = eval_i st lo in
      let hi = eval_i st hi in
      let ints = st.ints in
      ints.(slot) <- lo;
      while ints.(slot) < hi do
        exec_body st body;
        ints.(slot) <- ints.(slot) + step
      done
  | Rstore { arr; dims; idxs; op; rhs } ->
      let off = flat_offset st dims idxs in
      eval_f st rhs;
      let rhs = getf st in
      let data = (Array.unsafe_get st.arrays arr).data in
      let old = Array.unsafe_get data off in
      Array.unsafe_set data off (f32 (apply_op op old rhs))
  | Rset_f { slot; op; rhs } ->
      eval_f st rhs;
      let rhs = getf st in
      st.floats.(slot) <- apply_op op st.floats.(slot) rhs
  | Rset_i { slot; op; rhs } -> (
      let rhs = eval_i st rhs in
      match op with
      | Set -> st.ints.(slot) <- rhs
      | Add_assign -> st.ints.(slot) <- st.ints.(slot) + rhs
      | Sub_assign -> st.ints.(slot) <- st.ints.(slot) - rhs
      | Mul_assign -> st.ints.(slot) <- st.ints.(slot) * rhs)
  | Rdecl_i { slot; init } ->
      st.ints.(slot) <- (match init with Some e -> eval_i st e | None -> 0)
  | Rdecl_f { slot; init } ->
      st.floats.(slot) <-
        (match init with
        | Some e ->
            eval_f st e;
            getf st
        | None -> 0.0)
  | Rdecl_arr { slot; adims } -> st.arrays.(slot) <- make_array ~dims:adims
  | Rblock body -> exec_body st body

and exec_body st (body : rstmt array) =
  for i = 0 to Array.length body - 1 do
    exec_stmt st (Array.unsafe_get body i)
  done

let run f ~args =
  let c = { n_int = 0; n_float = 0; n_arr = 0 } in
  let bind_param p =
    match List.assoc_opt p.pname args with
    | None -> fail "missing argument '%s'" p.pname
    | Some value -> (
        match (p.dims, value) with
        | [], Vint n ->
            if p.ptyp <> Tint then fail "argument '%s' should be %s" p.pname "int";
            ((p.pname, Bint (new_int c)), `Int n)
        | [], Vfloat v ->
            if p.ptyp <> Tfloat then fail "argument '%s' should be float" p.pname;
            ((p.pname, Bfloat (new_float c)), `Float v)
        | [], Varray _ -> fail "argument '%s' is a scalar" p.pname
        | dims, Varray arr ->
            if arr.dims <> dims then fail "argument '%s' has mismatched dimensions" p.pname;
            ((p.pname, Barr (new_arr c, dims)), `Array arr)
        | _ :: _, (Vint _ | Vfloat _) -> fail "argument '%s' is an array" p.pname)
  in
  let bound = List.map bind_param f.params in
  let env = List.map fst bound in
  let program = compile_body env c f.body in
  let st =
    {
      ints = Array.make (max 1 c.n_int) 0;
      floats = Array.make (max 1 c.n_float) 0.0;
      arrays = Array.make (max 1 c.n_arr) dummy_arr;
      facc = Float.Array.create 1;
    }
  in
  List.iter
    (fun ((_, bind), value) ->
      match (bind, value) with
      | Bint slot, `Int n -> st.ints.(slot) <- n
      | Bfloat slot, `Float v -> st.floats.(slot) <- v
      | Barr (slot, _), `Array arr -> st.arrays.(slot) <- arr
      | _ -> assert false)
    bound;
  exec_body st (Array.of_list program)
