open Ast

exception Type_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

type binding = Scalar of typ | Array of int list

(* environments are [(string * binding) list], innermost scope first *)

let lookup env name =
  match List.assoc_opt name env with
  | Some b -> b
  | None -> fail "undeclared identifier '%s'" name

let declare env name binding =
  (* shadowing across scopes is resolved by order; same-scope
     redeclaration is caught by the caller keeping scope boundaries *)
  (name, binding) :: env

let rec type_of_expr env = function
  | Int_lit _ -> Tint
  | Float_lit _ -> Tfloat
  | Var name -> (
      match lookup env name with
      | Scalar t -> t
      | Array _ -> fail "array '%s' used without indices" name)
  | Index (name, indices) -> (
      match lookup env name with
      | Scalar _ -> fail "scalar '%s' used with indices" name
      | Array dims ->
          if List.length indices <> List.length dims then
            fail "array '%s' has rank %d but is indexed with %d subscripts" name
              (List.length dims) (List.length indices);
          List.iter
            (fun e ->
              match type_of_expr env e with
              | Tint -> ()
              | Tfloat | Tvoid -> fail "subscript of '%s' is not an integer expression" name)
            indices;
          Tfloat)
  | Binop (op, a, b) -> (
      let ta = type_of_expr env a and tb = type_of_expr env b in
      match (ta, tb) with
      | Tvoid, _ | _, Tvoid -> fail "void value in expression"
      | Tint, Tint -> Tint
      | Tfloat, Tfloat | Tint, Tfloat | Tfloat, Tint ->
          (* C-style promotion *)
          ignore op;
          Tfloat)
  | Neg e -> (
      match type_of_expr env e with
      | Tvoid -> fail "void value in expression"
      | t -> t)

let require_int env what e =
  match type_of_expr env e with
  | Tint -> ()
  | Tfloat | Tvoid -> fail "%s must be an integer expression" what

let rec check_stmt env = function
  | For { var; lo; hi; step; body } ->
      require_int env "loop lower bound" lo;
      require_int env "loop upper bound" hi;
      if step <= 0 then fail "loop step must be positive";
      let env = declare env var (Scalar Tint) in
      check_body env body
  | Assign { lhs; op; rhs } -> (
      ignore op;
      let rhs_t = type_of_expr env rhs in
      match (lookup env lhs.base, lhs.indices) with
      | Array dims, indices ->
          if indices = [] then fail "array '%s' assigned without indices" lhs.base;
          if List.length indices <> List.length dims then
            fail "array '%s' has rank %d but is indexed with %d subscripts" lhs.base
              (List.length dims) (List.length indices);
          List.iter (require_int env "array subscript") indices;
          if rhs_t = Tvoid then fail "void value assigned to '%s'" lhs.base
      | Scalar Tint, [] ->
          if rhs_t <> Tint then fail "integer '%s' assigned a non-integer value" lhs.base
      | Scalar Tfloat, [] ->
          if rhs_t = Tvoid then fail "void value assigned to '%s'" lhs.base
      | Scalar Tvoid, [] -> fail "cannot assign to void '%s'" lhs.base
      | Scalar _, _ :: _ -> fail "scalar '%s' used with indices" lhs.base)
  | Decl_scalar { name; typ; init } ->
      if typ = Tvoid then fail "cannot declare void variable '%s'" name;
      Option.iter
        (fun e ->
          let t = type_of_expr env e in
          match (typ, t) with
          | Tint, Tint -> ()
          | Tfloat, (Tint | Tfloat) -> ()
          | Tint, Tfloat -> fail "integer '%s' initialised with a float" name
          | _, Tvoid | Tvoid, _ -> fail "void in declaration of '%s'" name)
        init
  | Decl_array { name; dims } ->
      if dims = [] then fail "array '%s' needs at least one dimension" name;
      List.iter (fun d -> if d <= 0 then fail "array '%s' has a non-positive dimension" name) dims
  | Block body -> check_body env body

(* Sequential declarations extend the environment for the following
   statements of the same body. *)
and check_body env = function
  | [] -> ()
  | (Decl_scalar { name; typ; _ } as stmt) :: rest ->
      check_stmt env stmt;
      check_body (declare env name (Scalar typ)) rest
  | (Decl_array { name; dims } as stmt) :: rest ->
      check_stmt env stmt;
      check_body (declare env name (Array dims)) rest
  | stmt :: rest ->
      check_stmt env stmt;
      check_body env rest

let check_func f =
  let env =
    List.fold_left
      (fun env p ->
        match p.dims with
        | [] -> declare env p.pname (Scalar p.ptyp)
        | dims -> declare env p.pname (Array dims))
      [] f.params
  in
  check_body env f.body
