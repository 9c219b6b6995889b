(* Every value a library exports has a caller outside its module.

   Usage: exports.exe ROOT ALLOWLIST, where ROOT is a build directory in
   which `dune build @check` wrote every .cmt and .cmti. An export is a
   value declared in the .mli of a unit under ROOT/lib. A caller is an
   identifier in the typed tree of another unit under ROOT/lib, bin,
   bench, examples or test, with module aliases followed; a caller under
   test/ counts only as a test caller. The check fails on an export
   with no outside caller that is not on the allowlist, and on an
   allowlist line whose value is not exported, has an outside caller or
   has no caller at all. An allowlist line is the value's full path, a
   space and the reason it stays. *)

open Typedtree

(* An export is a unit (Tdo_pcm__Cell) and a path in it ([create]). *)
let units = Hashtbl.create 64
let exports = Hashtbl.create 1024 (* export -> location *)
let sig_aliases = Hashtbl.create 64 (* (unit, module) -> path, from [module M = P] in the .mli *)
let outside = Hashtbl.create 1024 (* export -> file of its first outside caller *)
let tested = Hashtbl.create 1024 (* export -> () *)

(* Tdo_pcm__Cell, [create] -> Tdo_pcm.Cell.create *)
let display (u, path) =
  let rec parts i j acc =
    if j + 1 >= String.length u then List.rev (String.sub u i (String.length u - i) :: acc)
    else if u.[j] = '_' && u.[j + 1] = '_' then parts (j + 2) (j + 2) (String.sub u i (j - i) :: acc)
    else parts i (j + 1) acc
  in
  String.concat "." (parts 0 0 [] @ path)

let rec cmt_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then cmt_files p
         else if Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti" then [ p ]
         else [])

(* A path as names, with the local module aliases in [aliased] expanded. *)
let rec names aliased = function
  | Path.Pident id -> (
      match Hashtbl.find_opt aliased (Ident.unique_name id) with
      | Some ns -> ns
      | None -> [ Ident.name id ])
  | Path.Pdot (p, s) -> names aliased p @ [ s ]
  | Path.Papply (f, _) -> names aliased f
  | Path.Pextra_ty (p, _) -> names aliased p

(* [Lib; Module; rest] or [Lib__Module; rest] -> (unit, rest), following
   the module aliases an .mli declares. *)
let rec resolve = function
  | a :: b :: rest when Hashtbl.mem units (a ^ "__" ^ b) -> resolve_in (a ^ "__" ^ b) rest
  | a :: rest when Hashtbl.mem units a -> resolve_in a rest
  | _ -> None

and resolve_in u = function
  | m :: rest when Hashtbl.mem sig_aliases (u, m) -> resolve (Hashtbl.find sig_aliases (u, m) @ rest)
  | rest -> Some (u, rest)

let rec collect_sig u prefix sg =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd -> Hashtbl.replace exports (u, prefix @ [ vd.val_name.txt ]) vd.val_loc
      | Tsig_module { md_name = { txt = Some m; _ }; md_type; _ } -> (
          match (md_type.mty_desc, prefix) with
          | Tmty_alias (p, _), [] -> Hashtbl.replace sig_aliases (u, m) (names (Hashtbl.create 0) p)
          | _ -> collect_mty u (prefix @ [ m ]) md_type)
      | _ -> ())
    sg.sig_items

and collect_mty u prefix mty =
  match mty.mty_desc with
  | Tmty_signature sg -> collect_sig u prefix sg
  | Tmty_functor (_, res) -> collect_mty u prefix res
  | _ -> ()

(* A use of [ns] from unit [self]; [whole] marks every export under it,
   for a module passed to a functor or included. *)
let use ~self ~test ~file ~whole ns =
  match resolve ns with
  | Some (u, path) when u <> self ->
      let mark key =
        if test then Hashtbl.replace tested key ()
        else if not (Hashtbl.mem outside key) then Hashtbl.replace outside key file
      in
      let n = List.length path in
      if whole then
        Hashtbl.iter
          (fun ((u', p) as key) _ -> if u' = u && List.filteri (fun i _ -> i < n) p = path then mark key)
          exports
      else mark (u, path)
  | _ -> ()

let scan_impl ~self ~test ~file str =
  let aliased = Hashtbl.create 16 in
  let rec bound_path me =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Some p
    | Tmod_constraint (me, _, _, _) | Tmod_apply (me, _, _) -> bound_path me
    | _ -> None
  in
  let bind id me =
    match (id, bound_path me) with
    | Some id, Some p -> Hashtbl.replace aliased (Ident.unique_name id) (names aliased p)
    | _ -> ()
  in
  let use_whole p = use ~self ~test ~file ~whole:true (names aliased p) in
  let super = Tast_iterator.default_iterator in
  let it =
    {
      super with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> use ~self ~test ~file ~whole:false (names aliased p)
          | Texp_letmodule (id, _, _, me, _) -> bind id me
          | _ -> ());
          super.expr it e);
      module_binding =
        (fun it mb ->
          bind mb.mb_id mb.mb_expr;
          super.module_binding it mb);
      module_expr =
        (fun it me ->
          (match me.mod_desc with
          | Tmod_apply (_, { mod_desc = Tmod_ident (p, _); _ }, _) -> use_whole p
          | _ -> ());
          super.module_expr it me);
      structure_item =
        (fun it si ->
          (match si.str_desc with
          | Tstr_include { incl_mod = { mod_desc = Tmod_ident (p, _); _ }; _ } -> use_whole p
          | _ -> ());
          super.structure_item it si);
    }
  in
  it.structure it str

let () =
  let root, allow_file =
    match Sys.argv with
    | [| _; root; allow |] -> (root, allow)
    | _ ->
        prerr_endline "usage: exports.exe ROOT ALLOWLIST";
        exit 2
  in
  let files =
    List.concat_map
      (fun top -> List.map (fun f -> (top, Cmt_format.read_cmt f)) (cmt_files (Filename.concat root top)))
      [ "lib"; "bin"; "bench"; "examples"; "test" ]
  in
  List.iter (fun (top, cmt) -> if top = "lib" then Hashtbl.replace units cmt.Cmt_format.cmt_modname ()) files;
  List.iter
    (fun (top, (cmt : Cmt_format.cmt_infos)) ->
      match cmt.cmt_annots with
      | Interface sg when top = "lib" -> collect_sig cmt.cmt_modname [] sg
      | _ -> ())
    files;
  List.iter
    (fun (top, (cmt : Cmt_format.cmt_infos)) ->
      match cmt.cmt_annots with
      | Implementation str ->
          let file = Option.value cmt.cmt_sourcefile ~default:cmt.cmt_modname in
          scan_impl ~self:cmt.cmt_modname ~test:(top = "test") ~file str
      | _ -> ())
    files;
  let failures = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> incr failures; prerr_endline s) fmt in
  let by_name = Hashtbl.create 1024 in
  Hashtbl.iter (fun key _ -> Hashtbl.replace by_name (display key) key) exports;
  let allowed = Hashtbl.create 256 in
  In_channel.with_open_text allow_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iteri (fun i line ->
         let line = String.trim line and where = Printf.sprintf "%s:%d" allow_file (i + 1) in
         if line <> "" && line.[0] <> '#' then
           let name = List.hd (String.split_on_char ' ' line) in
           Hashtbl.replace allowed name ();
           match Hashtbl.find_opt by_name name with
           | _ when name = line -> fail "%s: %s: no reason given" where name
           | None -> fail "%s: %s is not an exported value" where name
           | Some key when Hashtbl.mem outside key ->
               fail "%s: %s is called from %s; delete this line" where name (Hashtbl.find outside key)
           | Some key when not (Hashtbl.mem tested key) -> fail "%s: %s has no caller at all" where name
           | Some _ -> ());
  Hashtbl.fold (fun key loc acc -> (key, loc) :: acc) exports []
  |> List.sort compare
  |> List.iter (fun (key, (loc : Location.t)) ->
         if not (Hashtbl.mem outside key || Hashtbl.mem allowed (display key)) then
           fail "%s:%d: %s %s" loc.loc_start.pos_fname loc.loc_start.pos_lnum (display key)
             (if Hashtbl.mem tested key then "is called only from test/"
              else "has no caller outside its module"));
  if !failures > 0 then begin
    Printf.eprintf "%d export check failure(s); see tools/exports.allow\n" !failures;
    exit 1
  end
