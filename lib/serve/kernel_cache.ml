module Flow = Tdo_cim.Flow
module Ast = Tdo_lang.Ast
module Backend = Tdo_backend.Backend

type parsed = { text : string; ast : Ast.func; digest : string }

type entry = {
  key : string;
  ast : Ast.func;
  compiled : Flow.compiled;
  options : Flow.options;
  compile_s : float;
  tuned : bool;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  compile_s_total : float;
}

(* [sources] are the (class, text) pairs that map to the slot in
   [memo]: the compiling text, once per class that compiles it the
   same way. *)
type slot = {
  entry : entry;
  sources : (Backend.device_class * string) list;
  mutable last_use : int;
}

type t = {
  capacity : int;
  opts : Flow.options;
  tuning : Tdo_tune.Db.t option;
  geometries : (Backend.device_class * (int * int)) list;
  on_evict : (string -> unit) option;
  table : (string, slot) Hashtbl.t;
  memo : (Backend.device_class * string, slot) Hashtbl.t;
      (** (class, source) -> the resident slot it resolves to. The key
          is a pure function of the source, the class and the cache's
          fixed options, tuning database and geometries, so a repeated
          source skips the parse, the tuning lookup and the digest. *)
  mutable tick : int;  (** LRU clock: bumped on every lookup *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable compile_s_total : float;
}

let create ?(capacity = 64) ?(options = Flow.o3_loop_tactics) ?tuning ?(geometries = [])
    ?on_evict () =
  {
    capacity = max 1 capacity;
    opts = options;
    tuning;
    geometries;
    on_evict;
    table = Hashtbl.create 32;
    memo = Hashtbl.create 32;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    compile_s_total = 0.0;
  }

let options t = t.opts

let parse text =
  let ast = Tdo_lang.Parser.parse_func text in
  Tdo_lang.Typecheck.check_func ast;
  { text; ast; digest = Ast.structural_digest ast }

(* The AST digest is the key space the tuning database shares; the
   cache folds the effective options in on top, so two compiles of the
   same program under different configurations occupy distinct slots
   and two classes that resolve to the same configuration share one. *)
let key_of ~(options : Flow.options) digest =
  Digest.to_hex
    (Digest.string
       (digest ^ Marshal.to_string (options.Flow.enable_loop_tactics, options.Flow.tactics) []))

let structural_key ~options ast = key_of ~options (Ast.structural_digest ast)

(* The options this kernel actually compiles under for [cls]: the
   tuning database's per-(kernel, class) configuration (geometry
   clamped to the class's crossbar shape) when one exists, the
   cache-wide default otherwise. [Db.config_for] refuses cross-class
   entries, so a configuration measured on the analog crossbar is never
   silently replayed on a digital tile. *)
let resolve t ~cls digest =
  match t.tuning with
  | None -> (t.opts, false)
  | Some db -> (
      let device = List.assoc_opt cls t.geometries in
      match Tdo_tune.Db.config_for ?device ~cls db digest with
      | Some tactics when tactics <> t.opts.Flow.tactics ->
          ({ t.opts with Flow.tactics }, true)
      | Some _ | None -> (t.opts, false))

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun key slot ->
      match !victim with
      | Some (_, age) when slot.last_use >= age -> ()
      | _ -> victim := Some (key, slot.last_use))
    t.table;
  match !victim with
  | Some (key, _) ->
      List.iter (Hashtbl.remove t.memo) (Hashtbl.find t.table key).sources;
      Hashtbl.remove t.table key;
      t.evictions <- t.evictions + 1;
      (* residency layered on this entry is now unbacked: the scheduler
         hooks here to drop any device's matching pinned-weight claim *)
      (match t.on_evict with Some f -> f key | None -> ())
  | None -> ()

let hit t slot =
  t.tick <- t.tick + 1;
  t.hits <- t.hits + 1;
  slot.last_use <- t.tick;
  slot.entry

(* The lookup behind a memo miss: resolve, key, and compile on a miss.
   A miss remembers [p.text] for every fleet class whose effective
   options match, so each of those classes' first lookup is a memo hit;
   a structural hit through another text remembers nothing. *)
let lookup t ~cls p =
  let options, tuned = resolve t ~cls p.digest in
  let key = key_of ~options p.digest in
  match Hashtbl.find_opt t.table key with
  | Some slot -> hit t slot
  | None ->
      t.tick <- t.tick + 1;
      t.misses <- t.misses + 1;
      let t0 = Unix.gettimeofday () in
      let compiled = Flow.compile_checked ~options p.ast in
      let dt = Unix.gettimeofday () -. t0 in
      t.compile_s_total <- t.compile_s_total +. dt;
      let entry = { key; ast = p.ast; compiled; options; compile_s = dt; tuned } in
      if Hashtbl.length t.table >= t.capacity then evict_lru t;
      let sharing =
        List.filter_map
          (fun (c, _) ->
            if c <> cls && fst (resolve t ~cls:c p.digest) = options then Some (c, p.text)
            else None)
          t.geometries
      in
      let slot = { entry; sources = (cls, p.text) :: sharing; last_use = t.tick } in
      Hashtbl.replace t.table key slot;
      List.iter (fun source -> Hashtbl.replace t.memo source slot) slot.sources;
      entry

let find t ?(cls = Backend.Pcm_crossbar) p =
  match Hashtbl.find t.memo (cls, p.text) with
  | slot -> hit t slot
  | exception Not_found -> lookup t ~cls p

let find_or_compile t ?(cls = Backend.Pcm_crossbar) source =
  match Hashtbl.find t.memo (cls, source) with
  | slot -> hit t slot
  | exception Not_found -> lookup t ~cls (parse source)

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    entries = Hashtbl.length t.table;
    compile_s_total = t.compile_s_total;
  }

let memoised t = Hashtbl.length t.memo
