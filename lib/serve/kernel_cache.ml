module Flow = Tdo_cim.Flow
module Ast = Tdo_lang.Ast
module Backend = Tdo_backend.Backend

type entry = {
  key : string;
  cls : Backend.device_class;
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

(* [source] is the (class, source text) that compiled the slot, the
   slot's one entry in [memo]. *)
type slot = { entry : entry; source : Backend.device_class * string; mutable last_use : int }

type t = {
  capacity : int;
  opts : Flow.options;
  tuning : Tdo_tune.Db.t option;
  geometries : (Backend.device_class * (int * int)) list;
  on_evict : (string -> unit) option;
  table : (string, slot) Hashtbl.t;
  memo : (Backend.device_class * string, slot) Hashtbl.t;
      (** (class, source) -> the resident slot it compiled. The key is
          a pure function of the source, the class and the cache's
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

(* The AST digest is the key space the tuning database shares; the
   cache folds the effective options and the device class in on top, so
   two compiles of the same program under different configurations — or
   for different classes, whose tuned geometries differ — occupy
   distinct slots. *)
let structural_key ?(cls = Backend.Pcm_crossbar) ~(options : Flow.options) (ast : Ast.func)
    =
  let repr =
    Ast.structural_digest ast
    ^ Marshal.to_string (options.Flow.enable_loop_tactics, options.Flow.tactics) []
    ^ Backend.class_name cls
  in
  Digest.to_hex (Digest.string repr)

(* The options this kernel actually compiles under for [cls]: the
   tuning database's per-(kernel, class) configuration (geometry
   clamped to the class's crossbar shape) when one exists, the
   cache-wide default otherwise. [Db.config_for] refuses cross-class
   entries, so a configuration measured on the analog crossbar is never
   silently replayed on a digital tile. *)
let resolve t ~cls ast =
  match t.tuning with
  | None -> (t.opts, false)
  | Some db -> (
      let device = List.assoc_opt cls t.geometries in
      match Tdo_tune.Db.config_for ?device ~cls db ast with
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
      Hashtbl.remove t.memo (Hashtbl.find t.table key).source;
      Hashtbl.remove t.table key;
      t.evictions <- t.evictions + 1;
      (* residency layered on this entry is now unbacked: the scheduler
         hooks here to drop any device's matching pinned-weight claim *)
      (match t.on_evict with Some f -> f key | None -> ())
  | None -> ()

let hit t slot =
  t.hits <- t.hits + 1;
  slot.last_use <- t.tick;
  slot.entry

let find_or_compile t ?(cls = Backend.Pcm_crossbar) source =
  match Hashtbl.find t.memo (cls, source) with
  | slot ->
      t.tick <- t.tick + 1;
      hit t slot
  | exception Not_found -> (
      let ast = Tdo_lang.Parser.parse_func source in
      let options, tuned = resolve t ~cls ast in
      let key = structural_key ~cls ~options ast in
      t.tick <- t.tick + 1;
      match Hashtbl.find_opt t.table key with
      | Some slot -> hit t slot
      | None ->
          t.misses <- t.misses + 1;
          Tdo_lang.Typecheck.check_func ast;
          let t0 = Unix.gettimeofday () in
          let compiled = Flow.compile_checked ~options source in
          let dt = Unix.gettimeofday () -. t0 in
          t.compile_s_total <- t.compile_s_total +. dt;
          let entry = { key; cls; ast; compiled; options; compile_s = dt; tuned } in
          if Hashtbl.length t.table >= t.capacity then evict_lru t;
          let slot = { entry; source = (cls, source); last_use = t.tick } in
          Hashtbl.replace t.table key slot;
          Hashtbl.replace t.memo slot.source slot;
          entry)

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    entries = Hashtbl.length t.table;
    compile_s_total = t.compile_s_total;
  }

let memoised t = Hashtbl.length t.memo
