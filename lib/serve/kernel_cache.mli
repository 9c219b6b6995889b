(** Compiled-kernel cache of the serving layer.

    The offload compiler ({!Tdo_cim.Flow}) is deterministic, so two
    requests carrying the same mini-C program under the same tactics
    configuration compile to the same IR — the cache makes the second
    request free. Entries are keyed by a {e structural} hash: the
    source is parsed and the AST digested together with the offload
    configuration {e and the device class the entry was compiled for},
    so whitespace, comments and formatting differences hit the same
    entry while any semantic change (a bound, a loop body, a config
    knob, a different target class) misses. The class lives in the key
    because tuned configurations are class-specific: replaying a
    crossbar geometry tuned for the analog array on a digital tile
    would change the quantisation tiling and hence the results.

    The cache is an LRU bounded by [capacity] entries. It is {b not}
    thread-safe: the scheduler performs all lookups on the dispatcher
    domain before fanning execution out to workers, which only read the
    immutable compiled IR. *)

module Flow = Tdo_cim.Flow
module Ast = Tdo_lang.Ast
module Backend = Tdo_backend.Backend

type entry = {
  key : string;  (** structural digest, hex *)
  cls : Backend.device_class;  (** device class this entry was compiled for *)
  ast : Ast.func;  (** parsed and type-checked — ready for the CPU-fallback interpreter *)
  compiled : Flow.compiled;
  options : Flow.options;  (** effective options the entry compiled under *)
  compile_s : float;  (** wall-clock spent compiling this entry *)
  tuned : bool;  (** compiled under a tuning-database configuration *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** currently resident *)
  compile_s_total : float;  (** wall-clock spent on all misses *)
}

type t

val create :
  ?capacity:int ->
  ?options:Flow.options ->
  ?tuning:Tdo_tune.Db.t ->
  ?geometries:(Backend.device_class * (int * int)) list ->
  ?on_evict:(string -> unit) ->
  unit ->
  t
(** LRU cache holding at most [capacity] (default 64, clamped to >= 1)
    compiled programs, compiled under [options] (default
    {!Flow.o3_loop_tactics}). A [tuning] database overrides the
    tactics configuration per (kernel, class) — looked up by the same
    structural digest the database was built with; cross-class entries
    are refused by {!Tdo_tune.Db.config_for}. [geometries] gives the
    crossbar shape [(rows, cols)] of each class's devices in the fleet,
    used to clamp tuned geometries; entries compiled from the database
    carry [tuned = true]. [on_evict] is called with the key of every
    LRU-evicted entry — the invalidation hook graph-scope weight
    residency hangs off (a pinned claim must not outlive the compiled
    entry that backs it). *)

val options : t -> Flow.options

val structural_key :
  ?cls:Backend.device_class -> options:Flow.options -> Ast.func -> string
(** Digest of the AST structure plus the tactics configuration plus the
    device class (default [Pcm_crossbar]) — the cache key, exposed for
    tests and cache-aware clients. *)

val find_or_compile : t -> ?cls:Backend.device_class -> string -> entry
(** Parse [source], look its structural key up for [cls] (default
    [Pcm_crossbar]), and compile on a miss. Front-end errors (parse,
    type-check) propagate to the caller; failed compiles are not
    cached. An entry compiled for one class is never returned for
    another — the class is part of the key.

    The exact (class, source) pair that compiled a resident entry is
    remembered until the entry is evicted, so looking it up again
    skips the parse and the digest. Other texts with the same
    structure still hit, through the parse. Hits, misses, evictions and
    the LRU order are the same either way. *)

val stats : t -> stats

val memoised : t -> int
(** Source texts whose key is remembered: the one that compiled each
    resident entry, so never more than [entries]. *)
