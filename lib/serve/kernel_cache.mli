(** Compiled-kernel cache of the serving layer.

    The offload compiler ({!Tdo_cim.Flow}) is deterministic, so two
    requests carrying the same mini-C program under the same tactics
    configuration compile to the same IR — the cache makes the second
    request free. Entries are keyed by a {e structural} hash: the
    source is parsed and the AST digested together with the
    {e effective} offload options, so whitespace, comments and
    formatting differences hit the same entry while any semantic change
    (a bound, a loop body, a config knob) misses.

    The effective options already include any class-specific tuned
    configuration, and that is the class-safety property: two device
    classes share an entry exactly when they would compile identical
    programs, and a configuration tuned for one class never serves
    another, because a different configuration is a different key.
    Without a tuning database every class shares one entry per program.

    The cache is an LRU bounded by [capacity] entries. It is {b not}
    thread-safe: the scheduler performs all lookups on the dispatcher
    domain before fanning execution out to workers, which only read the
    immutable compiled IR. *)

module Flow = Tdo_cim.Flow
module Ast = Tdo_lang.Ast
module Backend = Tdo_backend.Backend

type parsed = {
  text : string;  (** the source text *)
  ast : Ast.func;  (** parsed and type-checked *)
  digest : string;  (** {!Ast.structural_digest} of [ast] *)
}
(** The class-independent front half of a compile. *)

type entry = {
  key : string;  (** digest of (structural digest, effective options), hex *)
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
    are refused by {!Tdo_tune.Db.config_for}. [geometries] lists the
    fleet's classes with the crossbar shape [(rows, cols)] of their
    devices, used to clamp tuned geometries; entries compiled from the
    database carry [tuned = true]. [on_evict] is called with the key of
    every LRU-evicted entry — the invalidation hook graph-scope weight
    residency hangs off (a pinned claim must not outlive the compiled
    entry that backs it). *)

val options : t -> Flow.options

val parse : string -> parsed
(** Parse, type-check and digest a source text. Front-end errors
    (lexical, syntax, type) propagate to the caller. *)

val structural_key : options:Flow.options -> Ast.func -> string
(** Digest of the AST structure plus the tactics configuration — the
    cache key, exposed for tests and cache-aware clients. *)

val find : t -> ?cls:Backend.device_class -> parsed -> entry
(** The entry [cls] (default [Pcm_crossbar]) runs for this program:
    resolve the class's effective options, look (digest, options) up,
    and compile from the parsed AST on a miss. Failed compiles are not
    cached.

    A miss remembers the program's text for [cls] and for every class
    in [geometries] whose effective options are equal, until the entry
    is evicted; looking that (class, text) pair up again skips the
    tuning lookup and the key digest. Hits through other texts of the
    same structure are not remembered. Hits, misses, evictions and the
    LRU order are the same either way. *)

val find_or_compile : t -> ?cls:Backend.device_class -> string -> entry
(** [find] on [source]: a remembered (class, source) pair is a hit
    without parsing; anything else is [find t ~cls (parse source)], so
    front-end errors propagate to the caller. *)

val stats : t -> stats

val memoised : t -> int
(** (Class, source) pairs remembered: the compiling text of each
    resident entry, once per class that resolves to it, so never more
    than [entries] times the number of classes. *)
