type config = { name : string; bytes_per_ps : float; arbitration_ps : Time_base.ps }

let default_config =
  { name = "sysbus"; bytes_per_ps = 4.8e9 /. 1e12; arbitration_ps = 10 * Time_base.ps_per_ns }

(* Per-master byte counters in a short list searched with
   [String.equal]: a platform has two masters, "cpu" and "cim-dma", and
   [transfer] runs on every L2 fill and write-back, where hashing the
   name cost more than the rest of the transfer. A master's first
   transfer adds one 4-word cell. *)
type masters = Nil | Master of { name : string; mutable moved : int; next : masters }

(* [last_bytes] and [last_ps] are the size and latency of the last
   transfer whose latency was computed: every L2 fill and write-back
   moves one 64-byte line, so that size is priced once, not with a
   float division and a rounding per line. The latency is a function of
   the size alone, so the memo is exact. *)
type t = {
  config : config;
  mutable masters : masters;
  mutable total_bytes : int;
  mutable transfers : int;
  mutable last_bytes : int;  (** -1 until the first transfer *)
  mutable last_ps : Time_base.ps;
}

let create ?(config = default_config) () =
  if config.bytes_per_ps <= 0.0 then invalid_arg "Bus.create: bandwidth must be positive";
  { config; masters = Nil; total_bytes = 0; transfers = 0; last_bytes = -1; last_ps = 0 }

let config t = t.config

(* Adds [bytes] to [master]'s counter, or returns false if it has none
   yet. Top-level and closed over nothing, so it does not allocate. *)
let rec add_to masters master bytes =
  match masters with
  | Nil -> false
  | Master m ->
      if String.equal m.name master then begin
        m.moved <- m.moved + bytes;
        true
      end
      else add_to m.next master bytes

let transfer t ~master ~bytes =
  if bytes < 0 then invalid_arg "Bus.transfer: negative size";
  if not (add_to t.masters master bytes) then
    t.masters <- Master { name = master; moved = bytes; next = t.masters };
  t.total_bytes <- t.total_bytes + bytes;
  t.transfers <- t.transfers + 1;
  if bytes <> t.last_bytes then begin
    t.last_bytes <- bytes;
    t.last_ps <-
      t.config.arbitration_ps
      + int_of_float (Float.round (float_of_int bytes /. t.config.bytes_per_ps))
  end;
  t.last_ps

let traffic t =
  let rec collect acc = function
    | Nil -> acc
    | Master m -> collect ((m.name, m.moved) :: acc) m.next
  in
  List.sort (fun (a, _) (b, _) -> compare a b) (collect [] t.masters)

let total_bytes t = t.total_bytes
let transfers t = t.transfers
