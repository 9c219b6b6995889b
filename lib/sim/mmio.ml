type handler = { read : offset:int -> int; write : offset:int -> int -> unit }

type mapping = { base : int; size : int; handler : handler }

type t = { mutable mappings : mapping list }

let create () = { mappings = [] }

let overlaps a b = a.base < b.base + b.size && b.base < a.base + a.size

let map t ~base ~size handler =
  if size <= 0 then invalid_arg "Mmio.map: empty range";
  if base < 0 then invalid_arg "Mmio.map: negative base";
  let candidate = { base; size; handler } in
  if List.exists (overlaps candidate) t.mappings then
    invalid_arg (Printf.sprintf "Mmio.map: range [0x%x, 0x%x) overlaps" base (base + size));
  t.mappings <- candidate :: t.mappings

(* Top-level, so a register access allocates neither a closure nor an
   option. *)
let rec find_in addr = function
  | [] -> failwith (Printf.sprintf "Mmio: unmapped address 0x%x" addr)
  | m :: rest -> if addr >= m.base && addr < m.base + m.size then m else find_in addr rest

let read t ~addr =
  let m = find_in addr t.mappings in
  m.handler.read ~offset:(addr - m.base)

let write t ~addr v =
  let m = find_in addr t.mappings in
  m.handler.write ~offset:(addr - m.base) v
