type config = { base : int; size : int; alignment : int }

let default_config = { base = 0x3000_0000; size = 64 * 1024 * 1024; alignment = 256 }

(* The free blocks and the live allocations are parallel int arrays
   with a count, grown by doubling, so an allocation or a free past the
   first few writes only ints. The free blocks are sorted by address
   and no two touch; the live allocations are in no order. *)
type t = {
  config : config;
  mutable free_addr : int array;
  mutable free_size : int array;
  mutable n_free : int;
  mutable live_addr : int array;
  mutable live_size : int array;  (** rounded size *)
  mutable n_live : int;
  mutable allocated : int;
  mutable peak : int;
}

let initial_slots = 8

let create ?(config = default_config) () =
  if config.size <= 0 then invalid_arg "Cma.create: empty region";
  if config.alignment <= 0 || config.alignment land (config.alignment - 1) <> 0 then
    invalid_arg "Cma.create: alignment must be a positive power of two";
  if config.base mod config.alignment <> 0 then
    invalid_arg "Cma.create: base must be aligned";
  let free_addr = Array.make initial_slots 0 and free_size = Array.make initial_slots 0 in
  free_addr.(0) <- config.base;
  free_size.(0) <- config.size;
  {
    config;
    free_addr;
    free_size;
    n_free = 1;
    live_addr = Array.make initial_slots 0;
    live_size = Array.make initial_slots 0;
    n_live = 0;
    allocated = 0;
    peak = 0;
  }

let round_up t bytes = (bytes + t.config.alignment - 1) / t.config.alignment * t.config.alignment

let grow a = Array.append a (Array.make (Array.length a) 0)

(* Open a slot at free-block index [i], moving the blocks from [i] on
   up by one. *)
let open_free t i =
  if t.n_free = Array.length t.free_addr then begin
    t.free_addr <- grow t.free_addr;
    t.free_size <- grow t.free_size
  end;
  Array.blit t.free_addr i t.free_addr (i + 1) (t.n_free - i);
  Array.blit t.free_size i t.free_size (i + 1) (t.n_free - i);
  t.n_free <- t.n_free + 1

let close_free t i =
  Array.blit t.free_addr (i + 1) t.free_addr i (t.n_free - i - 1);
  Array.blit t.free_size (i + 1) t.free_size i (t.n_free - i - 1);
  t.n_free <- t.n_free - 1

let add_live t addr size =
  if t.n_live = Array.length t.live_addr then begin
    t.live_addr <- grow t.live_addr;
    t.live_size <- grow t.live_size
  end;
  t.live_addr.(t.n_live) <- addr;
  t.live_size.(t.n_live) <- size;
  t.n_live <- t.n_live + 1

(* Index of the live allocation at [addr], or -1. *)
let find_live t addr =
  let i = ref 0 in
  while !i < t.n_live && t.live_addr.(!i) <> addr do
    incr i
  done;
  if !i < t.n_live then !i else -1

(* First fit: the lowest-addressed free block large enough gives up its
   low end. *)
let alloc t ~bytes =
  if bytes <= 0 then Error "Cma.alloc: non-positive size"
  else begin
    let need = round_up t bytes in
    let i = ref 0 in
    while !i < t.n_free && t.free_size.(!i) < need do
      incr i
    done;
    if !i = t.n_free then Error (Printf.sprintf "Cma.alloc: no contiguous block of %d bytes" need)
    else begin
      let i = !i in
      let addr = t.free_addr.(i) in
      if t.free_size.(i) > need then begin
        t.free_addr.(i) <- addr + need;
        t.free_size.(i) <- t.free_size.(i) - need
      end
      else close_free t i;
      add_live t addr need;
      t.allocated <- t.allocated + need;
      t.peak <- Int.max t.peak t.allocated;
      Ok addr
    end
  end

(* [addr, addr + size) back into the free blocks, merged with the block
   that ends at [addr] and the one that starts where it ends. No two
   free blocks touch, so those are the only merges. *)
let insert_free t addr size =
  let i = ref 0 in
  while !i < t.n_free && t.free_addr.(!i) < addr do
    incr i
  done;
  let i = !i in
  let joins_prev = i > 0 && t.free_addr.(i - 1) + t.free_size.(i - 1) = addr in
  let joins_next = i < t.n_free && addr + size = t.free_addr.(i) in
  match (joins_prev, joins_next) with
  | true, true ->
      t.free_size.(i - 1) <- t.free_size.(i - 1) + size + t.free_size.(i);
      close_free t i
  | true, false -> t.free_size.(i - 1) <- t.free_size.(i - 1) + size
  | false, true ->
      t.free_addr.(i) <- addr;
      t.free_size.(i) <- size + t.free_size.(i)
  | false, false ->
      open_free t i;
      t.free_addr.(i) <- addr;
      t.free_size.(i) <- size

let free t addr =
  let i = find_live t addr in
  if i < 0 then invalid_arg (Printf.sprintf "Cma.free: 0x%x was not allocated" addr);
  let size = t.live_size.(i) in
  let last = t.n_live - 1 in
  t.live_addr.(i) <- t.live_addr.(last);
  t.live_size.(i) <- t.live_size.(last);
  t.n_live <- last;
  t.allocated <- t.allocated - size;
  insert_free t addr size

let is_allocated t addr = find_live t addr >= 0

let allocation_size t addr =
  let i = find_live t addr in
  if i < 0 then None else Some t.live_size.(i)

let allocated_bytes t = t.allocated

let free_bytes t =
  let s = ref 0 in
  for i = 0 to t.n_free - 1 do
    s := !s + t.free_size.(i)
  done;
  !s

let largest_free_block t =
  let s = ref 0 in
  for i = 0 to t.n_free - 1 do
    s := Int.max !s t.free_size.(i)
  done;
  !s

let peak_allocated_bytes t = t.peak
