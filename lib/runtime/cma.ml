type config = { base : int; size : int; alignment : int }

let default_config = { base = 0x3000_0000; size = 64 * 1024 * 1024; alignment = 256 }

type t = {
  config : config;
  mutable free_list : (int * int) list;  (** (addr, size), sorted by addr *)
  live : (int, int) Hashtbl.t;  (** addr -> rounded size *)
  mutable allocated : int;
  mutable peak : int;
}

let create ?(config = default_config) () =
  if config.size <= 0 then invalid_arg "Cma.create: empty region";
  if config.alignment <= 0 || config.alignment land (config.alignment - 1) <> 0 then
    invalid_arg "Cma.create: alignment must be a positive power of two";
  if config.base mod config.alignment <> 0 then
    invalid_arg "Cma.create: base must be aligned";
  {
    config;
    free_list = [ (config.base, config.size) ];
    live = Hashtbl.create 64;
    allocated = 0;
    peak = 0;
  }

let round_up t bytes = (bytes + t.config.alignment - 1) / t.config.alignment * t.config.alignment

let alloc t ~bytes =
  if bytes <= 0 then Error "Cma.alloc: non-positive size"
  else begin
    let need = round_up t bytes in
    (* first fit *)
    let rec take acc = function
      | [] -> None
      | (addr, size) :: rest when size >= need ->
          let remainder = if size > need then [ (addr + need, size - need) ] else [] in
          Some (addr, List.rev_append acc (remainder @ rest))
      | block :: rest -> take (block :: acc) rest
    in
    match take [] t.free_list with
    | None -> Error (Printf.sprintf "Cma.alloc: no contiguous block of %d bytes" need)
    | Some (addr, free_list) ->
        t.free_list <- free_list;
        Hashtbl.add t.live addr need;
        t.allocated <- t.allocated + need;
        t.peak <- max t.peak t.allocated;
        Ok addr
  end

(* [addr, addr + size) into the address-ordered free list, merged with
   the block that ends at [addr] and the one that starts where it ends.
   No two free blocks touch, so those are the only merges. *)
let rec insert_free addr size = function
  | (a, s) :: rest when a + s = addr -> (
      match rest with
      | (b, s') :: rest when addr + size = b -> (a, s + size + s') :: rest
      | _ -> (a, s + size) :: rest)
  | ((a, _) as block) :: rest when a < addr -> block :: insert_free addr size rest
  | (b, s') :: rest when addr + size = b -> (addr, size + s') :: rest
  | blocks -> (addr, size) :: blocks

let free t addr =
  match Hashtbl.find_opt t.live addr with
  | None -> invalid_arg (Printf.sprintf "Cma.free: 0x%x was not allocated" addr)
  | Some size ->
      Hashtbl.remove t.live addr;
      t.allocated <- t.allocated - size;
      t.free_list <- insert_free addr size t.free_list

let is_allocated t addr = Hashtbl.mem t.live addr
let allocation_size t addr = Hashtbl.find_opt t.live addr
let allocated_bytes t = t.allocated
let free_bytes t = List.fold_left (fun acc (_, s) -> acc + s) 0 t.free_list
let largest_free_block t = List.fold_left (fun acc (_, s) -> max acc s) 0 t.free_list
let peak_allocated_bytes t = t.peak
