type t = {
  lines : int;
  gap_interval : int;
  mutable start : int;  (** rotation offset, in [0, lines] *)
  mutable gap : int;  (** physical index of the gap line, in [0, lines] *)
  mutable writes_since_move : int;
  mutable total_writes : int;
  mutable gap_movements : int;
  wear : int array;  (** per physical line *)
  quarantined : bool array;  (** per physical line; writes routed around *)
}

let create ~lines ~gap_interval =
  if lines <= 0 then invalid_arg "Wear_leveling.create: lines must be positive";
  if gap_interval <= 0 then invalid_arg "Wear_leveling.create: interval must be positive";
  {
    lines;
    gap_interval;
    start = 0;
    gap = lines;
    writes_since_move = 0;
    total_writes = 0;
    gap_movements = 0;
    wear = Array.make (lines + 1) 0;
    quarantined = Array.make (lines + 1) false;
  }

let lines t = t.lines

let check_physical t phys =
  if phys < 0 || phys > t.lines then
    invalid_arg (Printf.sprintf "Wear_leveling: physical line %d out of %d" phys (t.lines + 1))

let quarantined_count t =
  Array.fold_left (fun acc q -> if q then acc + 1 else acc) 0 t.quarantined

let quarantine t phys =
  check_physical t phys;
  if not t.quarantined.(phys) then begin
    if quarantined_count t >= t.lines then
      invalid_arg "Wear_leveling.quarantine: would leave no healthy line";
    t.quarantined.(phys) <- true
  end

let is_quarantined t phys =
  check_physical t phys;
  t.quarantined.(phys)

(* Start-Gap address computation (Qureshi et al., Eq. in Sec. 3.2):
   rotate by [start] over the logical lines, then skip the gap line. *)
let physical_of_logical t logical =
  if logical < 0 || logical >= t.lines then
    invalid_arg (Printf.sprintf "Wear_leveling: logical line %d out of %d" logical t.lines);
  let rotated = (logical + t.start) mod t.lines in
  let phys = if rotated >= t.gap then rotated + 1 else rotated in
  (* Quarantine probing: skip dead lines by walking forward (the remap
     analogue of Start-Gap's own skip over the gap). With nothing
     quarantined this is the identity, preserving the bijection. *)
  if not t.quarantined.(phys) then phys
  else begin
    let physical = t.lines + 1 in
    let p = ref ((phys + 1) mod physical) in
    while t.quarantined.(!p) do
      p := (!p + 1) mod physical
    done;
    !p
  end

let move_gap t =
  t.gap_movements <- t.gap_movements + 1;
  if t.gap = 0 then begin
    (* the gap wraps to the top; one full rotation completed, so the
       whole mapping advances by one line *)
    t.gap <- t.lines;
    t.start <- (t.start + 1) mod t.lines
  end
  else begin
    (* the line below the gap is copied into the gap: one write to the
       gap's physical position (unless that position is quarantined, in
       which case the copy is elided — dead lines take no traffic) *)
    if not t.quarantined.(t.gap) then t.wear.(t.gap) <- t.wear.(t.gap) + 1;
    t.gap <- t.gap - 1
  end

let write t logical =
  let phys = physical_of_logical t logical in
  t.wear.(phys) <- t.wear.(phys) + 1;
  t.total_writes <- t.total_writes + 1;
  t.writes_since_move <- t.writes_since_move + 1;
  if t.writes_since_move >= t.gap_interval then begin
    t.writes_since_move <- 0;
    move_gap t
  end

let wear t = Array.copy t.wear
let max_wear t = Array.fold_left max 0 t.wear
let gap_movements t = t.gap_movements

type stats = { writes : int; max_per_cell : int; remaps : int; quarantined : int }

let stats t =
  {
    writes = t.total_writes;
    max_per_cell = max_wear t;
    remaps = t.gap_movements;
    quarantined = quarantined_count t;
  }

let ideal_max_wear t =
  let physical = t.lines + 1 in
  (t.total_writes + t.gap_movements + physical - 1) / physical
