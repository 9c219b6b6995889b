let require_nonempty name = function
  | [] -> invalid_arg (name ^ ": empty list")
  | _ :: _ -> ()

let mean xs =
  require_nonempty "Stats.mean" xs;
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs =
  require_nonempty "Stats.geomean" xs;
  let add_log acc x =
    if x <= 0.0 then invalid_arg "Stats.geomean: non-positive sample" else acc +. log x
  in
  exp (List.fold_left add_log 0.0 xs /. float_of_int (List.length xs))

let stddev xs =
  require_nonempty "Stats.stddev" xs;
  let m = mean xs in
  let sq = List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
  sqrt (sq /. float_of_int (List.length xs))

let minimum xs =
  require_nonempty "Stats.minimum" xs;
  List.fold_left Float.min Float.infinity xs

let maximum xs =
  require_nonempty "Stats.maximum" xs;
  List.fold_left Float.max Float.neg_infinity xs

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let percentile_sorted a ~p =
  if Array.length a = 0 then invalid_arg "Stats.percentile: empty list";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)
  end

let percentile xs ~p = percentile_sorted (sorted xs) ~p
