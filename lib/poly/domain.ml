type box = (int * int) array

let box bounds =
  if bounds = [] then invalid_arg "Domain.box: rank must be positive";
  if List.exists (fun (lo, hi) -> lo > hi) bounds then None else Some (Array.of_list bounds)

let box_exn bounds =
  match box bounds with
  | Some b -> b
  | None -> invalid_arg "Domain.box_exn: empty box"

let box_rank b = Array.length b
let box_bounds b = Array.to_list b

let inter_box (a : box) (b : box) =
  if box_rank a <> box_rank b then invalid_arg "Domain.inter_box: rank mismatch";
  let bounds =
    Array.map2 (fun (lo1, hi1) (lo2, hi2) -> (max lo1 lo2, min hi1 hi2)) a b
  in
  if Array.exists (fun (lo, hi) -> lo > hi) bounds then None else Some bounds
