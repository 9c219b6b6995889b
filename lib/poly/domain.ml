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

type t = { rank : int; boxes : box list }

let of_box b = { rank = box_rank b; boxes = [ b ] }

let of_boxes ~rank boxes =
  List.iter
    (fun b -> if box_rank b <> rank then invalid_arg "Domain.of_boxes: rank mismatch")
    boxes;
  if rank <= 0 then invalid_arg "Domain.of_boxes: rank must be positive";
  { rank; boxes }

let is_empty t = t.boxes = []

let check_ranks a b what =
  if a.rank <> b.rank then invalid_arg ("Domain." ^ what ^ ": rank mismatch")

let union a b =
  check_ranks a b "union";
  { a with boxes = a.boxes @ b.boxes }

let inter_box (a : box) (b : box) =
  if box_rank a <> box_rank b then invalid_arg "Domain.inter_box: rank mismatch";
  let bounds =
    Array.map2 (fun (lo1, hi1) (lo2, hi2) -> (max lo1 lo2, min hi1 hi2)) a b
  in
  if Array.exists (fun (lo, hi) -> lo > hi) bounds then None else Some bounds

let inter a b =
  check_ranks a b "inter";
  let boxes =
    List.concat_map (fun ba -> List.filter_map (fun bb -> inter_box ba bb) b.boxes) a.boxes
  in
  { rank = a.rank; boxes }

let disjoint a b = is_empty (inter a b)

let contains t point =
  if List.length point <> t.rank then invalid_arg "Domain.contains: rank mismatch";
  let point = Array.of_list point in
  List.exists
    (fun b -> Array.for_all2 (fun (lo, hi) p -> lo <= p && p <= hi) b point)
    t.boxes

let box_cardinal b = Array.fold_left (fun acc (lo, hi) -> acc * (hi - lo + 1)) 1 b

(* inclusion-exclusion over the union; fine for the few-box domains this
   flow builds *)
let cardinal t =
  let rec subsets = function
    | [] -> [ [] ]
    | b :: rest ->
        let without = subsets rest in
        without @ List.map (fun s -> b :: s) without
  in
  List.fold_left
    (fun acc subset ->
      match subset with
      | [] -> acc
      | first :: rest ->
          let inter_all =
            List.fold_left
              (fun acc b -> Option.bind acc (fun i -> inter_box i b))
              (Some first) rest
          in
          let sign = if List.length subset mod 2 = 1 then 1 else -1 in
          acc + (sign * match inter_all with Some b -> box_cardinal b | None -> 0))
    0 (subsets t.boxes)
