module Prng = Tdo_util.Prng

type t = { rows : int; cols : int; data : float array }

let check_dims rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Mat: dimensions must be positive"

let create ~rows ~cols =
  check_dims rows cols;
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let init ~rows ~cols ~f =
  check_dims rows cols;
  let data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) in
  { rows; cols; data }

let of_data ~rows ~cols data =
  check_dims rows cols;
  if Array.length data <> rows * cols then invalid_arg "Mat.of_data: length mismatch";
  { rows; cols; data }

let data m = m.data

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then invalid_arg "Mat.of_arrays: empty";
  let cols = Array.length a.(0) in
  if cols = 0 then invalid_arg "Mat.of_arrays: empty row";
  Array.iter
    (fun r -> if Array.length r <> cols then invalid_arg "Mat.of_arrays: ragged input")
    a;
  init ~rows ~cols ~f:(fun i j -> a.(i).(j))

let rows m = m.rows
let cols m = m.cols

let index m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg (Printf.sprintf "Mat: index (%d,%d) out of %dx%d" i j m.rows m.cols);
  (i * m.cols) + j

let get m i j = m.data.(index m i j)
let set m i j v = m.data.(index m i j) <- v
let to_arrays m = Array.init m.rows (fun i -> Array.init m.cols (fun j -> get m i j))
let copy m = { m with data = Array.copy m.data }
let transpose m = init ~rows:m.cols ~cols:m.rows ~f:(fun i j -> get m j i)
let col m j = Array.init m.rows (fun i -> get m i j)
let map ~f m = { m with data = Array.map f m.data }

let iteri ~f m =
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      f i j (get m i j)
    done
  done

let max_abs m = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 m.data

let max_abs_diff a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Mat.max_abs_diff: shape mismatch";
  let acc = ref 0.0 in
  Array.iteri (fun k v -> acc := Float.max !acc (Float.abs (v -. b.data.(k)))) a.data;
  !acc

let equal_eps ~eps a b =
  a.rows = b.rows && a.cols = b.cols && max_abs_diff a b <= eps

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "@[<h>";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%8.3f" (get m i j)
    done;
    Format.fprintf ppf "@]";
    if i < m.rows - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"

let random g ~rows ~cols ~lo ~hi = init ~rows ~cols ~f:(fun _ _ -> Prng.float_range g ~lo ~hi)
