let row_sums_flat ~rows ~cols codes =
  if rows <= 0 || cols < 0 then invalid_arg "Abft.row_sums: empty matrix";
  if Array.length codes < rows * cols then invalid_arg "Abft.row_sums: codes too short";
  Array.init rows (fun i ->
      let acc = ref 0 in
      for j = 0 to cols - 1 do
        acc := !acc + Array.unsafe_get codes ((i * cols) + j)
      done;
      !acc)

let row_sums codes =
  let m = Array.length codes in
  if m = 0 then invalid_arg "Abft.row_sums: empty matrix";
  let n = Array.length codes.(0) in
  Array.iter
    (fun row -> if Array.length row <> n then invalid_arg "Abft.row_sums: ragged matrix")
    codes;
  row_sums_flat ~rows:m ~cols:n (Array.concat (Array.to_list codes))

let predict ~row_sums ~input =
  let m = Array.length row_sums in
  if Array.length input <> m then
    invalid_arg
      (Printf.sprintf "Abft.predict: input length %d, checksum length %d" (Array.length input) m);
  let acc = ref 0 in
  for i = 0 to m - 1 do
    acc := !acc + (input.(i) * row_sums.(i))
  done;
  !acc

let observe output = Array.fold_left ( + ) 0 output

type verdict = Pass | Fail of { expected : int; observed : int }

let verify ~row_sums ~input ~output =
  let expected = predict ~row_sums ~input in
  let observed = observe output in
  if expected = observed then Pass else Fail { expected; observed }
