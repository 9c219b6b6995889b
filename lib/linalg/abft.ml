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

(* Both sides of the invariant for one pass held inside longer arrays,
   as the engine's block buffers hold many passes: [predict_at] reads
   one input code per row sum from [input.(pos)], [observe_at] sums
   the [len] outputs from [output.(pos)]. Unchecked. *)
let predict_at ~row_sums ~input ~pos =
  let acc = ref 0 in
  for i = 0 to Array.length row_sums - 1 do
    acc := !acc + (Array.unsafe_get input (pos + i) * Array.unsafe_get row_sums i)
  done;
  !acc

let observe_at output ~pos ~len =
  let acc = ref 0 in
  for j = pos to pos + len - 1 do
    acc := !acc + Array.unsafe_get output j
  done;
  !acc

let predict ~row_sums ~input =
  let m = Array.length row_sums in
  if Array.length input <> m then
    invalid_arg
      (Printf.sprintf "Abft.predict: input length %d, checksum length %d" (Array.length input) m);
  predict_at ~row_sums ~input ~pos:0

let observe output = observe_at output ~pos:0 ~len:(Array.length output)

type verdict = Pass | Fail of { expected : int; observed : int }

let verify ~row_sums ~input ~input_pos ~output ~output_pos ~output_len =
  if
    input_pos < 0
    || input_pos + Array.length row_sums > Array.length input
    || output_pos < 0 || output_len < 0
    || output_pos + output_len > Array.length output
  then invalid_arg "Abft.verify: pass outside its arrays";
  let expected = predict_at ~row_sums ~input ~pos:input_pos in
  let observed = observe_at output ~pos:output_pos ~len:output_len in
  if expected = observed then Pass else Fail { expected; observed }
