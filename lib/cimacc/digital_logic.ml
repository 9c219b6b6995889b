type counters = { weighted_sums : int; alu_ops : int }

type t = { mutable sums : int; mutable ops : int }

let create () = { sums = 0; ops = 0 }
let counters t = { weighted_sums = t.sums; alu_ops = t.ops }

(* Element [j] of pass [v]'s C slice is at [v * slice_stride + j *
   elem_stride]: a block's slices are the rows of one buffer
   ([slice_stride = len], [elem_stride = 1]) or its columns
   ([slice_stride = 1], [elem_stride = passes]). *)
let postprocess_into t ~alpha ~beta ~scales ~raw ~c_old ~out ~passes ~len ~slice_stride
    ~elem_stride =
  let last = ((passes - 1) * slice_stride) + ((len - 1) * elem_stride) in
  if passes < 0 || len < 0 || Array.length scales < passes || Array.length raw < passes * len
  then invalid_arg "Digital_logic.postprocess_into: raw results or scales too short";
  if passes > 0 && len > 0 && (last < 0 || last >= Array.length out) then
    invalid_arg "Digital_logic.postprocess_into: out too short";
  (match c_old with
  | Some c when passes > 0 && len > 0 && last >= Array.length c ->
      invalid_arg "Digital_logic.postprocess_into: c_old too short"
  | Some _ -> ()
  | None -> if beta <> 0.0 then invalid_arg "Digital_logic.postprocess_into: beta without c_old");
  t.sums <- t.sums + passes;
  for v = 0 to passes - 1 do
    let ab = alpha *. Array.unsafe_get scales v in
    let r0 = v * len and p0 = v * slice_stride in
    match c_old with
    | None ->
        for j = 0 to len - 1 do
          Array.unsafe_set out (p0 + (j * elem_stride))
            (ab *. float_of_int (Array.unsafe_get raw (r0 + j)))
        done
    | Some c ->
        for j = 0 to len - 1 do
          let p = p0 + (j * elem_stride) in
          Array.unsafe_set out p
            ((ab *. float_of_int (Array.unsafe_get raw (r0 + j))) +. (beta *. Array.unsafe_get c p))
        done
  done;
  (* Per element: one rescale multiply, one alpha multiply, and the
     beta multiply-accumulate when the epilogue reads C. *)
  let per_element = if c_old = None then 2 else 4 in
  t.ops <- t.ops + (per_element * len * passes)
