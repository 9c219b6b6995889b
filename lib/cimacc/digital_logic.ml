type counters = { weighted_sums : int; alu_ops : int }

type t = { mutable sums : int; mutable ops : int }

let create () = { sums = 0; ops = 0 }
let counters t = { weighted_sums = t.sums; alu_ops = t.ops }

(* Inlined into the engine's streamed loop, where [scale] is computed
   per vector: an out-of-line call would box it. *)
let[@inline] postprocess_into t ~alpha ~beta ~scale ~raw ~c_old ~out =
  let n = Array.length raw in
  if Array.length out <> n then invalid_arg "Digital_logic.postprocess_into: out length mismatch";
  (match c_old with
  | Some c when Array.length c <> n ->
      invalid_arg "Digital_logic.postprocess_into: c_old length mismatch"
  | Some _ -> ()
  | None -> if beta <> 0.0 then invalid_arg "Digital_logic.postprocess_into: beta without c_old");
  t.sums <- t.sums + 1;
  let ab = alpha *. scale in
  (match c_old with
  | None -> for i = 0 to n - 1 do out.(i) <- ab *. float_of_int raw.(i) done
  | Some c -> for i = 0 to n - 1 do out.(i) <- (ab *. float_of_int raw.(i)) +. (beta *. c.(i)) done);
  (* Per element: one rescale multiply, one alpha multiply, and the
     beta multiply-accumulate when the epilogue reads C. *)
  let per_element = if c_old = None then 2 else 4 in
  t.ops <- t.ops + (per_element * n)
