(* `compare PARENT CHANGE`: two directories of end-to-end results
   ([<seed>/<workload>.json]), one per commit, judged metric by metric
   against the bounds in BENCHMARK.json. Runs pair up by seed. *)

open Results

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the "exclusive" method); a single value is its own quartiles. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Compare.quartiles: no values"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

type side = { q1 : float; median : float; q3 : float }

let side xs =
  let q1, median, q3 = quartiles xs in
  { q1; median; q3 }

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

let spread s = if s.median = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.median

(* [pairs] are (parent, change) values of runs with the same seed. A
   gain needs the change to win at least 9 in 10 pairs (ties count for
   neither side) and the medians to differ by more than the parent's
   quartile spread. A run-to-run spread wider than the bound leaves the
   metric unresolved, unless every change run beats every parent run. A
   median worse by more than the bound is a regression. *)
let judge (spec : spec) pairs =
  let better a b = if spec.higher_better then a > b else a < b in
  let ps = List.map fst pairs and cs = List.map snd pairs in
  let p = side ps and c = side cs in
  let wins = List.length (List.filter (fun (pv, cv) -> better cv pv) pairs) in
  let n = List.length pairs in
  let bound = Option.value ~default:0.0 spec.bound in
  let gain =
    n > 0
    && 10 * wins >= 9 * n
    && Float.abs (c.median -. p.median) > p.q3 -. p.q1
  in
  let all_better = List.for_all (fun cv -> List.for_all (fun pv -> better cv pv) ps) cs in
  let worse_by =
    if p.median = 0.0 then (if better p.median c.median then infinity else 0.0)
    else
      let d = (c.median -. p.median) /. Float.abs p.median in
      if spec.higher_better then -.d else d
  in
  let v =
    if gain then Better
    else if spread p > bound || spread c > bound then if all_better then Better else Unresolved
    else if worse_by > bound then Worse
    else Unchanged
  in
  (v, p, c, wins, n)

(* Metric values of every [<seed>/<workload>.json] under [dir], by seed. *)
let load_side dir workload =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun seed ->
         let path = Filename.concat (Filename.concat dir seed) (workload ^ ".json") in
         match int_of_string_opt seed with
         | Some s when Sys.file_exists path -> (
             match read_result path with Ok ms -> Some (s, ms) | Error _ -> None)
         | _ -> None)

(* Prints one row per (workload, metric); returns the number of worse
   verdicts. *)
let run ~(benchmark : benchmark) ~parent ~change =
  let worse = ref 0 in
  Printf.printf "%-10s %-26s %-10s %32s %32s  %s\n" "workload" "metric" "verdict"
    "parent q1/median/q3" "change q1/median/q3" "wins";
  List.iter
    (fun (w : Workloads.t) ->
      let ps = load_side parent w.Workloads.name and cs = load_side change w.Workloads.name in
      List.iter
        (fun (spec : spec) ->
          let pairs =
            List.filter_map
              (fun (seed, pm) ->
                match (List.assoc_opt spec.s_name pm, List.assoc_opt seed cs) with
                | Some pv, Some cm -> (
                    match List.assoc_opt spec.s_name cm with
                    | Some cv -> Some (pv, cv)
                    | None -> None)
                | _ -> None)
              ps
          in
          if pairs <> [] then begin
            let v, p, c, wins, n = judge spec pairs in
            if v = Worse then incr worse;
            let identical = List.for_all (fun (a, b) -> a = b) pairs in
            Printf.printf
              "%-10s %-26s %-10s %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g  %d/%d%s\n"
              w.Workloads.name spec.s_name (verdict_name v) p.q1 p.median p.q3 c.q1 c.median
              c.q3 wins n
              (if identical then " identical" else "")
          end)
        benchmark.end_to_end)
    Workloads.all;
  !worse
