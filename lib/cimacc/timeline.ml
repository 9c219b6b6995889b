type phase =
  | Trigger
  | Dma_fill
  | Program_crossbar
  | Compute
  | Accumulate
  | Store_result
  | Result_ready

type detail =
  | Job of { op : int; m : int; n : int; k : int }
  | Pinned_operand of { rows : int; cols : int }
  | Program_tile of { tile : int; rows : int }
  | Vector of int
  | Gemv of int
  | Abft_verify of int
  | Epilogue of int
  | Slice of int
  | Status_done

type event = { at : Tdo_sim.Time_base.ps; phase : phase; detail : detail }

let detail_to_string = function
  | Job { op; m; n; k } -> Printf.sprintf "job op=%d m=%d n=%d k=%d" op m n k
  | Pinned_operand { rows; cols } -> Printf.sprintf "pinned operand %dx%d" rows cols
  | Program_tile { tile; rows } -> Printf.sprintf "tile %d, %d rows" tile rows
  | Vector i -> Printf.sprintf "vector %d" i
  | Gemv i -> Printf.sprintf "gemv %d" i
  | Abft_verify i -> Printf.sprintf "abft verify %d" i
  | Epilogue i -> Printf.sprintf "epilogue %d" i
  | Slice i -> Printf.sprintf "slice %d" i
  | Status_done -> "status <- done"

let phase_to_string = function
  | Trigger -> "trigger"
  | Dma_fill -> "dma-fill"
  | Program_crossbar -> "program-crossbar"
  | Compute -> "compute"
  | Accumulate -> "accumulate"
  | Store_result -> "store-result"
  | Result_ready -> "result-ready"

let pp_event ppf e =
  Format.fprintf ppf "%10d ps  %-16s %s" e.at (phase_to_string e.phase)
    (detail_to_string e.detail)

(* newest first *)
type t = { mutable recorded : event list }

let create () = { recorded = [] }
let record t ~at ~phase detail = t.recorded <- { at; phase; detail } :: t.recorded
let events t = List.rev t.recorded

let all_phases =
  [ Trigger; Dma_fill; Program_crossbar; Compute; Accumulate; Store_result; Result_ready ]

let render_gantt ?(width = 72) events =
  match events with
  | [] -> ""
  | first :: _ ->
      let t0 = List.fold_left (fun acc e -> min acc e.at) first.at events in
      let t1 = List.fold_left (fun acc e -> max acc e.at) first.at events in
      let span = max 1 (t1 - t0) in
      let column at = min (width - 1) ((at - t0) * (width - 1) / span) in
      (* sort by time to pair each event with its successor *)
      let ordered = List.stable_sort (fun a b -> compare a.at b.at) events in
      let buffer = Buffer.create 1024 in
      let label p = Printf.sprintf "%-16s" (phase_to_string p) in
      List.iter
        (fun phase ->
          let lane = Bytes.make width ' ' in
          let rec mark = function
            | e :: (next :: _ as rest) ->
                if e.phase = phase then begin
                  let from = column e.at and until = max (column e.at) (column next.at) in
                  for c = from to until do
                    Bytes.set lane c (if c = from then '#' else '=')
                  done
                end;
                mark rest
            | [ e ] -> if e.phase = phase then Bytes.set lane (column e.at) '#'
            | [] -> ()
          in
          mark ordered;
          if Bytes.exists (fun c -> c <> ' ') lane then begin
            Buffer.add_string buffer (label phase);
            Buffer.add_char buffer '|';
            Buffer.add_bytes buffer lane;
            Buffer.add_string buffer "|\n"
          end)
        all_phases;
      Buffer.add_string buffer
        (Printf.sprintf "%-16s %d ps .. %d ps (%d events)\n" "" t0 t1 (List.length events));
      Buffer.contents buffer
