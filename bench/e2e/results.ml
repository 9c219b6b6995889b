(* Metric values, the result line and files a run writes, and the
   metric names BENCHMARK.json lists. *)

module Json = Tdo_util.Json

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ---------- host speed ---------- *)

(* Host times are reported at the speed of a reference machine. On a
   shared 2-vCPU box the same code runs up to a third slower from one
   minute to the next, in the replay and in a plain loop alike. A fixed
   computation timed next to each measurement shows the machine's speed
   at that moment, and the measured time is scaled by
   [reference_nominal_s / reference time]. The computation allocates
   nothing, so no heap or GC state the measured code leaves behind can
   change it. *)
let reference_buf = Array.make 65536 0

let reference_s () =
  let t0 = now_s () in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 6_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let i = !x land 65535 in
    reference_buf.(i) <- reference_buf.(i) + 1;
    acc := !acc + (reference_buf.(i) lxor !x)
  done;
  ignore (Sys.opaque_identity !acc);
  now_s () -. t0

(* The reference computation's time on the machine the bounds were set
   on. *)
let reference_nominal_s = 0.015

(* Brings a time measured between two reference timings to reference
   speed. *)
let at_reference_speed t ~before ~after = t *. reference_nominal_s /. ((before +. after) /. 2.0)

(* All digits of a measured value; non-finite values cannot occur in a
   finished run and would not be JSON. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Results.number: non-finite metric value"

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number m.value) m.unit_)
         ms)
  ^ "}"

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  info : (string * float) list;  (** counts printed beside the metrics *)
}

(* The line a run ends with. *)
let result_line r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    r.correct r.attempted r.failed (metrics_json r.metrics)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let write_file path contents =
  mkdir_p (Filename.dirname path);
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc contents);
  Sys.rename tmp path

(* Where a run's files go: [out/<seed>/<file>]. *)
let out_path ~out ~seed file = Filename.concat (Filename.concat out (string_of_int seed)) file

let write_result path ~workload ~seed r =
  write_file path
    (Printf.sprintf
       "{\"workload\": %S, \"seed\": %d, \"correct\": %b, \"attempted\": %d, \"failed\": %d,\n\
       \ \"metrics\": %s,\n\
       \ \"info\": {%s}}\n"
       workload seed r.correct r.attempted r.failed (metrics_json r.metrics)
       (String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (number v)) r.info)))

let read_result path =
  match Json.of_file path with
  | Error e -> Error e
  | Ok j ->
      let metrics =
        match Json.member "metrics" j with
        | Some (Json.Obj fields) ->
            List.filter_map
              (fun (name, m) ->
                match Option.bind (Json.member "value" m) Json.to_float with
                | Some v -> Some (name, v)
                | None -> None)
              fields
        | _ -> []
      in
      Ok metrics

(* ---------- BENCHMARK.json ---------- *)

type spec = { s_name : string; s_unit : string; higher_better : bool; bound : float option }

type benchmark = { end_to_end : spec list; per_layer : spec list }

let load_benchmark path =
  match Json.of_file path with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok j ->
      let specs key =
        List.filter_map
          (fun m ->
            match
              ( Option.bind (Json.member "name" m) Json.to_string_opt,
                Option.bind (Json.member "unit" m) Json.to_string_opt,
                Option.bind (Json.member "better" m) Json.to_string_opt )
            with
            | Some s_name, Some s_unit, Some better ->
                Some
                  {
                    s_name;
                    s_unit;
                    higher_better = better = "higher";
                    bound = Option.bind (Json.member "bound" m) Json.to_float;
                  }
            | _ -> None)
          (Json.to_list (Option.value ~default:Json.Null (Json.member key j)))
      in
      Ok { end_to_end = specs "end_to_end"; per_layer = specs "per_layer" }

(* Metric names: a letter or digit, then at most 63 of [A-Za-z0-9_.-]. *)
let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s

(* Every problem with the printed metrics: a bad name, a name the
   benchmark does not list, a unit that differs from the listed one, or
   a listed metric that was not printed. *)
let check_names (listed : spec list) (ms : metric list) =
  let bad =
    List.filter_map
      (fun m ->
        if not (valid_name m.name) then Some (Printf.sprintf "bad metric name %S" m.name)
        else
          match List.find_opt (fun s -> s.s_name = m.name) listed with
          | None -> Some (Printf.sprintf "metric %s is not listed in BENCHMARK.json" m.name)
          | Some s when s.s_unit <> m.unit_ ->
              Some
                (Printf.sprintf "metric %s has unit %s, BENCHMARK.json says %s" m.name m.unit_
                   s.s_unit)
          | Some _ -> None)
      ms
  in
  let missing =
    List.filter_map
      (fun s ->
        if List.exists (fun m -> m.name = s.s_name) ms then None
        else Some (Printf.sprintf "listed metric %s was not printed" s.s_name))
      listed
  in
  bad @ missing
