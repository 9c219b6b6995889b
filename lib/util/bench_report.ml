type measure = {
  elapsed_s : float;
  minor : float;
  major : float;
  promoted : float;
}

type section = {
  name : string;
  wall_s : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
  domains : int;
  seq_wall_s : float option;
}

let timed f =
  let s0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let s1 = Gc.quick_stat () in
  ( result,
    {
      elapsed_s;
      minor = s1.Gc.minor_words -. s0.Gc.minor_words;
      major = s1.Gc.major_words -. s0.Gc.major_words;
      promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words;
    } )

let of_measure ~name ?seq_wall_s (m : measure) =
  {
    name;
    wall_s = m.elapsed_s;
    minor_words = m.minor;
    major_words = m.major;
    promoted_words = m.promoted;
    domains = Pool.size ();
    seq_wall_s;
  }

let section ~name ?seq_wall_s f =
  let result, m = timed f in
  (result, of_measure ~name ?seq_wall_s m)

let speedup_vs_sequential s =
  match s.seq_wall_s with
  | Some seq when s.wall_s > 0.0 -> Some (seq /. s.wall_s)
  | _ -> None

(* ---------- JSON emission ---------- *)

let escape = Json.escape_string
let number = Json.number

let field b ~last name value =
  Buffer.add_string b (Printf.sprintf "    \"%s\": %s%s\n" (escape name) value
                         (if last then "" else ","))

let write ~path ?(extra = []) ?notes ~sections () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"tdo-cim-bench/1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"domains\": %d,\n" (Pool.size ()));
  Buffer.add_string b
    (Printf.sprintf "  \"sequential\": %b,\n" (Pool.sequential ()));
  Option.iter
    (fun n -> Buffer.add_string b (Printf.sprintf "  \"notes\": \"%s\",\n" (escape n)))
    notes;
  List.iter
    (fun (name, v) ->
      Buffer.add_string b (Printf.sprintf "  \"%s\": %s,\n" (escape name) (number v)))
    extra;
  Buffer.add_string b "  \"sections\": [";
  List.iteri
    (fun i s ->
      Buffer.add_string b (if i = 0 then "\n" else ",\n");
      Buffer.add_string b "  {\n";
      field b ~last:false "name" (Printf.sprintf "\"%s\"" (escape s.name));
      field b ~last:false "wall_s" (number s.wall_s);
      (match s.seq_wall_s with
      | Some seq -> field b ~last:false "seq_wall_s" (number seq)
      | None -> ());
      (match speedup_vs_sequential s with
      | Some sp -> field b ~last:false "speedup_vs_sequential" (number sp)
      | None -> ());
      field b ~last:false "minor_words" (number s.minor_words);
      field b ~last:false "major_words" (number s.major_words);
      field b ~last:false "promoted_words" (number s.promoted_words);
      field b ~last:true "domains" (string_of_int s.domains);
      Buffer.add_string b "  }")
    sections;
  Buffer.add_string b "\n  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc

(* ---------- comparison against a previous report ---------- *)

type delta = {
  name : string;
  wall_s : float;
  baseline_wall_s : float;
  delta_s : float;
  speedup_vs_baseline : float;
  regression : bool;
  minor_words : float;
  baseline_minor_words : float;
  alloc_regression : bool;
}

let load_sections ~path =
  Result.map
    (fun json ->
      Json.member "sections" json |> Option.value ~default:(Json.Arr []) |> Json.to_list
      |> List.filter_map (fun s ->
             match
               ( Option.bind (Json.member "name" s) Json.to_string_opt,
                 Option.bind (Json.member "wall_s" s) Json.to_float )
             with
             | Some name, Some wall_s ->
                 let num key =
                   Option.bind (Json.member key s) Json.to_float
                   |> Option.value ~default:0.0
                 in
                 Some
                   {
                     name;
                     wall_s;
                     minor_words = num "minor_words";
                     major_words = num "major_words";
                     promoted_words = num "promoted_words";
                     domains = int_of_float (num "domains");
                     seq_wall_s = Option.bind (Json.member "seq_wall_s" s) Json.to_float;
                   }
             | _ -> None))
    (Json.of_file path)

let compare ?(tolerance = 0.10) ?(alloc_tolerance = 0.25) ~baseline sections =
  Result.map
    (fun old_sections ->
      List.filter_map
        (fun (s : section) ->
          List.find_opt (fun (o : section) -> String.equal o.name s.name) old_sections
          |> Option.map (fun (o : section) ->
                 {
                   name = s.name;
                   wall_s = s.wall_s;
                   baseline_wall_s = o.wall_s;
                   delta_s = s.wall_s -. o.wall_s;
                   speedup_vs_baseline =
                     (if s.wall_s > 0.0 then o.wall_s /. s.wall_s else Float.infinity);
                   regression = s.wall_s > o.wall_s *. (1.0 +. tolerance);
                   minor_words = s.minor_words;
                   baseline_minor_words = o.minor_words;
                   alloc_regression =
                     o.minor_words > 0.0
                     && s.minor_words > o.minor_words *. (1.0 +. alloc_tolerance);
                 }))
        sections)
    (load_sections ~path:baseline)

let delta_fields deltas =
  List.concat_map
    (fun d ->
      [
        (d.name ^ "_baseline_wall_s", d.baseline_wall_s);
        (d.name ^ "_delta_s", d.delta_s);
        (d.name ^ "_speedup_vs_baseline", d.speedup_vs_baseline);
        (d.name ^ "_regression", if d.regression then 1.0 else 0.0);
        (d.name ^ "_baseline_minor_words", d.baseline_minor_words);
        (d.name ^ "_alloc_regression", if d.alloc_regression then 1.0 else 0.0);
      ])
    deltas
