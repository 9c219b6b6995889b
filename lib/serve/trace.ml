module Prng = Tdo_util.Prng
module Time_base = Tdo_sim.Time_base

type slo = Interactive | Batch | Best_effort

let slo_name = function
  | Interactive -> "interactive"
  | Batch -> "batch"
  | Best_effort -> "best_effort"

let slo_of_name = function
  | "interactive" -> Ok Interactive
  | "batch" -> Ok Batch
  | "best_effort" -> Ok Best_effort
  | other ->
      Error
        (Printf.sprintf "unknown SLO class %S (expected interactive, batch or best_effort)"
           other)

let all_slos = [ Interactive; Batch; Best_effort ]

type request = {
  id : int;
  kernel : string;
  n : int;
  seed : int;
  arrival_ps : int;
  deadline_ps : int option;
  tenant : int;
  slo : slo;
}

type t = { name : string; seed : int; requests : request list }

(* (kernel, n, popularity weight): a skewed mix over few combinations,
   GEMM-heavy like the paper's Fig. 6 winners. *)
let standard_mix =
  [
    ("gemm", 16, 30);
    ("gemm", 24, 15);
    ("2mm", 16, 12);
    ("3mm", 12, 8);
    ("gesummv", 24, 12);
    ("bicg", 24, 8);
    ("mvt", 24, 8);
    ("conv", 12, 7);
  ]

let smoke_mix = [ ("gemm", 12, 3); ("gesummv", 16, 1) ]

type profile = {
  count : int;
  mix : (string * int * int) list;
  mean_gap_us : float;
  deadline_us : int option;
}

let profile_table =
  [
    ("synthetic-smoke", { count = 40; mix = smoke_mix; mean_gap_us = 40.0; deadline_us = None });
    ("synthetic-small", { count = 200; mix = standard_mix; mean_gap_us = 30.0; deadline_us = None });
    ("synthetic-medium", { count = 1000; mix = standard_mix; mean_gap_us = 75.0; deadline_us = None });
    ("synthetic-large", { count = 4000; mix = standard_mix; mean_gap_us = 50.0; deadline_us = None });
    (* arrivals faster than one device drains: the backlog blows the
       deadline and exercises the CPU-fallback path *)
    ("synthetic-tight", { count = 200; mix = standard_mix; mean_gap_us = 8.0; deadline_us = Some 150 });
  ]

let profiles = List.map fst profile_table

let pick_weighted g mix =
  let total = List.fold_left (fun acc (_, _, w) -> acc + w) 0 mix in
  let r = Prng.int g ~bound:total in
  let rec go acc = function
    | [] -> assert false
    | (k, n, w) :: rest -> if r < acc + w then (k, n) else go (acc + w) rest
  in
  go 0 mix

let synthetic ?(seed = 42) ?deadline_us name =
  match List.assoc_opt name profile_table with
  | None ->
      Error
        (Printf.sprintf "unknown trace '%s' (expected one of: %s)" name
           (String.concat ", " profiles))
  | Some p ->
      let g = Prng.create ~seed in
      let deadline_us = match deadline_us with Some _ as d -> d | None -> p.deadline_us in
      let deadline_ps = Option.map (fun us -> us * Time_base.ps_per_us) deadline_us in
      let clock = ref 0 in
      let requests =
        List.init p.count (fun id ->
            let kernel, n = pick_weighted g p.mix in
            (* exponential inter-arrival: a memoryless open-loop client *)
            let u = Prng.float g ~bound:1.0 in
            let gap_us = p.mean_gap_us *. -.Float.log (1.0 -. u) in
            clock := !clock + int_of_float (gap_us *. float_of_int Time_base.ps_per_us);
            {
              id;
              kernel;
              n;
              seed = (seed * 1_000_003) + id;
              arrival_ps = !clock;
              deadline_ps;
              tenant = 0;
              slo = Interactive;
            })
      in
      Ok { name; seed; requests }

let distinct_kernels t =
  List.sort_uniq compare (List.map (fun r -> (r.kernel, r.n)) t.requests)

(* ---------- line codec ----------

   One request per line, `req k=v ...` with a fixed key order, so the
   encoding of a trace is byte-deterministic in its contents. The same
   lines are the wire protocol of {!Frontend} and the body of the
   {!Tdo_loadgen.Codec} trace files. *)

let request_to_line r =
  let b = Buffer.create 96 in
  Buffer.add_string b
    (Printf.sprintf "req id=%d tenant=%d class=%s kernel=%s n=%d seed=%d arrival_ps=%d" r.id
       r.tenant (slo_name r.slo) r.kernel r.n r.seed r.arrival_ps);
  (match r.deadline_ps with
  | Some d -> Buffer.add_string b (Printf.sprintf " deadline_ps=%d" d)
  | None -> ());
  Buffer.contents b

let max_n = 128

let line_keys = [ "id"; "tenant"; "class"; "kernel"; "n"; "seed"; "arrival_ps"; "deadline_ps" ]

let request_of_line line =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
  | "req" :: fields ->
      let parse_field acc field =
        match (acc, String.index_opt field '=') with
        | Error _, _ -> acc
        | Ok _, None -> fail "malformed field %S (expected key=value)" field
        | Ok kvs, Some i ->
            let key = String.sub field 0 i in
            if List.mem key line_keys then
              Ok ((key, String.sub field (i + 1) (String.length field - i - 1)) :: kvs)
            else fail "unknown field %s" key
      in
      Result.bind (List.fold_left parse_field (Ok []) fields) (fun kvs ->
          let int_field ?default key =
            match (List.assoc_opt key kvs, default) with
            | Some v, _ -> (
                match int_of_string_opt v with
                | Some n -> Ok n
                | None -> fail "field %s: %S is not an integer" key v)
            | None, Some d -> Ok d
            | None, None -> fail "missing field %s" key
          in
          let ( let* ) = Result.bind in
          let* id = int_field ~default:0 "id" in
          let* tenant = int_field ~default:0 "tenant" in
          let* () = if tenant < 0 then fail "field tenant: %d is negative" tenant else Ok () in
          let* n = int_field "n" in
          let* () =
            if n < 1 || n > max_n then fail "field n: %d outside 1..%d" n max_n else Ok ()
          in
          let* seed = int_field ~default:0 "seed" in
          let* arrival_ps = int_field ~default:0 "arrival_ps" in
          let* () =
            if arrival_ps < 0 then fail "field arrival_ps: %d is negative" arrival_ps else Ok ()
          in
          let* deadline_ps =
            match List.assoc_opt "deadline_ps" kvs with
            | None -> Ok None
            | Some v -> (
                match int_of_string_opt v with
                | Some d when d < 0 -> fail "field deadline_ps: %d is negative" d
                | Some d -> Ok (Some d)
                | None -> fail "field deadline_ps: %S is not an integer" v)
          in
          let* slo =
            match List.assoc_opt "class" kvs with
            | None -> Ok Interactive
            | Some name -> slo_of_name name
          in
          let* kernel =
            match List.assoc_opt "kernel" kvs with
            | Some k -> Ok k
            | None -> fail "missing field kernel"
          in
          Ok { id; kernel; n; seed; arrival_ps; deadline_ps; tenant; slo })
  | verb :: _ -> fail "unknown verb %S (expected req)" verb
  | [] -> fail "empty request line"
