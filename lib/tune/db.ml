module Ast = Tdo_lang.Ast
module Json = Tdo_util.Json
module Offload = Tdo_tactics.Offload
module Flow = Tdo_cim.Flow

module Backend = Tdo_backend.Backend

type entry = {
  digest : string;
  kernel : string;
  n : int;
  device_class : Backend.device_class;
  objective : string;
  config : Space.point;
  tuned_cycles : int;
  default_cycles : int;
  tuned_write_bytes : int;
  default_write_bytes : int;
  calibration_error : float;
}

module Smap = Map.Make (String)

type t = entry Smap.t

let empty = Smap.empty
let size = Smap.cardinal

(* One kernel can hold a tuned configuration per device class; the map
   key is the digest qualified by the class name. *)
let key ~cls digest = digest ^ "/" ^ Backend.class_name cls

let entries db =
  Smap.bindings db |> List.map snd
  |> List.sort (fun a b ->
         match String.compare a.kernel b.kernel with
         | 0 -> (
             match String.compare a.digest b.digest with
             | 0 ->
                 String.compare
                   (Backend.class_name a.device_class)
                   (Backend.class_name b.device_class)
             | c -> c)
         | c -> c)

let add db e = Smap.add (key ~cls:e.device_class e.digest) e db

let find ?(cls = Backend.Pcm_crossbar) db digest = Smap.find_opt (key ~cls digest) db
let lookup ?cls db f = find ?cls db (Ast.structural_digest f)

let entry_of_result ~n (r : Search.result) =
  let cycles e =
    match e.Search.measurement with Some m -> m.Flow.roi_cycles | None -> 0
  in
  let writes e =
    match e.Search.measurement with Some m -> m.Flow.cim_write_bytes | None -> 0
  in
  {
    digest = r.Search.digest;
    kernel = r.Search.kernel;
    n;
    device_class = r.Search.cls;
    objective = Search.objective_to_string r.Search.objective;
    config = r.Search.best.Search.point;
    tuned_cycles = cycles r.Search.best;
    default_cycles = cycles r.Search.default;
    tuned_write_bytes = writes r.Search.best;
    default_write_bytes = writes r.Search.default;
    calibration_error = r.Search.calibration_error;
  }

let config_for ?device ?(cls = Backend.Pcm_crossbar) db digest =
  (* Class-qualified lookup, then a belt-and-braces check: a tuned
     configuration measured on one device class is refused — not
     clamped — for any other class, so the caller falls back to the
     class-appropriate default instead of replaying, say, a PCM
     geometry on a digital tile. *)
  match find ~cls db digest with
  | Some e when e.device_class = cls ->
      Some
        (match device with
        | None -> e.config
        | Some (rows, cols) ->
            {
              e.config with
              Offload.xbar_rows = min e.config.Offload.xbar_rows rows;
              xbar_cols = min e.config.Offload.xbar_cols cols;
            })
  | Some _ | None -> None

(* ---------- JSON ---------- *)

let entry_to_json e =
  Json.Obj
    [
      ("digest", Json.Str e.digest);
      ("kernel", Json.Str e.kernel);
      ("n", Json.Num (float_of_int e.n));
      ("device_class", Json.Str (Backend.class_name e.device_class));
      ("objective", Json.Str e.objective);
      ("config", Space.to_json e.config);
      ("tuned_cycles", Json.Num (float_of_int e.tuned_cycles));
      ("default_cycles", Json.Num (float_of_int e.default_cycles));
      ("tuned_write_bytes", Json.Num (float_of_int e.tuned_write_bytes));
      ("default_write_bytes", Json.Num (float_of_int e.default_write_bytes));
      ("calibration_error", Json.Num e.calibration_error);
    ]

let to_json db =
  Json.Obj
    [
      ("schema", Json.Str "tdo-cim-tunedb/2");
      ("entries", Json.Arr (List.map entry_to_json (entries db)));
    ]

let entry_of_json json =
  let ( let* ) = Result.bind in
  let str name =
    match Option.bind (Json.member name json) Json.to_string_opt with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "tune db: entry missing %s" name)
  in
  let num name =
    Option.bind (Json.member name json) Json.to_float |> Option.value ~default:0.0
  in
  let* digest = str "digest" in
  let* kernel = str "kernel" in
  let* device_class =
    (* absent in schema 1 databases: every pre-fleet entry was tuned on
       the analog crossbar *)
    match Option.bind (Json.member "device_class" json) Json.to_string_opt with
    | None -> Ok Backend.Pcm_crossbar
    | Some s -> Backend.class_of_name s
  in
  let* objective = str "objective" in
  let* config =
    match Json.member "config" json with
    | Some c -> Space.of_json c
    | None -> Error "tune db: entry missing config"
  in
  Ok
    {
      digest;
      kernel;
      n = int_of_float (num "n");
      device_class;
      objective;
      config;
      tuned_cycles = int_of_float (num "tuned_cycles");
      default_cycles = int_of_float (num "default_cycles");
      tuned_write_bytes = int_of_float (num "tuned_write_bytes");
      default_write_bytes = int_of_float (num "default_write_bytes");
      calibration_error = num "calibration_error";
    }

let of_json json =
  match Option.bind (Json.member "schema" json) Json.to_string_opt with
  | Some ("tdo-cim-tunedb/1" | "tdo-cim-tunedb/2") ->
      let rec collect db = function
        | [] -> Ok db
        | e :: rest -> (
            match entry_of_json e with
            | Ok entry -> collect (add db entry) rest
            | Error _ as err -> err)
      in
      collect empty
        (Json.member "entries" json |> Option.value ~default:(Json.Arr []) |> Json.to_list)
  | Some other -> Error (Printf.sprintf "tune db: unknown schema %S" other)
  | None -> Error "tune db: missing schema"

let load path =
  if not (Sys.file_exists path) then Ok empty
  else Result.bind (Json.of_file path) of_json

let save db path =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (Json.to_string (to_json db));
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path
