module Trace = Tdo_serve.Trace

let magic = "#tdo-trace v1"

let encode (t : Trace.t) =
  let b = Buffer.create (128 * (1 + List.length t.Trace.requests)) in
  Buffer.add_string b
    (Printf.sprintf "%s name=%s seed=%d\n" magic t.Trace.name t.Trace.seed);
  List.iter
    (fun r ->
      Buffer.add_string b (Trace.request_to_line r);
      Buffer.add_char b '\n')
    t.Trace.requests;
  Buffer.contents b

let decode s =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.split_on_char '\n' s with
  | [] -> fail "empty trace"
  | header :: body ->
      let header = String.trim header in
      if not (String.length header >= String.length magic
              && String.sub header 0 (String.length magic) = magic)
      then fail "missing %S header" magic
      else begin
        (* header fields after the magic: name=... seed=... *)
        let fields =
          String.sub header (String.length magic) (String.length header - String.length magic)
          |> String.split_on_char ' '
          |> List.filter_map (fun f ->
                 match String.index_opt f '=' with
                 | Some i ->
                     Some
                       ( String.sub f 0 i,
                         String.sub f (i + 1) (String.length f - i - 1) )
                 | None -> None)
        in
        let name = Option.value ~default:"trace" (List.assoc_opt "name" fields) in
        let seed =
          Option.value ~default:0
            (Option.bind (List.assoc_opt "seed" fields) int_of_string_opt)
        in
        (* requests must come in arrival order, each id once: the
           scheduler's arrival FIFO takes them in file order *)
        let ids = Hashtbl.create 64 in
        let rec go lineno acc = function
          | [] -> Ok (List.rev acc)
          | line :: rest when String.trim line = "" -> go (lineno + 1) acc rest
          | line :: rest -> (
              match (Trace.request_of_line line, acc) with
              | Error e, _ -> fail "line %d: %s" lineno e
              | Ok r, _ when Hashtbl.mem ids r.Trace.id ->
                  fail "line %d: duplicate id %d" lineno r.Trace.id
              | Ok r, prev :: _ when r.Trace.arrival_ps < prev.Trace.arrival_ps ->
                  fail "line %d: arrival_ps %d is before the previous request's %d" lineno
                    r.Trace.arrival_ps prev.Trace.arrival_ps
              | Ok r, _ ->
                  Hashtbl.add ids r.Trace.id ();
                  go (lineno + 1) (r :: acc) rest)
        in
        Result.map
          (fun requests -> { Trace.name; seed; requests })
          (go 2 [] body)
      end

let write (t : Trace.t) ~path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (encode t))

let read ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> decode s
  | exception Sys_error e -> Error e
