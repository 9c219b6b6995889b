module Backend = Tdo_backend.Backend
module Json = Tdo_util.Json
module Time_base = Tdo_sim.Time_base

type stop = Eof | Quit

(* ---------- request parsing (line protocol + JSON objects) ---------- *)

(* Integers arrive as JSON numbers (doubles): accept only integral
   values that convert to an OCaml int exactly. *)
let json_int ?default j k =
  match (Json.member k j, default) with
  | None, Some d -> Ok d
  | None, None -> Error ("missing field " ^ k)
  | Some (Json.Num f), _ when Float.is_integer f && Float.abs f < 0x1p62 -> Ok (int_of_float f)
  | Some v, _ -> Error (Printf.sprintf "field %s: %s is not an integer" k (Json.to_string v))

let json_request j =
  let ( let* ) = Result.bind in
  let* kernel =
    match Option.bind (Json.member "kernel" j) Json.to_string_opt with
    | Some k -> Ok k
    | None -> Error "missing field kernel"
  in
  let* n = json_int j "n" in
  let* () =
    if n < 1 || n > Trace.max_n then
      Error (Printf.sprintf "field n: %d outside 1..%d" n Trace.max_n)
    else Ok ()
  in
  let* id = json_int ~default:0 j "id" in
  let* seed = json_int ~default:0 j "seed" in
  let* tenant = json_int ~default:0 j "tenant" in
  let* () =
    if tenant < 0 then Error (Printf.sprintf "field tenant: %d is negative" tenant) else Ok ()
  in
  let* deadline_ps =
    match Json.member "deadline_us" j with
    | None -> Ok None
    | Some (Json.Num us)
      when us >= 0.0 && us *. float_of_int Time_base.ps_per_us < 0x1p62 ->
        Ok (Some (int_of_float (us *. float_of_int Time_base.ps_per_us)))
    | Some v ->
        Error (Printf.sprintf "field deadline_us: %s is not a duration" (Json.to_string v))
  in
  let* slo =
    match Option.bind (Json.member "class" j) Json.to_string_opt with
    | None -> Ok Trace.Interactive
    | Some s -> Trace.slo_of_name s
  in
  Ok { Trace.id; kernel; n; seed; arrival_ps = 0; deadline_ps; tenant; slo }

type command = Request of Trace.request | Stats | Quit_cmd

let parse_line line =
  let line = String.trim line in
  if line = "" then Error "empty request line"
  else if line.[0] = '{' then
    match Json.parse line with
    | Error e -> Error e
    | Ok j -> Result.map (fun r -> Request r) (json_request j)
  else
    match String.index_opt line ' ' with
    | None when line = "stats" -> Ok Stats
    | None when line = "quit" -> Ok Quit_cmd
    | _ ->
        if String.length line >= 3 && String.sub line 0 3 = "req" then
          Result.map (fun r -> Request r) (Trace.request_of_line line)
        else Error (Printf.sprintf "unknown verb %S (expected req, stats or quit)" line)

(* ---------- the wall-clock driver ---------- *)

let write_line fd line =
  let s = line ^ "\n" in
  let len = String.length s in
  let off = ref 0 in
  (try
     while !off < len do
       off := !off + Unix.write_substring fd s !off (len - !off)
     done
   with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) -> ())

let us_of_ps ps = float_of_int ps /. float_of_int Time_base.ps_per_us

(* One response line per record, whatever outcome the core reached. *)
let response_line (r : Telemetry.record) =
  let id = r.Telemetry.request.Trace.id in
  match r.Telemetry.outcome with
  | Telemetry.Completed | Telemetry.Cpu_fallback | Telemetry.Recovered_host ->
      Printf.sprintf "ok id=%d%s class=%s latency_us=%.1f service_us=%.1f checksum=%s" id
        (match r.Telemetry.device with Some d -> Printf.sprintf " device=%d" d | None -> "")
        (match Scheduler.record_class r with
        | Some cls -> Backend.class_name cls
        | None -> Backend.class_name Backend.Host_blas)
        (us_of_ps (Telemetry.latency_ps r))
        (us_of_ps r.Telemetry.service_ps)
        (Option.value r.Telemetry.checksum ~default:"-")
  | Telemetry.Shed reason ->
      Printf.sprintf "shed id=%d reason=%s" id (Telemetry.shed_reason_name reason)
  | Telemetry.Rejected_overloaded -> Printf.sprintf "rejected id=%d" id
  | Telemetry.Failed msg -> Printf.sprintf "err id=%d msg=%s" id msg

(* 64 KiB: a request is one short line, the longest in the repo's
   smoke script 84 bytes. *)
let max_line_bytes = 65_536

let serve ?(config = Scheduler.default_config) ~input ~output () =
  let t0 = Unix.gettimeofday () in
  (* wall-clock picoseconds since the front-end came up: the time base
     of arrivals, admission refills and telemetry windows *)
  let now_ps () = int_of_float ((Unix.gettimeofday () -. t0) *. 1e12) in
  let respond line = write_line output line in
  let on_record r =
    respond (response_line r);
    Option.iter (fun f -> f r) config.Scheduler.on_record
  in
  let core = Scheduler.create ~config:{ config with Scheduler.on_record = Some on_record } () in
  let submitted = ref [] in
  (* the last instant the core was advanced to: arrivals are stamped
     strictly after it, so the core never sees an arrival in its past *)
  let clock = ref (-1) in
  let quit = ref false in
  (* [stats] lines read in this pump: answered after its advance, so
     they count the requests read alongside them *)
  let stats_due = ref 0 in
  let handle_line ~at line =
    if String.trim line <> "" then
      match parse_line line with
      | Error msg -> respond (Printf.sprintf "err id=0 msg=%s" msg)
      | Ok Stats -> incr stats_due
      | Ok Quit_cmd -> quit := true
      | Ok (Request r) ->
          (* the client's arrival stamp is replaced with the wall clock:
             the front-end is open-loop in real time, not a replayer *)
          let r = { r with Trace.arrival_ps = at } in
          submitted := r :: !submitted;
          Scheduler.submit core r
  in
  (* One reader buffer across reads: lines can arrive split. A line
     longer than [max_line_bytes] is answered with one error as soon as
     it overflows, and its bytes are dropped up to the next newline, so
     the buffer never holds more than one line's worth. *)
  let partial = Buffer.create 256 in
  let skipping = ref false in
  let too_long () =
    respond (Printf.sprintf "err id=0 msg=request line longer than %d bytes" max_line_bytes)
  in
  let chunk = Bytes.create 65536 in
  let eof = ref false in
  (* Complete lines read in this pump, newest first; [None] stands for
     an over-long line, answered in its place among the others. *)
  let lines = ref [] in
  let take k =
    let from = ref 0 in
    while !from < k do
      let nl = match Bytes.index_from_opt chunk !from '\n' with Some i when i < k -> i | _ -> k in
      let len = nl - !from in
      if not !skipping then
        if Buffer.length partial + len <= max_line_bytes then
          Buffer.add_subbytes partial chunk !from len
        else begin
          Buffer.clear partial;
          lines := None :: !lines;
          skipping := true
        end;
      if nl < k then begin
        if !skipping then skipping := false
        else lines := Some (Buffer.contents partial) :: !lines;
        Buffer.clear partial
      end;
      from := nl + 1
    done
  in
  (* Drain everything the client has written so far and stamp it with
     one arrival time: a burst of lines forms a visible backlog, which
     admission judges and the dispatcher batches. [block] waits
     (bounded) for the first byte when the core has nothing to do;
     otherwise the wait is short so queued work is dispatched as the
     wall clock reaches the devices' free times. *)
  let pump ~block =
    let rec drain first =
      if !eof then ()
      else
        let timeout = if not first then 0.0 else if block then 0.2 else 0.001 in
        match Unix.select [ input ] [] [] timeout with
        | [], _, _ -> ()
        | _ -> (
            match Unix.read input chunk 0 (Bytes.length chunk) with
            | 0 -> eof := true
            | k ->
                take k;
                drain false
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain first)
    in
    drain true;
    let at = max (now_ps ()) (!clock + 1) in
    let read = List.rev !lines in
    lines := [];
    List.iter (function Some line -> handle_line ~at line | None -> too_long ()) read;
    let until_ps = max (now_ps ()) at in
    Scheduler.advance core ~until_ps;
    clock := until_ps;
    if !stats_due > 0 then begin
      let stats =
        "stats "
        ^ Telemetry.format_fields (Telemetry.fields (Telemetry.summary (Scheduler.telemetry core)))
      in
      for _ = 1 to !stats_due do
        respond stats
      done;
      stats_due := 0
    end
  in
  while not (!quit || !eof) do
    pump ~block:(Scheduler.pending core = 0)
  done;
  (* requests still queued at session end are served and answered *)
  let trace =
    {
      Trace.name = "frontend";
      seed = config.Scheduler.device_seed;
      requests = List.rev !submitted;
    }
  in
  (Scheduler.finish core trace, if !quit then Quit else Eof)

let serve_unix_socket ?config ~path () =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let stop = ref false in
      let sessions = ref [] in
      while not !stop do
        let client, _ = Unix.accept sock in
        let report, reason =
          Fun.protect
            ~finally:(fun () -> try Unix.close client with Unix.Unix_error _ -> ())
            (fun () -> serve ?config ~input:client ~output:client ())
        in
        sessions := report :: !sessions;
        if reason = Quit then stop := true
      done;
      List.rev !sessions)
