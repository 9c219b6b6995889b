module Time_base = Tdo_sim.Time_base
module Stats = Tdo_util.Stats
module Json = Tdo_util.Json

(* Declared before [record] and [conversion], so that an unannotated
   [r.write_bytes] or [c.displaced_bytes] resolves to those types. *)
type counts = {
  requests : int;
  completed : int;
  completed_after_retry : int;
  served_tuned : int;
  cpu_fallbacks : int;
  recovered_host : int;
  rejected : int;
  shed_rate_limited : int;
  shed_load : int;
  failed : int;
  detected_corruptions : int;
  write_bytes : int;
  conversions_to_compute : int;
  conversions_to_memory : int;
  displaced_bytes : float;
  latency_p50_us : float;
  latency_p99_us : float;
  latency_mean_us : float;
}

type summary = counts
type class_counts = counts
type slo_counts = counts

type shed_reason = Rate_limited | Load_shed

let shed_reason_name = function
  | Rate_limited -> "rate_limited"
  | Load_shed -> "load_shed"

type outcome =
  | Completed
  | Cpu_fallback
  | Recovered_host
  | Rejected_overloaded
  | Shed of shed_reason
  | Failed of string

type record = {
  request : Trace.request;
  outcome : outcome;
  device : int option;
  profile : string option;
  batch : int option;
  cache_hit : bool;
  queue_depth : int;
  start_ps : int;
  finish_ps : int;
  service_ps : int;
  retries : int;
  tuned : bool;
  write_bytes : int;
  checksum : string option;
}

let latency_ps r = r.finish_ps - r.request.Trace.arrival_ps

(* Bucket a record lands in for per-class accounting: the fleet
   profile that produced it, "host" for interpreter degradations, and
   "unplaced" for outcomes that never reached a device. *)
let profile_bucket r =
  match (r.profile, r.outcome) with
  | Some p, _ -> p
  | None, (Cpu_fallback | Recovered_host) -> "host"
  | None, _ -> "unplaced"

let served r =
  match r.outcome with Completed | Cpu_fallback | Recovered_host -> true | _ -> false

let shed r = match r.outcome with Shed _ | Rejected_overloaded -> true | _ -> false

type conversion = {
  at_ps : int;
  conv_device : int;
  conv_profile : string;
  to_compute : bool;  (** [false] = reverted to the plain-memory role *)
  displaced_bytes : float;
      (** memory-role traffic forgone over the drafted interval a
          revert closes; [0.] on drafts *)
}

type t = {
  mutable records : record list;  (** reverse order of recording *)
  mutable depth_samples : (int * int) list;  (** (at_ps, depth), reverse *)
  mutable conversions : conversion list;  (** reverse order *)
  observer : (record -> unit) option;
}

let create ?observer () = { records = []; depth_samples = []; conversions = []; observer }

let record t r =
  t.records <- r :: t.records;
  match t.observer with Some f -> f r | None -> ()

let sample_queue_depth t ~at_ps ~depth =
  t.depth_samples <- (at_ps, depth) :: t.depth_samples

let record_conversion ?(displaced_bytes = 0.0) t ~at_ps ~device ~profile ~to_compute =
  t.conversions <-
    { at_ps; conv_device = device; conv_profile = profile; to_compute; displaced_bytes }
    :: t.conversions

let conversions t = List.rev t.conversions

let records t =
  List.sort (fun a b -> compare a.request.Trace.id b.request.Trace.id) t.records

let last_finish_ps t = List.fold_left (fun acc r -> max acc r.finish_ps) 0 t.records
let us_of_ps ps = float_of_int ps /. float_of_int Time_base.ps_per_us

(* ---------- roll-ups: one fold, one naming ---------- *)

let no_counts =
  {
    requests = 0;
    completed = 0;
    completed_after_retry = 0;
    served_tuned = 0;
    cpu_fallbacks = 0;
    recovered_host = 0;
    rejected = 0;
    shed_rate_limited = 0;
    shed_load = 0;
    failed = 0;
    detected_corruptions = 0;
    write_bytes = 0;
    conversions_to_compute = 0;
    conversions_to_memory = 0;
    displaced_bytes = 0.0;
    latency_p50_us = 0.0;
    latency_p99_us = 0.0;
    latency_mean_us = 0.0;
  }

let add_record (c : counts) (r : record) =
  let c =
    { c with requests = c.requests + 1; detected_corruptions = c.detected_corruptions + r.retries }
  in
  match r.outcome with
  | Completed ->
      {
        c with
        completed = c.completed + 1;
        completed_after_retry = (c.completed_after_retry + if r.retries > 0 then 1 else 0);
        served_tuned = (c.served_tuned + if r.tuned then 1 else 0);
        write_bytes = c.write_bytes + r.write_bytes;
      }
  | Cpu_fallback -> { c with cpu_fallbacks = c.cpu_fallbacks + 1 }
  | Recovered_host -> { c with recovered_host = c.recovered_host + 1 }
  | Rejected_overloaded -> { c with rejected = c.rejected + 1 }
  | Shed Rate_limited -> { c with shed_rate_limited = c.shed_rate_limited + 1 }
  | Shed Load_shed -> { c with shed_load = c.shed_load + 1 }
  | Failed _ -> { c with failed = c.failed + 1 }

let add_conversion (c : counts) (conv : conversion) =
  let c = { c with displaced_bytes = c.displaced_bytes +. conv.displaced_bytes } in
  if conv.to_compute then { c with conversions_to_compute = c.conversions_to_compute + 1 }
  else { c with conversions_to_memory = c.conversions_to_memory + 1 }

(* Every record lands in the group [key] names and, when [conv_key] is
   given, every conversion in the group it names. A group's latencies
   are its served records' in [served_latencies_us]'s order, so its
   mean sums them as [mean_latency_us] does. Sorted by key. *)
let group ~key ?conv_key t =
  let table = Hashtbl.create 8 in
  let find k =
    match Hashtbl.find_opt table k with
    | Some g -> g
    | None ->
        let g = (ref no_counts, ref []) in
        Hashtbl.add table k g;
        g
  in
  List.iter
    (fun r ->
      let c, lats = find (key r) in
      c := add_record !c r;
      if served r then lats := us_of_ps (latency_ps r) :: !lats)
    t.records;
  Option.iter
    (fun conv_key ->
      List.iter
        (fun conv ->
          let c, _ = find (conv_key conv) in
          c := add_conversion !c conv)
        t.conversions)
    conv_key;
  Hashtbl.fold
    (fun k (c, lats) acc ->
      let c =
        match List.rev !lats with
        | [] -> !c
        | lats ->
            let sorted = Stats.sorted lats in
            {
              !c with
              latency_p50_us = Stats.percentile_sorted sorted ~p:50.0;
              latency_p99_us = Stats.percentile_sorted sorted ~p:99.0;
              latency_mean_us = Stats.mean lats;
            }
      in
      (k, c) :: acc)
    table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let summary t =
  match group ~key:ignore ~conv_key:ignore t with [ (_, c) ] -> c | _ -> no_counts

let class_summary t = group ~key:profile_bucket ~conv_key:(fun conv -> conv.conv_profile) t
let slo_summary t = group ~key:(fun r -> r.request.Trace.slo) t

let fields (c : counts) =
  let n = float_of_int in
  [
    ("requests", n c.requests);
    ("served", n (c.completed + c.cpu_fallbacks + c.recovered_host));
    ("completed", n c.completed);
    ("completed_after_retry", n c.completed_after_retry);
    ("served_tuned", n c.served_tuned);
    ("cpu_fallbacks", n c.cpu_fallbacks);
    ("recovered_host", n c.recovered_host);
    ("rejected_overloaded", n c.rejected);
    ("shed_rate_limited", n c.shed_rate_limited);
    ("shed_load", n c.shed_load);
    ("failed", n c.failed);
    ("detected_corruptions", n c.detected_corruptions);
    ("write_bytes", n c.write_bytes);
    ("conversions_to_compute", n c.conversions_to_compute);
    ("conversions_to_memory", n c.conversions_to_memory);
    ("displaced_mem_bytes", c.displaced_bytes);
    ("latency_p50_us", c.latency_p50_us);
    ("latency_p99_us", c.latency_p99_us);
    ("latency_mean_us", c.latency_mean_us);
  ]

let format_fields fs =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ Json.number v) fs)

(* ---------- time-windowed views ---------- *)

type window = {
  w_index : int;
  w_start_us : float;
  w_arrivals : int;  (** requests whose arrival falls in the window *)
  w_served : int;  (** requests answered (finish) in the window *)
  w_shed : int;  (** admission sheds + rejections in the window *)
  w_p50_us : float;  (** latency of requests finishing in the window *)
  w_p99_us : float;
  w_throughput_rps : float;  (** served per second of window time *)
  w_max_depth : int;  (** deepest queue sample in the window *)
  w_served_by_slo : (Trace.slo * int) list;
  w_shed_by_slo : (Trace.slo * int) list;
}

let window_ps window_us =
  let ps = window_us *. float_of_int Time_base.ps_per_us in
  if Float.is_finite ps && ps >= 1.0 && ps < float_of_int max_int then Some (int_of_float ps)
  else None

let window_ps_exn name window_us =
  match window_ps window_us with
  | Some ps -> ps
  | None -> invalid_arg (name ^ ": window_us must be finite and span 1 ps to max_int ps")

(* Accumulator for one window; records land by finish time, arrivals
   by arrival time, so a long-latency request counts as an arrival in
   an earlier window than its service. *)
type window_acc = {
  mutable a_arrivals : int;
  mutable a_served : int;
  mutable a_shed : int;
  mutable a_lats : float list;
  mutable a_max_depth : int;
  a_served_by_slo : (Trace.slo, int) Hashtbl.t;
  a_shed_by_slo : (Trace.slo, int) Hashtbl.t;
}

let new_acc () =
  {
    a_arrivals = 0;
    a_served = 0;
    a_shed = 0;
    a_lats = [];
    a_max_depth = 0;
    a_served_by_slo = Hashtbl.create 4;
    a_shed_by_slo = Hashtbl.create 4;
  }

let acc_window accs window_ps at_ps =
  let idx = if at_ps < 0 then 0 else at_ps / window_ps in
  match Hashtbl.find_opt accs idx with
  | Some a -> a
  | None ->
      let a = new_acc () in
      Hashtbl.add accs idx a;
      a

let bump_slo table slo =
  Hashtbl.replace table slo (1 + Option.value ~default:0 (Hashtbl.find_opt table slo))

(* What a record adds to the window it finishes in. *)
let add_finish a r =
  if served r then begin
    a.a_served <- a.a_served + 1;
    a.a_lats <- us_of_ps (latency_ps r) :: a.a_lats;
    bump_slo a.a_served_by_slo r.request.Trace.slo
  end
  else if shed r then begin
    a.a_shed <- a.a_shed + 1;
    bump_slo a.a_shed_by_slo r.request.Trace.slo
  end

let window_of_acc ~window_ps idx (a : window_acc) =
  let sorted = Stats.sorted a.a_lats in
  let rank p = if a.a_lats = [] then 0.0 else Stats.percentile_sorted sorted ~p in
  let slo_list table =
    List.filter_map
      (fun slo ->
        match Hashtbl.find_opt table slo with Some n -> Some (slo, n) | None -> None)
      Trace.all_slos
  in
  {
    w_index = idx;
    w_start_us = us_of_ps (idx * window_ps);
    w_arrivals = a.a_arrivals;
    w_served = a.a_served;
    w_shed = a.a_shed;
    w_p50_us = rank 50.0;
    w_p99_us = rank 99.0;
    w_throughput_rps =
      float_of_int a.a_served /. (float_of_int window_ps /. 1e12);
    w_max_depth = a.a_max_depth;
    w_served_by_slo = slo_list a.a_served_by_slo;
    w_shed_by_slo = slo_list a.a_shed_by_slo;
  }

let windows ?(window_us = 10_000.0) t =
  let window_ps = window_ps_exn "Telemetry.windows" window_us in
  let accs : (int, window_acc) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let arr = acc_window accs window_ps r.request.Trace.arrival_ps in
      arr.a_arrivals <- arr.a_arrivals + 1;
      arr.a_max_depth <- max arr.a_max_depth r.queue_depth;
      add_finish (acc_window accs window_ps r.finish_ps) r)
    t.records;
  List.iter
    (fun (at_ps, depth) ->
      let a = acc_window accs window_ps at_ps in
      a.a_max_depth <- max a.a_max_depth depth)
    t.depth_samples;
  Hashtbl.fold (fun idx a acc -> window_of_acc ~window_ps idx a :: acc) accs []
  |> List.sort (fun a b -> compare a.w_index b.w_index)

let format_window w =
  let slo_part name xs =
    match xs with
    | [] -> ""
    | xs ->
        Printf.sprintf " %s[%s]" name
          (String.concat ","
             (List.map (fun (slo, n) -> Printf.sprintf "%s:%d" (Trace.slo_name slo) n) xs))
  in
  Printf.sprintf
    "[w%04d t=%8.1fms] arrivals %5d served %5d shed %5d | p50 %8.1fus p99 %8.1fus | %8.0f \
     rps depth %3d%s%s"
    w.w_index (w.w_start_us /. 1000.0) w.w_arrivals w.w_served w.w_shed w.w_p50_us
    w.w_p99_us w.w_throughput_rps w.w_max_depth
    (slo_part "served" w.w_served_by_slo)
    (slo_part "shed" w.w_shed_by_slo)

(* Live observer: fold records into the current window's accumulator
   and emit the formatted line as soon as a record lands past the
   window's end, then jump straight to that record's window: the
   windows in between are empty, and empty windows are not emitted.
   Records arrive in dispatch-wave order, which is only approximately
   time order, so stragglers for an already-emitted window are folded
   into the live one instead of reopening the past. *)
let live_view ?(window_us = 10_000.0) ~emit () =
  let window_ps = window_ps_exn "Telemetry.live_view" window_us in
  let current = ref 0 in
  let acc = ref (new_acc ()) in
  fun (r : record) ->
    let idx = max 0 r.finish_ps / window_ps in
    if idx > !current then begin
      if !acc.a_arrivals + !acc.a_served + !acc.a_shed > 0 then
        emit (format_window (window_of_acc ~window_ps !current !acc));
      acc := new_acc ();
      current := idx
    end;
    let a = !acc in
    a.a_arrivals <- a.a_arrivals + 1;
    a.a_max_depth <- max a.a_max_depth r.queue_depth;
    add_finish a r

let served_latencies_us ?profile t =
  List.filter_map
    (fun r ->
      if served r && (match profile with None -> true | Some p -> profile_bucket r = p) then
        Some (us_of_ps (latency_ps r))
      else None)
    t.records

let latency_percentile ?profile t ~p =
  match served_latencies_us ?profile t with [] -> None | xs -> Some (Stats.percentile xs ~p)

let mean_latency_us ?profile t =
  match served_latencies_us ?profile t with [] -> None | xs -> Some (Stats.mean xs)

let max_queue_depth t = List.fold_left (fun acc (_, d) -> max acc d) 0 t.depth_samples

(* ---------- Chrome trace events ---------- *)

let chrome_trace t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  let first = ref true in
  let event fmt =
    Printf.ksprintf
      (fun s ->
        if not !first then Buffer.add_string b ",\n";
        first := false;
        Buffer.add_string b s)
      fmt
  in
  let escape = Json.escape_string in
  List.iter
    (fun r ->
      let name =
        escape (Printf.sprintf "%s/%d#%d" r.request.Trace.kernel r.request.Trace.n r.request.Trace.id)
      in
      match r.outcome with
      | Completed ->
          event
            {|{"name":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"class":"%s","slo":"%s","tenant":%d,"cache_hit":%b,"queue_depth":%d}}|}
            name (us_of_ps r.start_ps)
            (us_of_ps (r.finish_ps - r.start_ps))
            (match r.device with Some d -> d | None -> -1)
            (escape (profile_bucket r))
            (Trace.slo_name r.request.Trace.slo)
            r.request.Trace.tenant r.cache_hit r.queue_depth
      | Cpu_fallback ->
          event {|{"name":"%s (cpu)","ph":"X","ts":%.3f,"dur":%.3f,"pid":2,"tid":0}|} name
            (us_of_ps r.start_ps)
            (us_of_ps (r.finish_ps - r.start_ps))
      | Recovered_host ->
          event
            {|{"name":"%s (recovered, %d retries)","ph":"X","ts":%.3f,"dur":%.3f,"pid":2,"tid":0}|}
            name r.retries (us_of_ps r.start_ps)
            (us_of_ps (r.finish_ps - r.start_ps))
      | Rejected_overloaded ->
          event {|{"name":"%s rejected","ph":"i","ts":%.3f,"pid":2,"tid":1,"s":"g"}|} name
            (us_of_ps r.finish_ps)
      | Shed reason ->
          event
            {|{"name":"%s shed (%s)","ph":"i","ts":%.3f,"pid":2,"tid":1,"s":"g","args":{"slo":"%s","tenant":%d}}|}
            name
            (shed_reason_name reason)
            (us_of_ps r.finish_ps)
            (Trace.slo_name r.request.Trace.slo)
            r.request.Trace.tenant
      | Failed msg ->
          event {|{"name":"%s failed: %s","ph":"i","ts":%.3f,"pid":2,"tid":1,"s":"g"}|} name
            (escape msg) (us_of_ps r.finish_ps))
    (records t);
  (* dual-mode role switches land on their device's track, so a trace
     viewer shows exactly when a tile joined or left the compute pool *)
  List.iter
    (fun conv ->
      event
        {|{"name":"%s: convert to %s","ph":"i","ts":%.3f,"pid":1,"tid":%d,"s":"t","args":{"displaced_bytes":%.0f}}|}
        (escape conv.conv_profile)
        (if conv.to_compute then "compute" else "memory")
        (us_of_ps conv.at_ps) conv.conv_device conv.displaced_bytes)
    (List.rev t.conversions);
  List.iter
    (fun (at_ps, depth) ->
      event {|{"name":"queue","ph":"C","ts":%.3f,"pid":1,"tid":0,"args":{"depth":%d}}|}
        (us_of_ps at_ps) depth)
    (List.rev t.depth_samples);
  (* closing instant events carrying the run's, each device class's and
     each SLO class's {!fields}, so a trace viewer shows the totals
     without the JSON report *)
  let summary_event name c =
    event {|{"name":"%s","ph":"i","ts":%.3f,"pid":1,"tid":0,"s":"g","args":%s}|} (escape name)
      (us_of_ps (last_finish_ps t))
      (Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) (fields c))))
  in
  summary_event "outcome-summary" (summary t);
  List.iter (fun (profile, c) -> summary_event ("class-summary " ^ profile) c) (class_summary t);
  List.iter (fun (slo, c) -> summary_event ("slo-summary " ^ Trace.slo_name slo) c) (slo_summary t);
  Buffer.add_string b "]\n";
  Buffer.contents b

let write_chrome_trace t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_trace t))
