module Time_base = Tdo_sim.Time_base
module Stats = Tdo_util.Stats

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
  mutable observer : (record -> unit) option;
}

let create ?observer () =
  { records = []; depth_samples = []; conversions = []; observer }

let set_observer t obs = t.observer <- obs

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

type summary = {
  requests : int;
  completed : int;
  completed_after_retry : int;
  cpu_fallbacks : int;
  recovered_host : int;
  rejected : int;
  shed_rate_limited : int;
  shed_load : int;
  failed : int;
  detected_corruptions : int;
  served_tuned : int;
  conversions_to_compute : int;
  conversions_to_memory : int;
}

let summary t =
  let to_compute, to_memory =
    List.fold_left
      (fun (c, m) conv -> if conv.to_compute then (c + 1, m) else (c, m + 1))
      (0, 0) t.conversions
  in
  List.fold_left
    (fun s r ->
      let s = { s with requests = s.requests + 1; detected_corruptions = s.detected_corruptions + r.retries } in
      match r.outcome with
      | Completed ->
          {
            s with
            completed = s.completed + 1;
            completed_after_retry = (s.completed_after_retry + if r.retries > 0 then 1 else 0);
            served_tuned = (s.served_tuned + if r.tuned then 1 else 0);
          }
      | Cpu_fallback -> { s with cpu_fallbacks = s.cpu_fallbacks + 1 }
      | Recovered_host -> { s with recovered_host = s.recovered_host + 1 }
      | Rejected_overloaded -> { s with rejected = s.rejected + 1 }
      | Shed Rate_limited -> { s with shed_rate_limited = s.shed_rate_limited + 1 }
      | Shed Load_shed -> { s with shed_load = s.shed_load + 1 }
      | Failed _ -> { s with failed = s.failed + 1 })
    {
      requests = 0;
      completed = 0;
      completed_after_retry = 0;
      cpu_fallbacks = 0;
      recovered_host = 0;
      rejected = 0;
      shed_rate_limited = 0;
      shed_load = 0;
      failed = 0;
      detected_corruptions = 0;
      served_tuned = 0;
      conversions_to_compute = to_compute;
      conversions_to_memory = to_memory;
    }
    t.records

(* ---------- per-device-class breakdown ---------- *)

type class_counts = {
  served : int;  (** [Completed] on a device of this profile *)
  recovered : int;
  fallbacks : int;
  rejected : int;
  shed : int;  (** admission sheds (always in the ["unplaced"] bucket) *)
  failed : int;
  retries_against : int;  (** corrupt attempts charged to this profile's devices *)
  to_compute : int;  (** dual-mode conversions into the compute role *)
  to_memory : int;
  class_write_bytes : int;  (** crossbar programming traffic of completed requests *)
  class_displaced_bytes : float;
      (** memory-role bandwidth this profile's dual tiles gave up while
          drafted (charged on reverts) *)
}

let empty_class_counts =
  {
    served = 0;
    recovered = 0;
    fallbacks = 0;
    rejected = 0;
    shed = 0;
    failed = 0;
    retries_against = 0;
    to_compute = 0;
    to_memory = 0;
    class_write_bytes = 0;
    class_displaced_bytes = 0.0;
  }

let class_summary t =
  let table : (string, class_counts) Hashtbl.t = Hashtbl.create 8 in
  let bump bucket f =
    let cur = Option.value ~default:empty_class_counts (Hashtbl.find_opt table bucket) in
    Hashtbl.replace table bucket (f cur)
  in
  List.iter
    (fun r ->
      let bucket = profile_bucket r in
      let bump' f = bump bucket f in
      match r.outcome with
      | Completed ->
          bump' (fun c ->
              {
                c with
                served = c.served + 1;
                retries_against = c.retries_against + r.retries;
                class_write_bytes = c.class_write_bytes + r.write_bytes;
              })
      | Cpu_fallback -> bump' (fun c -> { c with fallbacks = c.fallbacks + 1 })
      | Recovered_host ->
          bump' (fun c ->
              { c with recovered = c.recovered + 1; retries_against = c.retries_against + r.retries })
      | Rejected_overloaded -> bump' (fun c -> { c with rejected = c.rejected + 1 })
      | Shed _ -> bump' (fun c -> { c with shed = c.shed + 1 })
      | Failed _ -> bump' (fun c -> { c with failed = c.failed + 1 }))
    t.records;
  List.iter
    (fun conv ->
      bump conv.conv_profile (fun c ->
          let c =
            { c with class_displaced_bytes = c.class_displaced_bytes +. conv.displaced_bytes }
          in
          if conv.to_compute then { c with to_compute = c.to_compute + 1 }
          else { c with to_memory = c.to_memory + 1 }))
    t.conversions;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---------- per-SLO-class / per-tenant breakdown ---------- *)

type slo_counts = {
  slo_requests : int;
  slo_served : int;  (** completed + degraded-but-answered *)
  slo_shed : int;  (** admission sheds + queue-overflow rejections *)
  slo_failed : int;
  slo_p50_us : float;  (** latency over this class's served requests; 0 if none *)
  slo_p99_us : float;
}

let us_of_ps ps = float_of_int ps /. float_of_int Time_base.ps_per_us

let group_counts key_of t =
  let table = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let key = key_of r in
      let reqs, srv, shd, fld, lats =
        Option.value ~default:(0, 0, 0, 0, []) (Hashtbl.find_opt table key)
      in
      let srv, lats =
        if served r then (srv + 1, us_of_ps (latency_ps r) :: lats) else (srv, lats)
      in
      let shd = if shed r then shd + 1 else shd in
      let fld = match r.outcome with Failed _ -> fld + 1 | _ -> fld in
      Hashtbl.replace table key (reqs + 1, srv, shd, fld, lats))
    t.records;
  Hashtbl.fold
    (fun key (reqs, srv, shd, fld, lats) acc ->
      ( key,
        {
          slo_requests = reqs;
          slo_served = srv;
          slo_shed = shd;
          slo_failed = fld;
          slo_p50_us = (if lats = [] then 0.0 else Stats.percentile lats ~p:50.0);
          slo_p99_us = (if lats = [] then 0.0 else Stats.percentile lats ~p:99.0);
        } )
      :: acc)
    table []

let slo_summary t =
  group_counts (fun r -> r.request.Trace.slo) t
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let tenant_summary t =
  group_counts (fun r -> r.request.Trace.tenant) t
  |> List.sort (fun (a, _) (b, _) -> compare a b)

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
  w_slo_served : (Trace.slo * int) list;
  w_slo_shed : (Trace.slo * int) list;
}

(* Accumulator for one window; records land by finish time, arrivals
   by arrival time, so a long-latency request counts as an arrival in
   an earlier window than its service. *)
type window_acc = {
  mutable a_arrivals : int;
  mutable a_served : int;
  mutable a_shed : int;
  mutable a_lats : float list;
  mutable a_max_depth : int;
  a_slo_served : (Trace.slo, int) Hashtbl.t;
  a_slo_shed : (Trace.slo, int) Hashtbl.t;
}

let new_acc () =
  {
    a_arrivals = 0;
    a_served = 0;
    a_shed = 0;
    a_lats = [];
    a_max_depth = 0;
    a_slo_served = Hashtbl.create 4;
    a_slo_shed = Hashtbl.create 4;
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

let window_of_acc ~window_ps idx (a : window_acc) =
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
    w_p50_us = (if a.a_lats = [] then 0.0 else Stats.percentile a.a_lats ~p:50.0);
    w_p99_us = (if a.a_lats = [] then 0.0 else Stats.percentile a.a_lats ~p:99.0);
    w_throughput_rps =
      float_of_int a.a_served /. (float_of_int window_ps /. 1e12);
    w_max_depth = a.a_max_depth;
    w_slo_served = slo_list a.a_slo_served;
    w_slo_shed = slo_list a.a_slo_shed;
  }

let windows ?(window_us = 10_000.0) t =
  if window_us <= 0.0 then invalid_arg "Telemetry.windows: window_us must be positive";
  let window_ps = max 1 (int_of_float (window_us *. float_of_int Time_base.ps_per_us)) in
  let accs : (int, window_acc) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let arr = acc_window accs window_ps r.request.Trace.arrival_ps in
      arr.a_arrivals <- arr.a_arrivals + 1;
      arr.a_max_depth <- max arr.a_max_depth r.queue_depth;
      let fin = acc_window accs window_ps r.finish_ps in
      if served r then begin
        fin.a_served <- fin.a_served + 1;
        fin.a_lats <- us_of_ps (latency_ps r) :: fin.a_lats;
        bump_slo fin.a_slo_served r.request.Trace.slo
      end
      else if shed r then begin
        fin.a_shed <- fin.a_shed + 1;
        bump_slo fin.a_slo_shed r.request.Trace.slo
      end)
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
    (slo_part "served" w.w_slo_served)
    (slo_part "shed" w.w_slo_shed)

(* Live observer: fold records into the current window's accumulator
   and emit the formatted line as soon as a record lands past the
   window's end. Records arrive in dispatch-wave order, which is only
   approximately time order, so stragglers for an already-emitted
   window are folded into the live one instead of reopening the past. *)
let live_view ?(window_us = 10_000.0) ~emit () =
  if window_us <= 0.0 then invalid_arg "Telemetry.live_view: window_us must be positive";
  let window_ps = max 1 (int_of_float (window_us *. float_of_int Time_base.ps_per_us)) in
  let current = ref 0 in
  let acc = ref (new_acc ()) in
  let flush upto =
    while !current < upto do
      if !acc.a_arrivals + !acc.a_served + !acc.a_shed > 0 then
        emit (format_window (window_of_acc ~window_ps !current !acc));
      acc := new_acc ();
      incr current
    done
  in
  fun (r : record) ->
    flush (max 0 r.finish_ps / window_ps);
    let a = !acc in
    a.a_arrivals <- a.a_arrivals + 1;
    a.a_max_depth <- max a.a_max_depth r.queue_depth;
    if served r then begin
      a.a_served <- a.a_served + 1;
      a.a_lats <- us_of_ps (latency_ps r) :: a.a_lats;
      bump_slo a.a_slo_served r.request.Trace.slo
    end
    else if shed r then begin
      a.a_shed <- a.a_shed + 1;
      bump_slo a.a_slo_shed r.request.Trace.slo
    end

let served_latencies_us ?profile t =
  List.filter_map
    (fun r ->
      let keep =
        match profile with None -> true | Some p -> profile_bucket r = p
      in
      match r.outcome with
      | (Completed | Cpu_fallback | Recovered_host) when keep ->
          Some (float_of_int (latency_ps r) /. float_of_int Time_base.ps_per_us)
      | _ -> None)
    t.records

let latency_percentile ?profile t ~p =
  match served_latencies_us ?profile t with [] -> None | xs -> Some (Stats.percentile xs ~p)

let mean_latency_us ?profile t =
  match served_latencies_us ?profile t with [] -> None | xs -> Some (Stats.mean xs)

let max_queue_depth t = List.fold_left (fun acc (_, d) -> max acc d) 0 t.depth_samples

(* ---------- Chrome trace events ---------- *)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

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
  (* one closing instant event carrying the per-outcome counters, so a
     trace viewer shows the run's totals without the JSON report *)
  let s = summary t in
  let last_finish = List.fold_left (fun acc r -> max acc r.finish_ps) 0 t.records in
  event
    {|{"name":"outcome-summary","ph":"i","ts":%.3f,"pid":1,"tid":0,"s":"g","args":{"requests":%d,"completed":%d,"completed_after_retry":%d,"cpu_fallbacks":%d,"recovered_host":%d,"rejected":%d,"shed_rate_limited":%d,"shed_load":%d,"failed":%d,"detected_corruptions":%d,"served_tuned":%d,"conversions_to_compute":%d,"conversions_to_memory":%d}}|}
    (us_of_ps last_finish) s.requests s.completed s.completed_after_retry s.cpu_fallbacks
    s.recovered_host s.rejected s.shed_rate_limited s.shed_load s.failed
    s.detected_corruptions s.served_tuned s.conversions_to_compute s.conversions_to_memory;
  (* and one per device class, so mixed-fleet runs are debuggable from
     the trace alone *)
  List.iter
    (fun (profile, (c : class_counts)) ->
      event
        {|{"name":"class-summary %s","ph":"i","ts":%.3f,"pid":1,"tid":0,"s":"g","args":{"served":%d,"recovered":%d,"cpu_fallbacks":%d,"rejected":%d,"shed":%d,"failed":%d,"retries_against":%d,"conversions_to_compute":%d,"conversions_to_memory":%d,"write_bytes":%d,"displaced_mem_bytes":%.0f}}|}
        (escape profile) (us_of_ps last_finish) c.served c.recovered c.fallbacks c.rejected
        c.shed c.failed c.retries_against c.to_compute c.to_memory c.class_write_bytes
        c.class_displaced_bytes)
    (class_summary t);
  (* and one per SLO class, mirroring the per-class shed/served
     accounting the admission layer is judged by *)
  List.iter
    (fun (slo, (c : slo_counts)) ->
      event
        {|{"name":"slo-summary %s","ph":"i","ts":%.3f,"pid":1,"tid":0,"s":"g","args":{"requests":%d,"served":%d,"shed":%d,"failed":%d,"p50_us":%.3f,"p99_us":%.3f}}|}
        (Trace.slo_name slo) (us_of_ps last_finish) c.slo_requests c.slo_served c.slo_shed
        c.slo_failed c.slo_p50_us c.slo_p99_us)
    (slo_summary t);
  Buffer.add_string b "]\n";
  Buffer.contents b

let write_chrome_trace t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_trace t))
