module Platform = Tdo_runtime.Platform
module Flow = Tdo_cim.Flow
module Interp = Tdo_lang.Interp
module Kernels = Tdo_polybench.Kernels
module Mat = Tdo_linalg.Mat
module Pool = Tdo_util.Pool
module Time_base = Tdo_sim.Time_base
module Backend = Tdo_backend.Backend
module Offload = Tdo_tactics.Offload
module Cost_model = Tdo_tune.Cost_model

type recovery = { max_attempts : int; quarantine_after : int }

let default_recovery = { max_attempts = 3; quarantine_after = 2 }

type config = {
  devices : int;
  fleet : Backend.profile list option;
  platform_config : Platform.config;
  options : Flow.options;
  cache_capacity : int;
  queue_capacity : int;
  max_batch : int;
  dispatch_overhead_ps : int;
  ignore_deadlines : bool;
  recovery : recovery;
  device_seed : int;
  on_device_create : (Device.t -> unit) option;
  tuning : Tdo_tune.Db.t option;
  admission : Admission.policy option;
  calibrate_after : int option;
  on_record : (Telemetry.record -> unit) option;
  graphs : (string * Kernels.benchmark) list;
  graph_residency : bool;
}

let default_config =
  {
    devices = 4;
    fleet = None;
    platform_config = Platform.default_config;
    options = Flow.o3_loop_tactics;
    cache_capacity = 64;
    queue_capacity = 256;
    max_batch = 8;
    dispatch_overhead_ps = 5 * Time_base.ps_per_us;
    ignore_deadlines = false;
    recovery = default_recovery;
    device_seed = 0;
    on_device_create = None;
    tuning = None;
    admission = None;
    calibrate_after = None;
    on_record = None;
    graphs = [];
    graph_residency = true;
  }

(* Dual-mode policy: a memory-mode dual tile becomes eligible for
   placement once more than [draft_queue_depth] items are queued, and a
   drafted tile that has idled [revert_idle_ps] with nothing queued
   hands its capacity back to the memory role. *)
let draft_queue_depth = 2
let revert_idle_ps = 200 * Time_base.ps_per_us

let golden_config ?(profile = Backend.pcm) c =
  {
    c with
    devices = 1;
    (* the oracle serves everything on one always-compute device of the
       class under test: a dual profile is pinned to its compute role so
       conversion policy cannot perturb the reference *)
    fleet = Some [ { profile with Backend.dual_mode = false } ];
    max_batch = 1;
    queue_capacity = 0;
    ignore_deadlines = true;
    (* the oracle device is pristine: no injected faults *)
    on_device_create = None;
    (* the oracle serves every request with the prior cost model, so
       admission, online calibration and live observation cannot change
       what it computes *)
    admission = None;
    calibrate_after = None;
    on_record = None;
    (* the oracle re-programs every request from scratch: a divergence
       of zero against it is the proof that weight residency changed
       nothing but the programming traffic *)
    graph_residency = false;
  }

type device_report = {
  dev_id : int;
  dev_profile : string;
  dev_class : string;
  dev_wear : Device.wear;
  dev_served : int;
  dev_energy_j : float;
  dev_conversions : int * int;  (** (to compute, to memory) *)
  dev_displaced_bytes : float;  (** memory-role traffic forgone while drafted *)
}

type report = {
  trace : Trace.t;
  config : config;
  telemetry : Telemetry.t;
  cache : Kernel_cache.stats;
  devices : device_report list;
  quarantined : int list;
  makespan_ps : int;
  wall_s : float;
  calibrations : (string * int * float) list;
      (** (class, samples fitted over, mean relative error) per online
          cost-model calibration that was adopted *)
}

(* ---------- output checksums ---------- *)

(* The digest covers, per matrix, "<rows>x<cols>;" and then each
   element's IEEE bits as 8 little-endian bytes in row-major order. The
   input is laid out in one exactly-sized buffer, written from the flat
   data: passing each element through a closure or a non-inlined
   [Buffer] call would box it. *)
let checksum_of_mats mats =
  let headers = List.map (fun m -> Printf.sprintf "%dx%d;" (Mat.rows m) (Mat.cols m)) mats in
  let len =
    List.fold_left2
      (fun acc h m -> acc + String.length h + (8 * Array.length (Mat.data m)))
      0 headers mats
  in
  let b = Bytes.create len in
  let _ : int =
    List.fold_left2
      (fun pos h m ->
        Bytes.blit_string h 0 b pos (String.length h);
        let pos = pos + String.length h in
        let data = Mat.data m in
        for k = 0 to Array.length data - 1 do
          Bytes.set_int64_le b (pos + (8 * k)) (Int64.bits_of_float (Array.unsafe_get data k))
        done;
        pos + (8 * Array.length data))
      0 headers mats
  in
  Digest.to_hex (Digest.bytes b)

let output_checksum = checksum_of_mats

(* ---------- replay ---------- *)

(* Intrusive doubly-linked FIFO. The golden oracles replay the open-loop
   load traces with an unbounded queue, so the backlog under the 6x
   overload pattern reaches ~10^5 items; a [list ref] queue made every
   append, length and removal O(n) and the whole oracle replay
   quadratic. Here push/pop/remove/length are O(1); traversals cost one
   pass per scan. *)
module Dll = struct
  type 'a node = {
    value : 'a;
    mutable prev : 'a node option;
    mutable next : 'a node option;
    mutable linked : bool;
  }

  type 'a t = {
    mutable first : 'a node option;
    mutable last : 'a node option;
    mutable len : int;
  }

  let create () = { first = None; last = None; len = 0 }
  let length t = t.len
  let is_empty t = t.len = 0
  let first t = t.first

  let push_back t v =
    let n = { value = v; prev = t.last; next = None; linked = true } in
    (match t.last with Some l -> l.next <- Some n | None -> t.first <- Some n);
    t.last <- Some n;
    t.len <- t.len + 1

  let push_front t v =
    let n = { value = v; prev = None; next = t.first; linked = true } in
    (match t.first with Some f -> f.prev <- Some n | None -> t.last <- Some n);
    t.first <- Some n;
    t.len <- t.len + 1

  let remove t n =
    if n.linked then begin
      (match n.prev with Some p -> p.next <- n.next | None -> t.first <- n.next);
      (match n.next with Some s -> s.prev <- n.prev | None -> t.last <- n.prev);
      n.prev <- None;
      n.next <- None;
      n.linked <- false;
      t.len <- t.len - 1
    end

  (* first node whose value satisfies [p], in queue order *)
  let find_node t p =
    let rec go = function
      | None -> None
      | Some n -> if p n.value then Some n else go n.next
    in
    go t.first

  let to_list t =
    let rec go acc = function
      | None -> List.rev acc
      | Some n -> go (n.value :: acc) n.next
    in
    go [] t.first

  let clear t =
    let rec unlink = function
      | None -> ()
      | Some n ->
          let next = n.next in
          n.prev <- None;
          n.next <- None;
          n.linked <- false;
          unlink next
    in
    unlink t.first;
    t.first <- None;
    t.last <- None;
    t.len <- 0
end

type queued = {
  req : Trace.request;
  depth : int;  (** queue depth seen at admission *)
  attempts : int;  (** device attempts discarded after a detected corruption *)
  tried : int list;  (** devices that returned a corrupt result for this request *)
}

type batch = {
  dev : Device.t;
  batch_id : int;
  start_ps : int;  (** dispatch time + launch overhead + any conversion charge *)
  cache_hit : bool;
  bench : Kernels.benchmark;
  entry : Kernel_cache.entry;
  residency : string option;
      (** graph-scope residency key — (compiled entry, tenant) — every
          item of the batch runs under; graph batches are single-tenant
          by construction *)
  plan : Offload.plan option;
      (** the offload plan placement priced the batch by: what its
          calibration samples are fitted against *)
  items : queued list;
}

(* Placement's estimate of one (kernel, n) on one device class: the
   offload plan of the entry the class runs ([None] when the class
   cannot compile the kernel), that entry's key, and the plan priced by
   the class's current cost model. The plan and key are fixed for the
   replay; calibration re-prices them. [keys] are the residency keys of
   [entry_key] for the tenants placement asked about, each built once. *)
type estimate = {
  plan : Offload.plan option;
  entry_key : string;
  mutable cold_ps : float;
  mutable resident_ps : float;
  mutable keys : (int * string) list;
}

(* The estimate memo's key. A lookup fills the scheduler's one probe
   key in place, so a hit builds no tuple. *)
type estimate_key = {
  mutable kernel : string;
  mutable size : int;
  mutable cls : Backend.device_class;
}

module Estimates = Hashtbl.Make (struct
  type t = estimate_key

  let equal a b = a.size = b.size && a.cls = b.cls && String.equal a.kernel b.kernel
  let hash (k : t) = Hashtbl.hash k
end)

(* What one batch item produced. A corrupt attempt consumed device time
   but its outputs are discarded; the scheduler (not the worker) decides
   retry / quarantine / host degradation, because those touch shared
   pool state. *)
type exec_result =
  | Recorded of Telemetry.record
  | Corrupt of { item : queued; fault : (int * (int * int * int * int)) option }

(* The two shapes of a record. [host_record]: a request that never
   reached a device — shed, rejected, failed before placement, or
   answered by the host interpreter. [batch_record]: one item of a
   batch, with [profile] built once per batch. *)
let host_record (r : Trace.request) outcome ~depth ~start_ps ~service_ps ~retries ~checksum =
  {
    Telemetry.request = r;
    outcome;
    device = None;
    profile = None;
    batch = None;
    cache_hit = false;
    queue_depth = depth;
    start_ps;
    finish_ps = start_ps + service_ps;
    service_ps;
    retries;
    tuned = false;
    write_bytes = 0;
    checksum;
  }

let batch_record (b : batch) ~profile item outcome ~start_ps ~service_ps ~write_bytes ~checksum =
  {
    Telemetry.request = item.req;
    outcome;
    device = Some (Device.id b.dev);
    profile;
    batch = Some b.batch_id;
    cache_hit = b.cache_hit;
    queue_depth = item.depth;
    start_ps;
    finish_ps = start_ps + service_ps;
    service_ps;
    retries = item.attempts;
    tuned = b.entry.Kernel_cache.tuned;
    write_bytes;
    checksum;
  }

(* Runs on a worker domain: touches only its own device, the immutable
   compiled entry, and per-request data derived from the seed. *)
let execute_batch (b : batch) =
  let profile = Some (Device.profile b.dev).Backend.name in
  let cursor = ref b.start_ps in
  let results =
    List.map
      (fun item ->
        let r = item.req in
        let args, readback = b.bench.Kernels.make_args ~n:r.Trace.n ~seed:r.Trace.seed in
        match
          match Device.device_class b.dev with
          | Backend.Host_blas ->
              Device.run_host b.dev ~ast:b.entry.Kernel_cache.ast ~args
                ~macs:(b.bench.Kernels.macs ~n:r.Trace.n)
          | Backend.Pcm_crossbar | Backend.Digital_tile ->
              Device.run ?residency:b.residency b.dev b.entry.Kernel_cache.compiled ~args
        with
        | stats ->
            let start_ps = !cursor in
            let service_ps = stats.Device.service_ps in
            cursor := start_ps + service_ps;
            if stats.Device.abft_mismatches > 0 then
              Corrupt { item; fault = stats.Device.abft_fault }
            else
              Recorded
                (batch_record b ~profile item Telemetry.Completed ~start_ps ~service_ps
                   ~write_bytes:stats.Device.write_bytes
                   ~checksum:(Some (checksum_of_mats (readback ()))))
        | exception Tdo_ir.Exec.Exec_error msg ->
            Recorded
              (batch_record b ~profile item (Telemetry.Failed msg) ~start_ps:!cursor ~service_ps:0
                 ~write_bytes:0 ~checksum:None))
      b.items
  in
  Device.set_available_ps b.dev !cursor;
  results

(* One device class's online calibration: measured (plan, cycles)
   samples, newest first, until the class has [calibrate_after] of
   them; then one fit, adopted only when it beats the hand-priced prior
   on its own samples (never worse). *)
type fit = Sampling | Kept_prior | Adopted of Cost_model.t
type calibration = { mutable samples : Cost_model.sample list; mutable fit : fit }

(* The steppable core's whole state. The clock is [now]; [settled]
   says the loop body has run at [now] until a wave found nothing more
   to do, so the next step is a clock move — kept across [advance]
   calls so a resumed core never re-runs a finished instant. *)
type t = {
  config : config;
  devices : Device.t array;
  corruptions : int array;  (** detected corruptions per device *)
  cache : Kernel_cache.t;
  telemetry : Telemetry.t;
  admission : Admission.t option;
  arrivals : Trace.request Queue.t;  (** submitted, not yet admitted, in submission order *)
  queue : queued Dll.t;
  programs : (string * int, (Kernel_cache.parsed, string) result) Hashtbl.t;
      (** the parsed program per (request kernel name, n), or its
          front-end error: built once, not on every estimate, dispatch
          and fallback *)
  benches : (string, (Kernels.benchmark, string) result) Hashtbl.t;
      (** what each requested kernel name resolves to *)
  estimates : estimate Estimates.t;
  probe : estimate_key;  (** the key every estimate lookup fills in *)
  calibration : (Backend.device_class, calibration) Hashtbl.t;
      (** per class, from its first sample; samples accumulate in
          wave-fold order, which is fixed before execution, so
          calibration keeps the parallel==sequential determinism *)
  started : float;  (** wall clock at [create] *)
  mutable calibrations : (string * int * float) list;  (** adopted fits, newest first *)
  mutable now : int;
  mutable next_batch : int;
  mutable has_deadlines : bool;
  mutable settled : bool;
}

(* ---------- building the core ---------- *)

let make_device config fleet id =
  let d =
    Device.create ~platform_config:config.platform_config ~seed:(config.device_seed + id)
      ~backend:fleet.(id) ~id ()
  in
  Option.iter (fun f -> f d) config.on_device_create;
  d

(* One clamp geometry per class present in the fleet (the class
   profiles reshape latencies, not the crossbar footprint). *)
let class_geometries config fleet =
  let xbar = config.platform_config.Platform.engine.Tdo_cimacc.Micro_engine.xbar in
  let geometry = (xbar.Tdo_pcm.Crossbar.rows, xbar.Tdo_pcm.Crossbar.cols) in
  Array.to_list fleet
  |> List.map (fun (p : Backend.profile) -> p.Backend.cls)
  |> List.sort_uniq compare
  |> List.map (fun cls -> (cls, geometry))

(* A pinned claim must not outlive the compiled entry backing it:
   eviction drops any device residency derived from the evicted key. *)
let drop_residency devices key =
  Array.iter
    (fun d ->
      match Device.resident d with
      | Some rk when String.starts_with ~prefix:key rk -> Device.clear_resident d
      | Some _ | None -> ())
    devices

let create ?(config = default_config) () =
  let fleet =
    match config.fleet with
    | Some (_ :: _ as profiles) -> Array.of_list profiles
    | Some [] -> invalid_arg "Scheduler.create: empty fleet"
    | None ->
        if config.devices < 1 then invalid_arg "Scheduler.create: need at least one device";
        Array.make config.devices Backend.pcm
  in
  if config.max_batch < 1 then invalid_arg "Scheduler.create: max_batch must be >= 1";
  if config.recovery.max_attempts < 1 then
    invalid_arg "Scheduler.create: recovery.max_attempts must be >= 1";
  let started = Unix.gettimeofday () in
  let devices = Array.init (Array.length fleet) (make_device config fleet) in
  let cache =
    Kernel_cache.create ~capacity:config.cache_capacity ~options:config.options
      ?tuning:config.tuning ~geometries:(class_geometries config fleet)
      ~on_evict:(drop_residency devices) ()
  in
  let telemetry = Telemetry.create ?observer:config.on_record () in
  let admission = Option.map Admission.create config.admission in
  {
    config;
    devices;
    corruptions = Array.make (Array.length devices) 0;
    cache;
    telemetry;
    admission;
    arrivals = Queue.create ();
    queue = Dll.create ();
    programs = Hashtbl.create 16;
    benches = Hashtbl.create 16;
    estimates = Estimates.create 64;
    probe = { kernel = ""; size = 0; cls = Backend.Pcm_crossbar };
    calibration = Hashtbl.create 4;
    started;
    calibrations = [];
    now = 0;
    next_batch = 0;
    has_deadlines = false;
    settled = false;
  }

(* ---------- kernels and records ---------- *)

(* A serving kernel name resolves to a registered graph program first,
   then to the PolyBench suite. Memoised: placement asks once per
   queued item and device, and a hit allocates nothing. *)
let find_bench (t : t) name =
  match Hashtbl.find t.benches name with
  | found -> found
  | exception Not_found ->
      let found =
        match List.assoc_opt name t.config.graphs with
        | Some bench -> Ok bench
        | None -> Kernels.find name
      in
      Hashtbl.add t.benches name found;
      found

let is_graph_kernel (t : t) name = List.mem_assoc name t.config.graphs

(* Graph-residency rules: a graph kernel served with [graph_residency]
   on latches its (entry, tenant) key on the device that runs it. *)
let graph_scoped (t : t) (bench : Kernels.benchmark) =
  t.config.graph_residency && is_graph_kernel t bench.Kernels.name

(* The compiled entry scopes a residency key to the model's exact
   program, the tenant scopes it as isolation policy. *)
let residency_key ~entry_key ~tenant = entry_key ^ "#t" ^ string_of_int tenant

let program (t : t) ~kernel (bench : Kernels.benchmark) ~n =
  let key = (kernel, n) in
  match Hashtbl.find_opt t.programs key with
  | Some p -> p
  | None ->
      let p =
        match Kernel_cache.parse (bench.Kernels.source ~n) with
        | p -> Ok p
        | exception e -> Error (Printexc.to_string e)
      in
      Hashtbl.add t.programs key p;
      p

let record_failed (t : t) (r : Trace.request) depth msg =
  Telemetry.record t.telemetry
    (host_record r (Telemetry.Failed msg) ~depth ~start_ps:t.now ~service_ps:0 ~retries:0
       ~checksum:None)

let record_dropped (t : t) (r : Trace.request) outcome =
  Telemetry.record t.telemetry
    (host_record r outcome ~depth:(Dll.length t.queue) ~start_ps:r.Trace.arrival_ps ~service_ps:0
       ~retries:0 ~checksum:None)

(* Host-interpreter execution: deadline degradation ([Cpu_fallback])
   and the terminal recovery policy ([Recovered_host]) share this
   path — exact results, modelled latency. *)
let run_fallback (t : t) outcome item =
  let r = item.req in
  match
    Result.bind (find_bench t r.Trace.kernel) (fun bench ->
        Result.map (fun p -> (bench, p)) (program t ~kernel:r.Trace.kernel bench ~n:r.Trace.n))
  with
  | Error msg -> record_failed t r item.depth msg
  | Ok (bench, p) -> (
      match
        let args, readback = bench.Kernels.make_args ~n:r.Trace.n ~seed:r.Trace.seed in
        Interp.run p.Kernel_cache.ast ~args;
        (readback (), bench.Kernels.macs ~n:r.Trace.n)
      with
      | mats, macs ->
          Telemetry.record t.telemetry
            (host_record r outcome ~depth:item.depth ~start_ps:t.now
               ~service_ps:(Backend.host.Backend.cpu_ps_per_mac * macs) ~retries:item.attempts
               ~checksum:(Some (checksum_of_mats mats)))
      | exception e -> record_failed t r item.depth (Printexc.to_string e))

(* ---------- admission and deadlines ---------- *)

(* Admission verdict for one arrival: the policy's SLO-tiered load
   shedding and per-tenant token buckets first (both judged at the
   arrival timestamp), so under overload best-effort traffic is shed
   well before interactive traffic. A policy load-sheds every class at
   a full queue, interactive included, so the hard queue bound below
   ([Rejected_overloaded]) only fires when no policy is set. *)
let admit (t : t) (r : Trace.request) =
  match
    match t.admission with
    | None -> Admission.Admit
    | Some adm ->
        Admission.admit adm ~now_ps:r.Trace.arrival_ps ~queue_len:(Dll.length t.queue)
          ~capacity:t.config.queue_capacity r
  with
  | Admission.Shed_rate -> record_dropped t r (Telemetry.Shed Telemetry.Rate_limited)
  | Admission.Shed_load -> record_dropped t r (Telemetry.Shed Telemetry.Load_shed)
  | Admission.Admit ->
      if t.config.queue_capacity > 0 && Dll.length t.queue >= t.config.queue_capacity then
        record_dropped t r Telemetry.Rejected_overloaded
      else Dll.push_back t.queue { req = r; depth = Dll.length t.queue; attempts = 0; tried = [] }

let rec admit_due (t : t) =
  match Queue.peek_opt t.arrivals with
  | Some (r : Trace.request) when r.Trace.arrival_ps <= t.now ->
      ignore (Queue.pop t.arrivals : Trace.request);
      admit t r;
      Telemetry.sample_queue_depth t.telemetry ~at_ps:r.Trace.arrival_ps
        ~depth:(Dll.length t.queue);
      admit_due t
  | _ -> ()

let cull_expired (t : t) =
  if (not t.config.ignore_deadlines) && t.has_deadlines then
    let rec go = function
      | None -> ()
      | Some n ->
          let next = n.Dll.next in
          let it = n.Dll.value in
          (match it.req.Trace.deadline_ps with
          | Some d when t.now - it.req.Trace.arrival_ps > d ->
              Dll.remove t.queue n;
              run_fallback t Telemetry.Cpu_fallback it
          | _ -> ());
          go next
    in
    go (Dll.first t.queue)

(* ---------- placement rules ---------- *)

(* Whether a device can take work at all, and whether it may take
   [item]: in rotation (not quarantined) and not one that already
   returned a corrupt result for it. *)
let in_rotation d = not (Device.is_quarantined d)
let untried item d = in_rotation d && not (List.mem (Device.id d) item.tried)

(* Dual drafting: a memory-mode dual tile may be placed on once more
   than [draft_queue_depth] items are queued, and always when no
   always-compute device is left in rotation (an all-dual fleet, or
   every plain device quarantined), so light load is still served.
   Placing on it charges its conversion latency. *)
let draft_allowed (t : t) =
  Dll.length t.queue > draft_queue_depth
  || not
       (Array.exists
          (fun d -> in_rotation d && not (Device.profile d).Backend.dual_mode)
          t.devices)

let conversion_ps d =
  if Device.mode d = Backend.Memory_mode then (Device.profile d).Backend.conversion_latency_ps
  else 0

(* Eligibility: may free device [d] take [item] in this wave? *)
let eligible ~draft item d = untried item d && (draft || Device.mode d = Backend.Compute_mode)

let model_for (t : t) cls =
  match Hashtbl.find_opt t.calibration cls with
  | Some { fit = Adopted m; _ } -> m
  | Some _ | None -> Cost_model.uncalibrated_for cls

let price (t : t) cls e =
  match e.plan with
  | None ->
      (* the class cannot compile this kernel: never preferred, but
         still placeable as a last resort so the compile error
         surfaces through the normal failure record *)
      e.cold_ps <- Float.max_float;
      e.resident_ps <- Float.max_float
  | Some plan ->
      let model = model_for t cls in
      e.cold_ps <- Cost_model.predict_cycles model plan *. Backend.ps_per_cycle;
      e.resident_ps <- Cost_model.predict_resident_cycles model plan *. Backend.ps_per_cycle

(* The estimate of [r] on [d]'s class: [cold_ps] is the predicted
   service of a cold run, [resident_ps] the predicted service with the
   weight tiles already pinned (zero programming traffic in the plan),
   and [entry_key] the cache key the class's entry compiles to — what
   residency derives from. Memoised: the compile behind a first
   estimate is shared with dispatch through the kernel cache, and the
   plan is kept for the replay. A memo hit allocates nothing. *)
let quote (t : t) (r : Trace.request) bench d =
  let cls = Device.device_class d in
  t.probe.kernel <- r.Trace.kernel;
  t.probe.size <- r.Trace.n;
  t.probe.cls <- cls;
  match Estimates.find t.estimates t.probe with
  | e -> e
  | exception Not_found ->
      let plan, entry_key =
        match program t ~kernel:r.Trace.kernel bench ~n:r.Trace.n with
        | Error _ -> (None, "")
        | Ok p -> (
            match
              let entry = Kernel_cache.find t.cache ~cls p in
              ( Offload.plan entry.Kernel_cache.options.Flow.tactics
                  entry.Kernel_cache.compiled.Flow.func,
                entry.Kernel_cache.key )
            with
            | plan, entry_key -> (Some plan, entry_key)
            | exception _ -> (None, ""))
      in
      let e = { plan; entry_key; cold_ps = 0.0; resident_ps = 0.0; keys = [] } in
      price t cls e;
      Estimates.add t.estimates { kernel = r.Trace.kernel; size = r.Trace.n; cls } e;
      e

(* [residency_key ~entry_key:e.entry_key ~tenant], looked up in
   [keys], the rest of [e.keys], and built on its first use. *)
let rec tenant_key e tenant keys =
  match keys with
  | (tenant', key) :: rest -> if tenant' = tenant then key else tenant_key e tenant rest
  | [] ->
      let key = residency_key ~entry_key:e.entry_key ~tenant in
      e.keys <- (tenant, key) :: e.keys;
      key

(* The one residency question placement asks: does [d] hold the
   (entry, tenant) key [r] latches there, under the graph-residency
   rules? [e] is [quote t r bench d]. *)
let holds (t : t) (r : Trace.request) bench d e =
  graph_scoped t bench && e.entry_key <> ""
  &&
  match Device.resident d with
  | Some key -> String.equal key (tenant_key e r.Trace.tenant e.keys)
  | None -> false

(* Does a busy device from index [i] on hold [item]'s program, with the
   wait [item] has absorbed under twice the programming it would save? *)
let rec resident_busy (t : t) item bench i =
  i < Array.length t.devices
  && ((let d = t.devices.(i) and r = item.req in
       untried item d
       && Device.available_ps d > t.now
       &&
       let e = quote t r bench d in
       holds t r bench d e
       && float_of_int (t.now - r.Trace.arrival_ps) < 2.0 *. (e.cold_ps -. e.resident_ps))
     || resident_busy t item bench (i + 1))

(* The resident wait. A graph item whose model is resident on a busy
   device prefers waiting for that device over paying a cold
   programming pass on a free one — but only while the wait it has
   already absorbed is under twice the programming it would save (the
   request breaks even at 1x; staying put also spares whichever model
   the free device would have evicted its own cold pass later).
   Bounded, so a backlogged resident device cannot starve the item.
   "Busy" is the device's own clock: a device given a batch earlier in
   this wave is taken but not busy. While [item] waits, only devices
   that hold its program may take it. *)
let waits (t : t) item bench = graph_scoped t bench && resident_busy t item bench 0

(* May [d] take [item] in this wave: is it eligible and, while the item
   [waiting] under the resident wait, does it hold the item's program? *)
let allowed (t : t) ~draft item bench ~waiting d =
  eligible ~draft item d && ((not waiting) || holds t item.req bench d (quote t item.req bench d))

let rec any_eligible ~draft item = function
  | [] -> false
  | d :: rest -> eligible ~draft item d || any_eligible ~draft item rest

let rec any_allowed (t : t) ~draft item bench ~waiting = function
  | [] -> false
  | d :: rest ->
      allowed t ~draft item bench ~waiting d || any_allowed t ~draft item bench ~waiting rest

(* The device placement ranks first among the [free] ones [item] may
   take. Lower is better: the class estimate — the resident one on a
   device that holds the request's program — plus the conversion charge
   if the device must first be drafted out of its memory role. Ties
   break to the least-written device, then the lowest id, then the
   earlier in [free]. The best score so far lives in locals, so ranking
   builds no score. *)
let cheapest (t : t) ~draft item bench ~waiting free =
  let r = item.req in
  let found = ref false and best = ref (List.hd free) in
  let best_ps = ref 0.0 and best_pressure = ref 0 and best_id = ref 0 in
  let rest = ref free in
  while !rest != [] do
    match !rest with
    | [] -> ()
    | d :: tl ->
        rest := tl;
        if allowed t ~draft item bench ~waiting d then begin
          let e = quote t r bench d in
          let ps =
            (if holds t r bench d e then e.resident_ps else e.cold_ps)
            +. float_of_int (conversion_ps d)
          in
          let pressure = Device.write_pressure d and id = Device.id d in
          let keeps_best =
            !found
            && (!best_ps < ps
               || !best_ps = ps
                  && (!best_pressure < pressure || (!best_pressure = pressure && !best_id <= id)))
          in
          if not keeps_best then begin
            found := true;
            best := d;
            best_ps := ps;
            best_pressure := pressure;
            best_id := id
          end
        end
  done;
  !best

(* ---------- one wave: decide, apply, execute, settle ---------- *)

type decision =
  | Drop of queued Dll.node * string  (** unknown kernel: no device can help *)
  | Place of {
      node : queued Dll.node;  (** the head of the batch *)
      bench : Kernels.benchmark;
      dev : Device.t;
      misses : int;  (** kernel-cache misses before scoring *)
    }

(* The resident wait may compile estimates: ask it only when some
   device is eligible at all. *)
let placeable (t : t) ~free ~draft item =
  any_eligible ~draft item free
  &&
  match find_bench t item.req.Trace.kernel with
  | Ok bench when waits t item bench -> any_allowed t ~draft item bench ~waiting:true free
  | Ok _ | Error _ -> true

(* The next placement, head of queue first: the first queued item some
   free device may take, on the cheapest such device. It changes
   neither the queue nor the devices; scoring may fill the estimate
   memo, and a compile behind a first estimate after [misses] is read
   makes the batch a cache miss. *)
let decide (t : t) ~free =
  if free = [] then None
  else
    let draft = draft_allowed t in
    match Dll.find_node t.queue (placeable t ~free ~draft) with
    | None -> None
    | Some node -> (
        let item = node.Dll.value in
        let r = item.req in
        match find_bench t r.Trace.kernel with
        | Error msg -> Some (Drop (node, msg))
        | Ok bench ->
            let misses = Kernel_cache.misses t.cache in
            let waiting = waits t item bench in
            Some (Place { node; bench; dev = cheapest t ~draft item bench ~waiting free; misses }))

(* Pop [node] and, unless it is a retry (dispatched alone, so its
   timing is not entangled with fresh requests) or batching is off,
   coalesce fresh queued requests sharing its (kernel, n) up to
   [max_batch]: one compile, one launch, back-to-back execution on one
   device. Graph batches stay single-tenant: one residency key per
   batch, and cross-tenant weight reuse is never even formable. *)
let pop_batch (t : t) node =
  let item = node.Dll.value in
  let r0 = item.req in
  Dll.remove t.queue node;
  if item.attempts > 0 || t.config.max_batch <= 1 then [ item ]
  else
    let single_tenant = is_graph_kernel t r0.Trace.kernel in
    let rec scan taken count = function
      | Some m when count < t.config.max_batch ->
          let next = m.Dll.next in
          let it = m.Dll.value in
          let r = it.req in
          if
            it.attempts = 0 && it.tried = [] && r.Trace.kernel = r0.Trace.kernel
            && r.Trace.n = r0.Trace.n
            && ((not single_tenant) || r.Trace.tenant = r0.Trace.tenant)
          then begin
            Dll.remove t.queue m;
            scan (it :: taken) (count + 1) next
          end
          else scan taken count next
      | _ -> List.rev taken
    in
    scan [ item ] 1 (Dll.first t.queue)

(* Carry a decision out: pop the batch, look its entry up, draft the
   device out of its memory role if it is a dual tile there, and build
   the batch. [None] when nothing is left to execute. *)
let apply (t : t) = function
  | Drop (node, msg) ->
      Dll.remove t.queue node;
      record_failed t node.Dll.value.req node.Dll.value.depth msg;
      None
  | Place { node; bench; dev; misses } -> (
      let items = pop_batch t node in
      let r0 = node.Dll.value.req in
      match
        Result.bind (program t ~kernel:r0.Trace.kernel bench ~n:r0.Trace.n) (fun p ->
            match Kernel_cache.find t.cache ~cls:(Device.device_class dev) p with
            | entry -> Ok entry
            | exception e -> Error (Printexc.to_string e))
      with
      | Error msg ->
          List.iter (fun it -> record_failed t it.req it.depth msg) items;
          None
      | Ok entry ->
          let cache_hit = Kernel_cache.misses t.cache = misses in
          let conversion = conversion_ps dev in
          if Device.mode dev = Backend.Memory_mode then begin
            let (_ : float) = Device.convert ~at_ps:t.now dev ~to_compute:true in
            Telemetry.record_conversion t.telemetry ~at_ps:t.now ~device:(Device.id dev)
              ~profile:(Device.profile dev).Backend.name ~to_compute:true
          end;
          let residency =
            if graph_scoped t bench && Device.device_class dev <> Backend.Host_blas then
              Some (residency_key ~entry_key:entry.Kernel_cache.key ~tenant:r0.Trace.tenant)
            else None
          in
          let batch_id = t.next_batch in
          t.next_batch <- batch_id + 1;
          Some
            {
              dev;
              batch_id;
              start_ps = t.now + t.config.dispatch_overhead_ps + conversion;
              cache_hit;
              bench;
              entry;
              residency;
              plan = (quote t r0 bench dev).plan;
              items;
            })

(* Recovery policy for one corrupt attempt: count it against the
   device, quarantine the device once it crosses the threshold, then
   either requeue the request for another device or degrade it to the
   host. *)
let handle_corrupt (t : t) ~item ~dev_id ~fault requeue =
  let dev = t.devices.(dev_id) in
  t.corruptions.(dev_id) <- t.corruptions.(dev_id) + 1;
  if t.corruptions.(dev_id) >= t.config.recovery.quarantine_after && in_rotation dev then begin
    let rows =
      match fault with Some (_, (row_off, _, nrows, _)) -> (row_off, nrows) | None -> (0, 0)
    in
    Device.quarantine dev ~rows
  end;
  let item = { item with attempts = item.attempts + 1; tried = dev_id :: item.tried } in
  if item.attempts >= t.config.recovery.max_attempts || not (Array.exists (untried item) t.devices)
  then begin
    run_fallback t Telemetry.Recovered_host item;
    requeue
  end
  else item :: requeue

(* A completed cold run is one calibration sample of its class, until
   the class is fitted. *)
let note_sample (t : t) (b : batch) (r : Telemetry.record) =
  match b.plan with
  | Some plan
    when t.config.calibrate_after <> None
         && r.Telemetry.outcome = Telemetry.Completed
         && r.Telemetry.service_ps > 0 -> (
      let cls = Device.device_class b.dev in
      match Hashtbl.find_opt t.calibration cls with
      | Some { fit = Kept_prior | Adopted _; _ } -> ()
      | found -> (
          let sample =
            {
              Cost_model.plan;
              cycles = float_of_int r.Telemetry.service_ps /. Backend.ps_per_cycle;
            }
          in
          match found with
          | Some c -> c.samples <- sample :: c.samples
          | None -> Hashtbl.add t.calibration cls { samples = [ sample ]; fit = Sampling }))
  | Some _ | None -> ()

(* Fit every class that has reached [calibrate_after] samples; an
   adopted fit re-prices the class's kept plans — a plan cannot change,
   so no kernel-cache lookup is needed. *)
let maybe_calibrate (t : t) =
  match t.config.calibrate_after with
  | None -> ()
  | Some threshold ->
      Hashtbl.iter
        (fun cls c ->
          match c.fit with
          | Sampling when List.length c.samples >= threshold ->
              let fitted, err = Cost_model.calibrate c.samples in
              let prior =
                Cost_model.mean_relative_error (Cost_model.uncalibrated_for cls) c.samples
              in
              if err <= prior then begin
                c.fit <- Adopted fitted;
                t.calibrations <-
                  (Backend.class_name cls, List.length c.samples, err) :: t.calibrations;
                Estimates.iter (fun k e -> if k.cls = cls then price t cls e) t.estimates
              end
              else c.fit <- Kept_prior;
              c.samples <- []
          | Sampling | Kept_prior | Adopted _ -> ())
        t.calibration

(* Fold the wave's results, in batch order, into records, calibration
   samples and recovery; retried work goes back to the head of the
   queue so recovery runs before newer arrivals. *)
let settle (t : t) batches results =
  let requeue =
    List.fold_left2
      (fun acc (b : batch) rs ->
        List.fold_left
          (fun acc -> function
            | Recorded r ->
                Telemetry.record t.telemetry r;
                (* a warm resident run skipped its programming traffic,
                   so its measured cycles would poison a calibration
                   fitted against the full plan *)
                if Option.is_none b.residency then note_sample t b r;
                acc
            | Corrupt { item; fault } -> handle_corrupt t ~item ~dev_id:(Device.id b.dev) ~fault acc)
          acc rs)
      [] batches results
  in
  maybe_calibrate t;
  List.iter (Dll.push_front t.queue) requeue

let rec place (t : t) free batches =
  match decide t ~free with
  | None -> List.rev batches
  | Some decision -> (
      match apply t decision with
      | Some b ->
          place t (List.filter (fun d -> Device.id d <> Device.id b.dev) free) (b :: batches)
      | None -> place t free batches)

(* One wave at [now]: place batches on the free devices until no queued
   item is placeable, then execute them (on worker domains) and settle.
   Every decision — membership, placement, conversions, start times —
   is fixed before execution starts, so the results do not depend on
   how the wave is run. Whether any batch ran. *)
let wave (t : t) =
  let free =
    List.filter (fun d -> in_rotation d && Device.available_ps d <= t.now) (Array.to_list t.devices)
  in
  match place t free [] with
  | [] -> false
  | batches ->
      settle t batches (Pool.parallel_map execute_batch batches);
      true

(* ---------- the event loop ---------- *)

(* Dual-mode release: a drafted tile that has sat idle past the
   hysteresis window with nothing queued hands its capacity back to the
   memory role. *)
let release_idle_duals (t : t) =
  if Dll.is_empty t.queue then
    Array.iter
      (fun d ->
        if
          (Device.profile d).Backend.dual_mode
          && Device.mode d = Backend.Compute_mode
          && in_rotation d
          && Device.available_ps d + revert_idle_ps <= t.now
        then begin
          let displaced = Device.convert ~at_ps:t.now d ~to_compute:false in
          Telemetry.record_conversion ~displaced_bytes:displaced t.telemetry ~at_ps:t.now
            ~device:(Device.id d) ~profile:(Device.profile d).Backend.name ~to_compute:false
        end)
      t.devices

(* The next arrival, or while work is queued the next time a device
   frees up, if sooner; [max_int] when neither will happen. *)
let next_event (t : t) =
  let next_arrival =
    match Queue.peek_opt t.arrivals with None -> max_int | Some r -> r.Trace.arrival_ps
  in
  if Dll.is_empty t.queue then next_arrival
  else
    Array.fold_left
      (fun acc d ->
        let a = Device.available_ps d in
        if a > t.now then min acc a else acc)
      next_arrival t.devices

let submit (t : t) (r : Trace.request) =
  if r.Trace.deadline_ps <> None then t.has_deadlines <- true;
  Queue.push r t.arrivals

let rec advance (t : t) ~until_ps =
  if not (Queue.is_empty t.arrivals && Dll.is_empty t.queue) then
    if not t.settled then begin
      (* release before admitting: a revert is decided by the idle
         interval leading up to [now], not by whatever arrives at that
         same instant *)
      release_idle_duals t;
      admit_due t;
      cull_expired t;
      if not (wave t) then t.settled <- true;
      advance t ~until_ps
    end
    else
      let next = next_event t in
      if next = max_int then begin
        (* dead end: every queued item has exhausted the usable pool
           (e.g. all devices quarantined) and nothing else is coming —
           drain it to the host. Only a draining call knows nothing
           else is coming; a bounded one leaves the items queued. *)
        if until_ps = max_int then begin
          let stuck = Dll.to_list t.queue in
          Dll.clear t.queue;
          List.iter (run_fallback t Telemetry.Recovered_host) stuck
        end
      end
      else
        let next = max next (t.now + 1) in
        if next <= until_ps then begin
          t.now <- next;
          t.settled <- false;
          advance t ~until_ps
        end

let pending (t : t) = Queue.length t.arrivals + Dll.length t.queue
let telemetry (t : t) = t.telemetry

let device_report d =
  {
    dev_id = Device.id d;
    dev_profile = (Device.profile d).Backend.name;
    dev_class = Backend.class_name (Device.device_class d);
    dev_wear = Device.wear d;
    dev_served = Device.requests_served d;
    dev_energy_j = Device.energy_j d;
    dev_conversions = Device.conversions d;
    dev_displaced_bytes = Device.displaced_mem_bytes d;
  }

let finish (t : t) (trace : Trace.t) =
  advance t ~until_ps:max_int;
  let makespan_ps = Telemetry.last_finish_ps t.telemetry in
  (* a tile still drafted at the end of the run has displaced memory
     traffic right up to the makespan — close the interval so the
     report's displaced-bytes figure covers the whole run *)
  Array.iter
    (fun d -> ignore (Device.finalize_displacement d ~at_ps:makespan_ps : float))
    t.devices;
  {
    trace;
    config = t.config;
    telemetry = t.telemetry;
    cache = Kernel_cache.stats t.cache;
    devices = Array.to_list (Array.map device_report t.devices);
    quarantined =
      Array.to_list t.devices |> List.filter Device.is_quarantined |> List.map Device.id;
    makespan_ps;
    wall_s = Unix.gettimeofday () -. t.started;
    calibrations = List.rev t.calibrations;
  }

let replay ?config (trace : Trace.t) =
  let t = create ?config () in
  List.iter (submit t) trace.Trace.requests;
  finish t trace

(* ---------- report accessors ---------- *)

let cache_hit_rate (r : report) =
  let c = r.cache in
  let lookups = c.Kernel_cache.hits + c.Kernel_cache.misses in
  if lookups = 0 then 0.0 else float_of_int c.Kernel_cache.hits /. float_of_int lookups

let us_of_ps ps = float_of_int ps /. float_of_int Time_base.ps_per_us

let fields ?(prefix = "") (r : report) =
  let t = r.telemetry in
  let run = Telemetry.fields (Telemetry.summary t) in
  let group name fields = List.map (fun (k, v) -> (name ^ "_" ^ k, v)) fields in
  let class_energy profile =
    List.fold_left
      (fun acc d -> if d.dev_profile = profile then acc +. d.dev_energy_j else acc)
      0.0 r.devices
  in
  let makespan_s = us_of_ps r.makespan_ps /. 1e6 in
  let device d =
    let w = d.dev_wear in
    let dev k v = (Printf.sprintf "dev%d_%s" d.dev_id k, v) in
    [
      dev "requests" (float_of_int d.dev_served);
      dev "energy_j" d.dev_energy_j;
      dev "conversions_to_compute" (float_of_int (fst d.dev_conversions));
      dev "conversions_to_memory" (float_of_int (snd d.dev_conversions));
      dev "displaced_mem_bytes" d.dev_displaced_bytes;
      dev "cell_writes" (float_of_int w.Device.total_cell_writes);
      dev "max_per_cell" (float_of_int w.Device.max_per_cell);
      dev "levelled_max_per_line"
        (float_of_int w.Device.leveling.Tdo_pcm.Wear_leveling.max_per_cell);
      dev "remaps" (float_of_int w.Device.leveling.Tdo_pcm.Wear_leveling.remaps);
      dev "budget_consumed" w.Device.budget_consumed;
    ]
    @ List.concat
        (List.mapi
           (fun tile cw ->
             [
               dev (Printf.sprintf "tile%d_cell_writes" tile) (float_of_int cw);
               dev (Printf.sprintf "tile%d_write_bytes" tile)
                 (float_of_int w.Device.per_tile_write_bytes.(tile));
             ])
           (Array.to_list w.Device.per_tile_cell_writes))
  in
  List.map
    (fun (k, v) -> (prefix ^ k, v))
    (run
    @ List.concat_map
        (fun (profile, c) ->
          group ("class_" ^ profile)
            (Telemetry.fields c @ [ ("energy_j", class_energy profile) ]))
        (Telemetry.class_summary t)
    @ List.concat_map
        (fun (slo, c) -> group ("slo_" ^ Trace.slo_name slo) (Telemetry.fields c))
        (Telemetry.slo_summary t)
    @ [
        ("devices", float_of_int (List.length r.devices));
        ("quarantined_devices", float_of_int (List.length r.quarantined));
        ("cache_hits", float_of_int r.cache.Kernel_cache.hits);
        ("cache_misses", float_of_int r.cache.Kernel_cache.misses);
        ("cache_hit_rate", cache_hit_rate r);
        ("distinct_kernels", float_of_int (List.length (Trace.distinct_kernels r.trace)));
        ("max_queue_depth", float_of_int (Telemetry.max_queue_depth t));
        ("makespan_ms", us_of_ps r.makespan_ps /. 1000.0);
        ( "throughput_rps",
          if makespan_s > 0.0 then List.assoc "served" run /. makespan_s else 0.0 );
      ]
    @ List.concat_map
        (fun (cls, samples, mre) ->
          [
            ("calib_" ^ cls ^ "_samples", float_of_int samples);
            ("calib_" ^ cls ^ "_mre", mre);
          ])
        r.calibrations
    @ List.concat_map device r.devices)

(* The compute class behind a completed record: what decides whether
   two checksums are comparable. Analog and digital tiles share the
   quantised CIM numeric path but class-keyed tuned geometries may tile
   the quantisation differently, and the host computes in full
   precision — so only same-class results are expected bit-identical. *)
let record_class (r : Telemetry.record) =
  match r.Telemetry.profile with
  | None -> None
  | Some name -> (
      match Backend.of_name name with
      | Ok p -> Some p.Backend.cls
      | Error _ -> None)

type divergence = { divergent : int; compared : int }

(* A completed record's checksum and compute class, keyed by request. *)
let completed_checksum (r : Telemetry.record) =
  match (r.Telemetry.outcome, r.Telemetry.checksum, record_class r) with
  | Telemetry.Completed, Some cs, Some cls -> Some (cs, cls)
  | _ -> None

let divergence (a : report) (b : report) =
  let of_b = Hashtbl.create 256 in
  List.iter
    (fun (r : Telemetry.record) ->
      Option.iter (Hashtbl.replace of_b r.Telemetry.request.Trace.id) (completed_checksum r))
    (Telemetry.records b.telemetry);
  List.fold_left
    (fun acc (r : Telemetry.record) ->
      match (completed_checksum r, Hashtbl.find_opt of_b r.Telemetry.request.Trace.id) with
      | Some (cs, cls), Some (cs', cls') when cls' = cls ->
          {
            divergent = (if cs' <> cs then acc.divergent + 1 else acc.divergent);
            compared = acc.compared + 1;
          }
      | _ -> acc)
    { divergent = 0; compared = 0 }
    (Telemetry.records a.telemetry)
