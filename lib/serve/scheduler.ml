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
  items : queued list;
}

(* Placement's estimate of one (kernel, n) on one device class: the
   offload plan of the entry the class runs ([None] when the class
   cannot compile the kernel), that entry's key, and the plan priced by
   the class's current cost model. The plan and key are fixed for the
   replay; calibration re-prices them. *)
type estimate = {
  plan : Offload.plan option;
  entry_key : string;
  mutable cold_ps : float;
  mutable resident_ps : float;
}

(* What one batch item produced. A corrupt attempt consumed device time
   but its outputs are discarded; the scheduler (not the worker) decides
   retry / quarantine / host degradation, because those touch shared
   pool state. *)
type exec_result =
  | Recorded of Telemetry.record
  | Corrupt of {
      item : queued;
      dev_id : int;
      service_ps : int;
      fault : (int * (int * int * int * int)) option;
    }

(* Runs on a worker domain: touches only its own device, the immutable
   compiled entry, and per-request data derived from the seed. *)
let execute_batch (b : batch) =
  let profile_name = Some (Device.profile b.dev).Backend.name in
  let cursor = ref b.start_ps in
  let results =
    List.map
      (fun item ->
        let r = item.req in
        let args, readback = b.bench.Kernels.make_args ~n:r.Trace.n ~seed:r.Trace.seed in
        let exec () =
          match Device.device_class b.dev with
          | Backend.Host_blas ->
              Device.run_host b.dev ~ast:b.entry.Kernel_cache.ast ~args
                ~macs:(b.bench.Kernels.macs ~n:r.Trace.n)
          | Backend.Pcm_crossbar | Backend.Digital_tile ->
              Device.run ?residency:b.residency b.dev b.entry.Kernel_cache.compiled ~args
        in
        match exec () with
        | stats ->
            let start = !cursor in
            cursor := !cursor + stats.Device.service_ps;
            if stats.Device.abft_mismatches > 0 then
              Corrupt
                {
                  item;
                  dev_id = Device.id b.dev;
                  service_ps = stats.Device.service_ps;
                  fault = stats.Device.abft_fault;
                }
            else
              Recorded
                {
                  Telemetry.request = r;
                  outcome = Telemetry.Completed;
                  device = Some (Device.id b.dev);
                  profile = profile_name;
                  batch = Some b.batch_id;
                  cache_hit = b.cache_hit;
                  queue_depth = item.depth;
                  start_ps = start;
                  finish_ps = !cursor;
                  service_ps = stats.Device.service_ps;
                  retries = item.attempts;
                  tuned = b.entry.Kernel_cache.tuned;
                  write_bytes = stats.Device.write_bytes;
                  checksum = Some (checksum_of_mats (readback ()));
                }
        | exception Tdo_ir.Exec.Exec_error msg ->
            Recorded
              {
                Telemetry.request = r;
                outcome = Telemetry.Failed msg;
                device = Some (Device.id b.dev);
                profile = profile_name;
                batch = Some b.batch_id;
                cache_hit = b.cache_hit;
                queue_depth = item.depth;
                start_ps = !cursor;
                finish_ps = !cursor;
                service_ps = 0;
                retries = item.attempts;
                tuned = b.entry.Kernel_cache.tuned;
                write_bytes = 0;
                checksum = None;
              })
      b.items
  in
  Device.set_available_ps b.dev !cursor;
  results

(* The steppable core: the event loop's state lives in the closures
   [create] builds, and this record is their handle. *)
type t = {
  push : Trace.request -> unit;
  step : int -> unit;
  close : Trace.t -> report;
  core_telemetry : Telemetry.t;
  backlog : unit -> int;
}

let create ?(config = default_config) () =
  let fleet =
    match config.fleet with
    | Some (_ :: _ as profiles) -> Array.of_list profiles
    | Some [] -> invalid_arg "Scheduler.create: empty fleet"
    | None ->
        if config.devices < 1 then invalid_arg "Scheduler.create: need at least one device";
        Array.make config.devices Backend.pcm
  in
  let ndev = Array.length fleet in
  if config.max_batch < 1 then invalid_arg "Scheduler.create: max_batch must be >= 1";
  if config.recovery.max_attempts < 1 then
    invalid_arg "Scheduler.create: recovery.max_attempts must be >= 1";
  let t0 = Unix.gettimeofday () in
  let xbar = config.platform_config.Platform.engine.Tdo_cimacc.Micro_engine.xbar in
  let geometry = (xbar.Tdo_pcm.Crossbar.rows, xbar.Tdo_pcm.Crossbar.cols) in
  (* one clamp geometry per class present in the fleet (the class
     profiles reshape latencies, not the crossbar footprint) *)
  let classes =
    Array.to_list fleet
    |> List.map (fun (p : Backend.profile) -> p.Backend.cls)
    |> List.sort_uniq compare
  in
  let devices =
    Array.init ndev (fun id ->
        let d =
          Device.create ~platform_config:config.platform_config
            ~seed:(config.device_seed + id) ~backend:fleet.(id) ~id ()
        in
        (match config.on_device_create with Some f -> f d | None -> ());
        d)
  in
  (* Resolve a serving kernel name: registered graph programs first,
     then the PolyBench suite. *)
  let find_bench name =
    match List.assoc_opt name config.graphs with
    | Some bench -> Ok bench
    | None -> Kernels.find name
  in
  let is_graph_kernel name = List.mem_assoc name config.graphs in
  (* The parsed and type-checked program per (kernel, n), or its
     front-end error, built once rather than on every estimate,
     dispatch and fallback; [kernel] is the request's name, which
     [find_bench] maps to [bench]. *)
  let programs = Hashtbl.create 16 in
  let program ~kernel (bench : Kernels.benchmark) ~n =
    let key = (kernel, n) in
    match Hashtbl.find_opt programs key with
    | Some p -> p
    | None ->
        let p =
          match Kernel_cache.parse (bench.Kernels.source ~n) with
          | p -> Ok p
          | exception e -> Error (Printexc.to_string e)
        in
        Hashtbl.add programs key p;
        p
  in
  (* Residency key a run of [entry_key] for [tenant] latches: the
     compiled entry (digest + effective options) scopes it to the
     model's exact program, the tenant scopes it as isolation policy. *)
  let residency_key ~entry_key ~tenant = entry_key ^ "#t" ^ string_of_int tenant in
  (* A pinned claim must not outlive the compiled entry backing it:
     eviction drops any device residency derived from the evicted key. *)
  let cache =
    Kernel_cache.create ~capacity:config.cache_capacity ~options:config.options
      ?tuning:config.tuning
      ~geometries:(List.map (fun cls -> (cls, geometry)) classes)
      ~on_evict:(fun key ->
        Array.iter
          (fun d ->
            match Device.resident d with
            | Some rk when String.length rk >= String.length key
                           && String.sub rk 0 (String.length key) = key ->
                Device.clear_resident d
            | _ -> ())
          devices)
      ()
  in
  let corruptions = Array.make ndev 0 in
  let telemetry = Telemetry.create ?observer:config.on_record () in
  let admission = Option.map Admission.create config.admission in
  (* submitted, not yet admitted: consumed in submission order *)
  let arrivals : Trace.request Queue.t = Queue.create () in
  let trace_has_deadlines = ref false in
  let queue : queued Dll.t = Dll.create () in
  let now = ref 0 in
  let batch_counter = ref 0 in
  let record = Telemetry.record telemetry in
  let record_failed (r : Trace.request) depth msg =
    record
      {
        Telemetry.request = r;
        outcome = Telemetry.Failed msg;
        device = None;
        profile = None;
        batch = None;
        cache_hit = false;
        queue_depth = depth;
        start_ps = !now;
        finish_ps = !now;
        service_ps = 0;
        retries = 0;
        tuned = false;
        write_bytes = 0;
        checksum = None;
      }
  in

  let record_dropped (r : Trace.request) outcome =
    record
      {
        Telemetry.request = r;
        outcome;
        device = None;
        profile = None;
        batch = None;
        cache_hit = false;
        queue_depth = Dll.length queue;
        start_ps = r.Trace.arrival_ps;
        finish_ps = r.Trace.arrival_ps;
        service_ps = 0;
        retries = 0;
        tuned = false;
        write_bytes = 0;
        checksum = None;
      }
  in
  (* Admission verdict for one arrival: the policy's SLO-tiered load
     shedding and per-tenant token buckets first (both judged at the
     arrival timestamp), then the hard queue bound — so under overload
     best-effort traffic is shed well before interactive traffic ever
     sees a [Rejected_overloaded]. *)
  let admission_verdict (r : Trace.request) =
    match admission with
    | None -> Admission.Admit
    | Some adm ->
        Admission.admit adm ~now_ps:r.Trace.arrival_ps ~queue_len:(Dll.length queue)
          ~capacity:config.queue_capacity r
  in
  let admit_due () =
    let rec go () =
      match Queue.peek_opt arrivals with
      | Some (r : Trace.request) when r.Trace.arrival_ps <= !now ->
          ignore (Queue.pop arrivals : Trace.request);
          (match admission_verdict r with
          | Admission.Shed_rate ->
              record_dropped r (Telemetry.Shed Telemetry.Rate_limited)
          | Admission.Shed_load -> record_dropped r (Telemetry.Shed Telemetry.Load_shed)
          | Admission.Admit ->
              if config.queue_capacity > 0 && Dll.length queue >= config.queue_capacity
              then record_dropped r Telemetry.Rejected_overloaded
              else
                Dll.push_back queue
                  { req = r; depth = Dll.length queue; attempts = 0; tried = [] });
          Telemetry.sample_queue_depth telemetry ~at_ps:r.Trace.arrival_ps
            ~depth:(Dll.length queue);
          go ()
      | _ -> ()
    in
    go ()
  in

  (* Host-interpreter execution: deadline degradation ([Cpu_fallback])
     and the terminal recovery policy ([Recovered_host]) share this
     path — exact results, modelled latency. *)
  let run_fallback ?(outcome = Telemetry.Cpu_fallback) ?(retries = 0) ((r : Trace.request), depth)
      =
    match
      Result.bind (find_bench r.Trace.kernel) (fun bench ->
          Result.map (fun p -> (bench, p)) (program ~kernel:r.Trace.kernel bench ~n:r.Trace.n))
    with
    | Error msg -> record_failed r depth msg
    | Ok (bench, p) -> (
        match
          let args, readback = bench.Kernels.make_args ~n:r.Trace.n ~seed:r.Trace.seed in
          Interp.run p.Kernel_cache.ast ~args;
          (readback (), bench.Kernels.macs ~n:r.Trace.n)
        with
        | mats, macs ->
            let service_ps = Backend.host.Backend.cpu_ps_per_mac * macs in
            record
              {
                Telemetry.request = r;
                outcome;
                device = None;
                profile = None;
                batch = None;
                cache_hit = false;
                queue_depth = depth;
                start_ps = !now;
                finish_ps = !now + service_ps;
                service_ps;
                retries;
                tuned = false;
                write_bytes = 0;
                checksum = Some (checksum_of_mats mats);
              }
        | exception e -> record_failed r depth (Printexc.to_string e))
  in

  let cull_expired () =
    if (not config.ignore_deadlines) && !trace_has_deadlines then
      let rec go node =
        match node with
        | None -> ()
        | Some n ->
            let next = n.Dll.next in
            let it = n.Dll.value in
            (match it.req.Trace.deadline_ps with
            | Some d when !now > it.req.Trace.arrival_ps + d ->
                Dll.remove queue n;
                run_fallback ~retries:it.attempts (it.req, it.depth)
            | _ -> ());
            go next
      in
      go (Dll.first queue)
  in

  let pop_batch ~skip ~dev_id =
    (* The first queued item this device may take: one it has not
       already corrupted and that placement does not defer off this
       device ([skip], e.g. weight-residency items waiting for the
       device that holds their model). Skipped items stay queued, in
       order. *)
    let rec find node =
      match node with
      | None -> None
      | Some n when List.mem dev_id n.Dll.value.tried || skip n.Dll.value ->
          find n.Dll.next
      | Some n -> Some n
    in
    match find (Dll.first queue) with
    | None -> None
    | Some n ->
        let item = n.Dll.value in
        Dll.remove queue n;
        if item.attempts > 0 || config.max_batch <= 1 then
          (* retried work is dispatched alone: its timing must not be
             entangled with fresh requests *)
          Some [ item ]
        else begin
          (* coalesce fresh queued requests sharing (kernel, n): one
             compile, one launch, back-to-back execution on one device.
             Items skipped above all carry a non-empty [tried], so
             scanning from the head selects the same mates as scanning
             only past the popped item. *)
          let taken = ref [ item ] in
          let count = ref 1 in
          let rec scan node =
            if !count < config.max_batch then
              match node with
              | None -> ()
              | Some m ->
                  let next = m.Dll.next in
                  let it = m.Dll.value in
                  if
                    it.attempts = 0 && it.tried = []
                    && it.req.Trace.kernel = item.req.Trace.kernel
                    && it.req.Trace.n = item.req.Trace.n
                    (* graph batches stay single-tenant: one residency
                       key per batch, and cross-tenant weight reuse is
                       never even formable *)
                    && ((not (is_graph_kernel item.req.Trace.kernel))
                       || it.req.Trace.tenant = item.req.Trace.tenant)
                  then begin
                    Dll.remove queue m;
                    taken := it :: !taken;
                    incr count
                  end;
                  scan next
          in
          scan (Dll.first queue);
          Some (List.rev !taken)
        end
  in

  (* A fleet with no always-compute device (e.g. all dual-mode tiles,
     or every plain device quarantined) must still be able to draft a
     dual tile, or light load would never be served. *)
  let compute_role_exists () =
    Array.exists
      (fun d ->
        (not (Device.is_quarantined d))
        && not (Device.profile d).Backend.dual_mode)
      devices
  in
  let dual_draft_allowed () =
    Dll.length queue > draft_queue_depth || not (compute_role_exists ())
  in

  (* Cost-based placement: predicted service time of one request of
     this (kernel, size) on each device class, from the class's
     cost-model coefficient set over the offload plan of the entry the
     class would actually run (tuned configurations included). Memoised
     — the compile behind a first estimate is shared with dispatch
     through the kernel cache, and the plan is kept for the replay. *)
  let estimates : (string * int * Backend.device_class, estimate) Hashtbl.t =
    Hashtbl.create 64
  in
  (* Online calibration: measured (plan, cycles) samples per device
     class, fitted once a class has seen [calibrate_after] completed
     requests. The fit is adopted only when it beats the hand-priced
     prior on its own samples (never worse), and the class's kept
     plans are re-priced with the calibrated coefficients — a plan
     cannot change, so no kernel-cache lookup is needed. Samples
     accumulate in wave-fold order, which is fixed before execution —
     calibration preserves the parallel==sequential determinism
     property. *)
  let calib_samples : (Backend.device_class, Cost_model.sample list ref) Hashtbl.t =
    Hashtbl.create 4
  in
  let calibrated : (Backend.device_class, Cost_model.t) Hashtbl.t = Hashtbl.create 4 in
  let calib_done : (Backend.device_class, unit) Hashtbl.t = Hashtbl.create 4 in
  let calib_log = ref [] in
  let model_for cls =
    match Hashtbl.find_opt calibrated cls with
    | Some m -> m
    | None -> Cost_model.uncalibrated_for cls
  in
  let price cls e =
    match e.plan with
    | None ->
        (* the class cannot compile this kernel: never preferred, but
           still placeable as a last resort so the compile error
           surfaces through the normal failure record *)
        e.cold_ps <- Float.max_float;
        e.resident_ps <- Float.max_float
    | Some plan ->
        let model = model_for cls in
        e.cold_ps <- Cost_model.predict_cycles model plan *. Backend.ps_per_cycle;
        e.resident_ps <- Cost_model.predict_resident_cycles model plan *. Backend.ps_per_cycle
  in
  let note_sample (b : batch) plan (r : Telemetry.record) =
    if
      config.calibrate_after <> None
      && r.Telemetry.outcome = Telemetry.Completed
      && r.Telemetry.service_ps > 0
    then begin
      let cls = Device.device_class b.dev in
      if not (Hashtbl.mem calib_done cls) then begin
        let samples =
          match Hashtbl.find_opt calib_samples cls with
          | Some l -> l
          | None ->
              let l = ref [] in
              Hashtbl.add calib_samples cls l;
              l
        in
        samples :=
          {
            Cost_model.plan = Lazy.force plan;
            cycles = float_of_int r.Telemetry.service_ps /. Backend.ps_per_cycle;
          }
          :: !samples
      end
    end
  in
  let maybe_calibrate () =
    match config.calibrate_after with
    | None -> ()
    | Some threshold ->
        Hashtbl.iter
          (fun cls samples ->
            if (not (Hashtbl.mem calib_done cls)) && List.length !samples >= threshold then begin
              Hashtbl.add calib_done cls ();
              let fitted, err = Cost_model.calibrate !samples in
              let prior_err =
                Cost_model.mean_relative_error (Cost_model.uncalibrated_for cls) !samples
              in
              if err <= prior_err then begin
                Hashtbl.replace calibrated cls fitted;
                calib_log := (Backend.class_name cls, List.length !samples, err) :: !calib_log;
                Hashtbl.iter (fun (_, _, c) e -> if c = cls then price cls e) estimates
              end
            end)
          calib_samples
  in
  (* [cold_ps] is the predicted service of a cold run, [resident_ps]
     the predicted service with the weight tiles already pinned (zero
     programming traffic in the plan), and [entry_key] the cache key
     the class's entry compiles to — what residency keys derive from. *)
  let estimate ~cls ~kernel (bench : Kernels.benchmark) ~n =
    let key = (kernel, n, cls) in
    match Hashtbl.find_opt estimates key with
    | Some e -> e
    | None ->
        let plan, entry_key =
          match program ~kernel bench ~n with
          | Error _ -> (None, "")
          | Ok p -> (
              match
                let entry = Kernel_cache.find cache ~cls p in
                ( Offload.plan entry.Kernel_cache.options.Flow.tactics
                    entry.Kernel_cache.compiled.Flow.func,
                  entry.Kernel_cache.key )
              with
              | plan, entry_key -> (Some plan, entry_key)
              | exception _ -> (None, ""))
        in
        let e = { plan; entry_key; cold_ps = 0.0; resident_ps = 0.0 } in
        price cls e;
        Hashtbl.add estimates key e;
        e
  in
  (* Graph-residency rules: a graph kernel served with [graph_residency]
     on latches its (entry, tenant) key on the device that runs it. *)
  let graph_scoped (bench : Kernels.benchmark) =
    config.graph_residency && is_graph_kernel bench.Kernels.name
  in
  (* Placement's view of request [r] on device [d]:
     [(cold_ps, resident_ps, holds)], the estimates of [d]'s class and
     the one residency question placement asks — does [d] hold the
     (entry, tenant) key [r] latches there, under the graph-residency
     rules? *)
  let quote (r : Trace.request) bench d =
    let e = estimate ~cls:(Device.device_class d) ~kernel:r.Trace.kernel bench ~n:r.Trace.n in
    let holds =
      graph_scoped bench && e.entry_key <> ""
      && Device.resident d
         = Some (residency_key ~entry_key:e.entry_key ~tenant:r.Trace.tenant)
    in
    (e.cold_ps, e.resident_ps, holds)
  in
  (* Lower is better: the class estimate — the resident one on a device
     that holds the request's key — plus the conversion charge if the
     device must first be drafted out of its memory role. Ties break to
     the least-written device, then the lowest id. *)
  let score r bench dev =
    let cold, warm, holds = quote r bench dev in
    let conversion =
      if Device.mode dev = Backend.Memory_mode then
        float_of_int (Device.profile dev).Backend.conversion_latency_ps
      else 0.0
    in
    ((if holds then warm else cold) +. conversion, Device.write_pressure dev, Device.id dev)
  in

  (* Recovery policy for one corrupt attempt (runs on the scheduler,
     after the wave): count it against the device, quarantine the
     device once it crosses the threshold, then either requeue the
     request for another device or degrade it to the host. *)
  let handle_corrupt ~item ~dev_id ~fault requeue =
    let dev = devices.(dev_id) in
    corruptions.(dev_id) <- corruptions.(dev_id) + 1;
    if corruptions.(dev_id) >= config.recovery.quarantine_after && not (Device.is_quarantined dev)
    then begin
      let rows =
        match fault with Some (_, (row_off, _, nrows, _)) -> (row_off, nrows) | None -> (0, 0)
      in
      Device.quarantine dev ~rows
    end;
    let item = { item with attempts = item.attempts + 1; tried = dev_id :: item.tried } in
    let untried_device_exists =
      Array.exists
        (fun d -> (not (Device.is_quarantined d)) && not (List.mem (Device.id d) item.tried))
        devices
    in
    if item.attempts >= config.recovery.max_attempts || not untried_device_exists then begin
      run_fallback ~outcome:Telemetry.Recovered_host ~retries:item.attempts (item.req, item.depth);
      requeue
    end
    else item :: requeue
  in

  (* Dual-mode release: a drafted tile that has sat idle past the
     hysteresis window with nothing queued hands its capacity back to
     the memory role. *)
  let release_idle_duals () =
    if Dll.is_empty queue then
      Array.iter
        (fun d ->
          if
            (Device.profile d).Backend.dual_mode
            && Device.mode d = Backend.Compute_mode
            && (not (Device.is_quarantined d))
            && Device.available_ps d + revert_idle_ps <= !now
          then begin
            let displaced = Device.convert ~at_ps:!now d ~to_compute:false in
            Telemetry.record_conversion ~displaced_bytes:displaced telemetry ~at_ps:!now
              ~device:(Device.id d) ~profile:(Device.profile d).Backend.name
              ~to_compute:false
          end)
        devices
  in

  (* Form batches head-of-queue first: for each placeable item, score
     every eligible free device across the mixed fleet and take the
     cheapest, converting a dual-mode tile if that is what won. Every
     decision (membership, placement, conversions, start times) is
     fixed before execution starts, so the wave's results do not depend
     on how it is run. *)
  let dispatch () =
    let free =
      ref
        (Array.to_list devices
        |> List.filter (fun d ->
               (not (Device.is_quarantined d)) && Device.available_ps d <= !now))
    in
    let prepared = ref [] in
    let progressed = ref true in
    while !progressed do
      progressed := false;
      (* no free device means no queued item is placeable: skip the
         scan entirely instead of walking the whole backlog to learn
         nothing (the oracle's unbounded queue makes that walk hurt) *)
      if !free <> [] then begin
        let draft = dual_draft_allowed () in
        let eligible item =
          List.filter
            (fun d ->
              (not (List.mem (Device.id d) item.tried))
              && (draft || Device.mode d = Backend.Compute_mode))
            !free
        in
        (* [allowed item d]: may [d] take [item] now? A graph item whose
           model is resident on a busy device prefers waiting for that
           device over paying a cold programming pass on a free one —
           but only while the wait it has already absorbed is under
           twice the programming it would save (the request breaks even
           at 1x; staying put also spares whichever model the free
           device would have evicted its own cold pass later). Bounded,
           so a backlogged resident device cannot starve the item.
           Waiting only ever shrinks the choice to the devices that hold
           the item's key; decided once per item. *)
        let allowed item =
          let r = item.req in
          match find_bench r.Trace.kernel with
          | Ok bench when graph_scoped bench ->
              let waits =
                Array.exists
                  (fun d ->
                    (not (Device.is_quarantined d))
                    && Device.available_ps d > !now
                    && (not (List.mem (Device.id d) item.tried))
                    &&
                    let cold, warm, holds = quote r bench d in
                    holds && float_of_int (!now - r.Trace.arrival_ps) < 2.0 *. (cold -. warm))
                  devices
              in
              if waits then fun d ->
                let _, _, holds = quote r bench d in
                holds
              else fun _ -> true
          | Ok _ | Error _ -> fun _ -> true
        in
        let placeable item =
          (* [allowed] may compile estimates: ask it only when some
             device is eligible at all *)
          match eligible item with [] -> false | devs -> List.exists (allowed item) devs
        in
        match Dll.find_node queue placeable with
        | None -> ()
        | Some node -> (
          progressed := true;
          let item = node.Dll.value in
          let r0 = item.req in
          match find_bench r0.Trace.kernel with
          | Error msg ->
              (* unknown kernel: no device can help; drop just this item *)
              Dll.remove queue node;
              record_failed r0 item.depth msg
          | Ok bench -> (
              let misses0 = (Kernel_cache.stats cache).Kernel_cache.misses in
              let best =
                List.fold_left
                  (fun acc d ->
                    let s = score r0 bench d in
                    match acc with
                    | Some (_, s') when s' <= s -> acc
                    | _ -> Some (d, s))
                  None
                  (List.filter (allowed item) (eligible item))
              in
              let dev, _ = Option.get best in
              match
                pop_batch
                  ~skip:(fun it -> not (allowed it dev))
                  ~dev_id:(Device.id dev)
              with
              | None -> assert false (* [item] is poppable by [dev] *)
              | Some items -> (
                  match
                    Result.bind (program ~kernel:r0.Trace.kernel bench ~n:r0.Trace.n)
                      (fun p ->
                        match Kernel_cache.find cache ~cls:(Device.device_class dev) p with
                        | entry -> Ok entry
                        | exception e -> Error (Printexc.to_string e))
                  with
                  | Ok entry ->
                      let cache_hit =
                        (Kernel_cache.stats cache).Kernel_cache.misses = misses0
                      in
                      let conversion_ps =
                        if Device.mode dev = Backend.Memory_mode then begin
                          let (_ : float) = Device.convert ~at_ps:!now dev ~to_compute:true in
                          Telemetry.record_conversion telemetry ~at_ps:!now
                            ~device:(Device.id dev)
                            ~profile:(Device.profile dev).Backend.name ~to_compute:true;
                          (Device.profile dev).Backend.conversion_latency_ps
                        end
                        else 0
                      in
                      let residency =
                        if graph_scoped bench && Device.device_class dev <> Backend.Host_blas
                        then
                          Some
                            (residency_key ~entry_key:entry.Kernel_cache.key
                               ~tenant:r0.Trace.tenant)
                        else None
                      in
                      let batch_id = !batch_counter in
                      incr batch_counter;
                      free := List.filter (fun d -> Device.id d <> Device.id dev) !free;
                      prepared :=
                        {
                          dev;
                          batch_id;
                          start_ps = !now + config.dispatch_overhead_ps + conversion_ps;
                          cache_hit;
                          bench;
                          entry;
                          residency;
                          items;
                        }
                        :: !prepared
                  | Error msg ->
                      List.iter (fun it -> record_failed it.req it.depth msg) items)))
      end
    done;
    match List.rev !prepared with
    | [] -> false
    | waves ->
        let results = Pool.parallel_map execute_batch waves in
        let requeue =
          List.fold_left2
            (fun acc (b : batch) rs ->
              let plan =
                lazy
                  (Offload.plan b.entry.Kernel_cache.options.Flow.tactics
                     b.entry.Kernel_cache.compiled.Flow.func)
              in
              List.fold_left
                (fun acc -> function
                  | Recorded r ->
                      record r;
                      (* a warm resident run skipped its programming
                         traffic, so its measured cycles would poison a
                         calibration fitted against the full plan *)
                      if b.residency = None then note_sample b plan r;
                      acc
                  | Corrupt { item; dev_id; service_ps = _; fault } ->
                      handle_corrupt ~item ~dev_id ~fault acc)
                acc rs)
            [] waves results
        in
        maybe_calibrate ();
        (* retried work goes back to the head of the queue so recovery
           runs before newer arrivals *)
        List.iter (fun it -> Dll.push_front queue it) requeue;
        true
  in

  (* [settled]: the loop body has run at [!now] until dispatch found
     nothing more to do, so the next step is a clock move. Kept across
     [advance] calls so a resumed core never re-runs a finished
     instant. *)
  let settled = ref false in
  let rec advance until_ps =
    if not (Queue.is_empty arrivals && Dll.is_empty queue) then
      if not !settled then begin
        (* release before admitting: a revert is decided by the idle
           interval leading up to [now], not by whatever arrives at that
           same instant *)
        release_idle_duals ();
        admit_due ();
        cull_expired ();
        if not (dispatch ()) then settled := true;
        advance until_ps
      end
      else begin
        let next_arrival =
          match Queue.peek_opt arrivals with None -> max_int | Some r -> r.Trace.arrival_ps
        in
        let next_free =
          Array.fold_left
            (fun acc d ->
              let a = Device.available_ps d in
              if a > !now then min acc a else acc)
            max_int devices
        in
        let next =
          if Dll.is_empty queue then next_arrival else min next_arrival next_free
        in
        if next = max_int then begin
          (* dead end: every queued item has exhausted the usable pool
             (e.g. all devices quarantined) and nothing else is coming —
             drain it to the host. Only a draining call knows nothing
             else is coming; a bounded one leaves the items queued. *)
          if until_ps = max_int then begin
            let stuck = Dll.to_list queue in
            Dll.clear queue;
            List.iter
              (fun it ->
                run_fallback ~outcome:Telemetry.Recovered_host ~retries:it.attempts
                  (it.req, it.depth))
              stuck
          end
        end
        else
          let next = max next (!now + 1) in
          if next <= until_ps then begin
            now := next;
            settled := false;
            advance until_ps
          end
      end
  in

  let finish (trace : Trace.t) =
    advance max_int;
    let makespan_ps =
      List.fold_left (fun acc r -> max acc r.Telemetry.finish_ps) 0 (Telemetry.records telemetry)
    in
    (* a tile still drafted at the end of the run has displaced memory
       traffic right up to the makespan — close the interval so the
       report's displaced-bytes figure covers the whole run *)
    Array.iter
      (fun d -> ignore (Device.finalize_displacement d ~at_ps:makespan_ps : float))
      devices;
    {
      trace;
      config;
      telemetry;
      cache = Kernel_cache.stats cache;
      devices =
        Array.to_list devices
        |> List.map (fun d ->
               {
                 dev_id = Device.id d;
                 dev_profile = (Device.profile d).Backend.name;
                 dev_class = Backend.class_name (Device.device_class d);
                 dev_wear = Device.wear d;
                 dev_served = Device.requests_served d;
                 dev_energy_j = Device.energy_j d;
                 dev_conversions = Device.conversions d;
                 dev_displaced_bytes = Device.displaced_mem_bytes d;
               });
      quarantined =
        Array.to_list devices
        |> List.filter (fun d -> Device.is_quarantined d)
        |> List.map Device.id;
      makespan_ps;
      wall_s = Unix.gettimeofday () -. t0;
      calibrations = List.rev !calib_log;
    }
  in
  {
    push =
      (fun r ->
        if r.Trace.deadline_ps <> None then trace_has_deadlines := true;
        Queue.push r arrivals);
    step = advance;
    close = finish;
    core_telemetry = telemetry;
    backlog = (fun () -> Queue.length arrivals + Dll.length queue);
  }

let submit t r = t.push r
let advance t ~until_ps = t.step until_ps
let finish t trace = t.close trace
let telemetry t = t.core_telemetry
let pending t = t.backlog ()

let replay ?config (trace : Trace.t) =
  let t = create ?config () in
  List.iter (submit t) trace.Trace.requests;
  finish t trace

(* ---------- report accessors ---------- *)

let completed r = Telemetry.count r.telemetry Telemetry.Completed
let fallbacks r = Telemetry.count r.telemetry Telemetry.Cpu_fallback
let recovered r = Telemetry.count r.telemetry Telemetry.Recovered_host
let rejections r = Telemetry.count r.telemetry Telemetry.Rejected_overloaded
let failures r = Telemetry.count r.telemetry (Telemetry.Failed "")
let detected_corruptions r = (Telemetry.summary r.telemetry).Telemetry.detected_corruptions

let cache_hit_rate r =
  let c = r.cache in
  let lookups = c.Kernel_cache.hits + c.Kernel_cache.misses in
  if lookups = 0 then 0.0 else float_of_int c.Kernel_cache.hits /. float_of_int lookups

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

let divergence a b =
  let of_b = Hashtbl.create 256 in
  List.iter
    (fun (r : Telemetry.record) ->
      match (r.Telemetry.outcome, r.Telemetry.checksum, record_class r) with
      | Telemetry.Completed, Some cs, Some cls ->
          Hashtbl.replace of_b r.Telemetry.request.Trace.id (cs, cls)
      | _ -> ())
    (Telemetry.records b.telemetry);
  List.fold_left
    (fun acc (r : Telemetry.record) ->
      match (r.Telemetry.outcome, r.Telemetry.checksum, record_class r) with
      | Telemetry.Completed, Some cs, Some cls -> (
          match Hashtbl.find_opt of_b r.Telemetry.request.Trace.id with
          | Some (cs', cls') when cls' = cls && cs' <> cs -> acc + 1
          | Some _ | None -> acc)
      | _ -> acc)
    0
    (Telemetry.records a.telemetry)
