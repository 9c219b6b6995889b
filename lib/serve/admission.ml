type bucket = { rate_per_s : float; burst : float }

type policy = {
  per_tenant : (int * bucket) list;
  default_bucket : bucket option;
  batch_above : float;
  best_effort_above : float;
}

let default_policy =
  { per_tenant = []; default_bucket = None; batch_above = 0.8; best_effort_above = 0.5 }

let validate p =
  if not (p.best_effort_above >= 0.0 && p.best_effort_above <= 1.0) then
    invalid_arg "Admission: best_effort_above must be in [0,1]";
  if not (p.batch_above >= 0.0 && p.batch_above <= 1.0) then
    invalid_arg "Admission: batch_above must be in [0,1]";
  if p.batch_above < p.best_effort_above then
    invalid_arg "Admission: batch_above must be >= best_effort_above (shed best-effort first)";
  let check_bucket (b : bucket) =
    if b.rate_per_s < 0.0 || b.burst < 1.0 then
      invalid_arg "Admission: bucket needs rate_per_s >= 0 and burst >= 1"
  in
  Option.iter check_bucket p.default_bucket;
  List.iter (fun (_, b) -> check_bucket b) p.per_tenant

(* Token level per tenant, refilled lazily from the timestamp stream.
   Levels start at the full burst: a tenant's first requests are its
   burst allowance. *)
type state = { bucket : bucket; mutable tokens : float; mutable last_ps : int }

type t = { policy : policy; tenants : (int, state) Hashtbl.t }

let create policy =
  validate policy;
  { policy; tenants = Hashtbl.create 16 }

type verdict = Admit | Shed_rate | Shed_load

let bucket_for t tenant =
  match List.assoc_opt tenant t.policy.per_tenant with
  | Some b -> Some b
  | None -> t.policy.default_bucket

let state_for t tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some s -> Some s
  | None -> (
      match bucket_for t tenant with
      | None -> None
      | Some bucket ->
          let s = { bucket; tokens = bucket.burst; last_ps = 0 } in
          Hashtbl.add t.tenants tenant s;
          Some s)

let ps_per_s = 1e12

let refill s ~now_ps =
  if now_ps > s.last_ps then begin
    let dt_s = float_of_int (now_ps - s.last_ps) /. ps_per_s in
    s.tokens <- Float.min s.bucket.burst (s.tokens +. (dt_s *. s.bucket.rate_per_s));
    s.last_ps <- now_ps
  end

let class_fill_limit p = function
  | Trace.Interactive -> 1.0
  | Trace.Batch -> p.batch_above
  | Trace.Best_effort -> p.best_effort_above

let admit t ~now_ps ~queue_len ~capacity (r : Trace.request) =
  (* class-tiered load shedding on the shared bounded queue first (it
     consumes no budget, so a load-shed request does not burn the
     tenant's tokens): best-effort loses eligibility at half fill,
     batch near full, interactive at full — so an interactive arrival
     at a full queue is load-shed here, and never reaches the
     scheduler's hard bound *)
  let load_ok =
    capacity <= 0
    || float_of_int queue_len /. float_of_int capacity < class_fill_limit t.policy r.Trace.slo
  in
  if not load_ok then Shed_load
  else
    match state_for t r.Trace.tenant with
    | None -> Admit
    | Some s ->
        refill s ~now_ps;
        if s.tokens >= 1.0 then begin
          s.tokens <- s.tokens -. 1.0;
          Admit
        end
        else Shed_rate
