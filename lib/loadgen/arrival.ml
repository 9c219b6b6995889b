module Prng = Tdo_util.Prng

type process =
  | Poisson of { rate_rps : float }
  | Bursty of {
      base_rps : float;
      burst_rps : float;
      mean_burst_s : float;
      mean_quiet_s : float;
    }
  | Diurnal of { base_rps : float; peak_rps : float; period_s : float }

let describe = function
  | Poisson { rate_rps } -> Printf.sprintf "poisson:%g" rate_rps
  | Bursty { base_rps; burst_rps; mean_burst_s; mean_quiet_s } ->
      Printf.sprintf "bursty:%g:%g:%g:%g" base_rps burst_rps mean_burst_s mean_quiet_s
  | Diurnal { base_rps; peak_rps; period_s } ->
      Printf.sprintf "diurnal:%g:%g:%g" base_rps peak_rps period_s

let parse spec =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let num s =
    match float_of_string_opt s with
    | Some f when f >= 0.0 -> Ok f
    | _ -> fail "arrival spec: %S is not a non-negative number" s
  in
  let ( let* ) = Result.bind in
  match String.split_on_char ':' (String.trim spec) with
  | [ "poisson"; r ] ->
      let* rate_rps = num r in
      if rate_rps <= 0.0 then fail "poisson rate must be positive"
      else Ok (Poisson { rate_rps })
  | [ "bursty"; base; burst; on_s; off_s ] ->
      let* base_rps = num base in
      let* burst_rps = num burst in
      let* mean_burst_s = num on_s in
      let* mean_quiet_s = num off_s in
      if base_rps <= 0.0 || burst_rps <= 0.0 then fail "bursty rates must be positive"
      else if mean_burst_s <= 0.0 || mean_quiet_s <= 0.0 then
        fail "bursty phase durations must be positive"
      else Ok (Bursty { base_rps; burst_rps; mean_burst_s; mean_quiet_s })
  | [ "diurnal"; base; peak; period ] ->
      let* base_rps = num base in
      let* peak_rps = num peak in
      let* period_s = num period in
      if base_rps <= 0.0 || peak_rps < base_rps then
        fail "diurnal needs 0 < base <= peak"
      else if period_s <= 0.0 then fail "diurnal period must be positive"
      else Ok (Diurnal { base_rps; peak_rps; period_s })
  | _ ->
      fail
        "unknown arrival spec %S (expected poisson:RATE, bursty:BASE:BURST:ON_S:OFF_S or \
         diurnal:BASE:PEAK:PERIOD_S)"
        spec

let ps_per_s = 1e12

(* Exponential gap at [rate] (per second), in picoseconds, never zero
   so arrival timestamps are strictly increasing per stream. *)
let exp_gap_ps g ~rate =
  let u = Prng.float g ~bound:1.0 in
  max 1 (int_of_float (-.Float.log (1.0 -. u) /. rate *. ps_per_s))

let gaps_ps process g =
  match process with
  | Poisson { rate_rps } -> fun () -> exp_gap_ps g ~rate:rate_rps
  | Bursty { base_rps; burst_rps; mean_burst_s; mean_quiet_s } ->
      (* two-state MMPP: exponentially distributed dwell in a quiet
         (base-rate) and a burst phase, Poisson arrivals within each.
         Phase switches happen on the stream's own clock, so the gap
         that straddles a switch is drawn at the new phase's rate —
         a one-gap approximation that keeps the generator O(1). *)
      let in_burst = ref false in
      let phase_left_ps = ref 0 in
      let dwell () =
        let mean_s = if !in_burst then mean_burst_s else mean_quiet_s in
        let u = Prng.float g ~bound:1.0 in
        max 1 (int_of_float (-.Float.log (1.0 -. u) *. mean_s *. ps_per_s))
      in
      fun () ->
        if !phase_left_ps <= 0 then begin
          in_burst := not !in_burst;
          phase_left_ps := dwell ()
        end;
        let rate = if !in_burst then burst_rps else base_rps in
        let gap = exp_gap_ps g ~rate in
        phase_left_ps := !phase_left_ps - gap;
        gap
  | Diurnal { base_rps; peak_rps; period_s } ->
      (* non-homogeneous Poisson by thinning: candidate gaps at the
         peak rate, each accepted with probability rate(t)/peak where
         rate(t) sweeps a raised cosine between base and peak over the
         period. The stream keeps its own clock. *)
      let clock_ps = ref 0 in
      let rate_at t_ps =
        let t_s = float_of_int t_ps /. ps_per_s in
        let phase = 2.0 *. Float.pi *. t_s /. period_s in
        base_rps +. ((peak_rps -. base_rps) *. 0.5 *. (1.0 -. Float.cos phase))
      in
      let rec next acc =
        let cand = exp_gap_ps g ~rate:peak_rps in
        let acc = acc + cand in
        let t = !clock_ps + acc in
        if Prng.float g ~bound:1.0 *. peak_rps <= rate_at t then begin
          clock_ps := t;
          acc
        end
        else next acc
      in
      fun () -> next 0

let mean_rate_rps = function
  | Poisson { rate_rps } -> rate_rps
  | Bursty { base_rps; burst_rps; mean_burst_s; mean_quiet_s } ->
      (* time-weighted over the two phases *)
      ((base_rps *. mean_quiet_s) +. (burst_rps *. mean_burst_s))
      /. (mean_quiet_s +. mean_burst_s)
  | Diurnal { base_rps; peak_rps; period_s = _ } ->
      (* mean of the raised cosine *)
      0.5 *. (base_rps +. peak_rps)
