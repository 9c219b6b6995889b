(* Per-call fan-out rather than a resident worker pool: experiment
   tasks are coarse (tens of milliseconds to seconds), so spawning and
   joining a domain per call is noise next to them, and joining the
   domains before returning keeps the failure and shutdown story
   trivial — no at_exit teardown, no orphaned workers, exceptions
   surface at the call site. A spawn plus join is not cheap, though:
   on a 2-vCPU x86-64 VM it took 136-180 us at best and 223-289 us at
   the median (runs of 50), which a map over two short tasks, such as
   a serving wave of two batches, pays in full. *)

(* [Domain.recommended_domain_count] is allowed to report anything the
   OS hands it, including 0 on containers with broken cgroup limits —
   clamp so a degenerate report never disables the pool outright. The
   recommendation probes the OS (cgroup files, sysconf), so it is
   computed once and cached; an explicit [TDO_DOMAINS=<n>] wins over
   the runtime's guess and is still read on every call so tests can
   flip it with [Unix.putenv]. *)
let recommended = lazy (max 1 (Domain.recommended_domain_count ()))

let size () =
  match Sys.getenv_opt "TDO_DOMAINS" with
  | Some s ->
      (match int_of_string_opt (String.trim s) with
      | Some n -> max 1 n
      | None -> Lazy.force recommended)
  | None -> Lazy.force recommended

let sequential_override = ref None

let set_sequential o = sequential_override := o

let sequential () = !sequential_override = Some true

(* set on worker domains so nested maps degrade to List.map instead of
   spawning domains recursively *)
let in_worker = Domain.DLS.new_key (fun () -> false)

let parallel_map ?workers f xs =
  let n = List.length xs in
  let w = min n (match workers with Some w -> max 1 w | None -> size ()) in
  if w <= 1 || n <= 1 || sequential () || Domain.DLS.get in_worker then List.map f xs
  else begin
    let input = Array.of_list xs in
    (* Every index below [n] is written exactly once before the join,
       so the never-observed initial value can be a sentinel instead of
       [None] — no [Some] box per task. The array is built and read
       with generic (tag-dispatched) accesses because ['b] is
       polymorphic here, so the unit sentinel is safe even when ['b]
       turns out to be [float]. *)
    let results : 'b array = Array.make n (Obj.magic () : 'b) in
    let errors = Array.make n None in
    (* the work queue: indices are claimed in chunks, so a map over
       many small tasks pays one atomic operation per [chunk] tasks
       instead of one per task; the chunk stays small relative to n/w
       so the tail still balances *)
    let chunk = max 1 (n / (8 * w)) in
    let next = Atomic.make 0 in
    let work () =
      let continue = ref true in
      while !continue do
        let base = Atomic.fetch_and_add next chunk in
        if base >= n then continue := false
        else
          for i = base to min (base + chunk) n - 1 do
            match f (Array.unsafe_get input i) with
            | v -> results.(i) <- v
            | exception e -> errors.(i) <- Some e
          done
      done
    in
    let domains =
      List.init (w - 1) (fun _ ->
          Domain.spawn (fun () ->
              Domain.DLS.set in_worker true;
              work ()))
    in
    (* the caller is a worker too *)
    work ();
    List.iter Domain.join domains;
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.to_list results
  end
