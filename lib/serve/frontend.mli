(** Wall-clock serving front-end.

    The front-end is a second driver of the one scheduler core
    ({!Scheduler.create}): where {!Scheduler.replay} feeds a
    pre-recorded trace and drains it in virtual time, the front-end
    reads live requests from a file descriptor — a pipe, a socket,
    anything [Unix.select] can watch — stamps each with the wall clock
    (picoseconds since the front-end came up), submits it, and advances
    the core to the wall clock after every read. The policy is the
    replay's, all of it: admission and the hard queue bound, batching
    of same-(kernel, n) requests, cost-based placement with dual-tile
    drafting, weight residency, ABFT retry and quarantine, deadlines
    with host degradation, and online calibration. A session's records
    are therefore exactly what {!Scheduler.replay} produces for the
    same requests at the same arrival stamps.

    {b Protocol.} One request per line, either the {!Trace} line codec
    ([req kernel=gemm n=16 ...] — only [kernel] and [n] are required)
    or a JSON object ([{"kernel":"gemm","n":16,"tenant":1,
    "class":"batch","seed":7,"deadline_us":500}]). [n] must lie in
    [1..]{!Trace.max_n}; unknown line keys and non-integral or
    out-of-range JSON integers are errors, as is JSON nested deeper
    than {!Tdo_util.Json.parse} accepts. Two control verbs: [stats]
    answers with one line, [stats] followed by the session's
    {!Telemetry.fields} of {!Telemetry.summary} as [k=v] pairs
    ({!Telemetry.format_fields}), after the core has advanced past the
    lines read with it, so the requests of the same burst are counted;
    [quit] ends the session.
    Every request gets one response line, written when the core reaches
    its outcome:

    - [ok id=.. device=.. class=.. latency_us=.. service_us=.. checksum=..]
      (served on a fleet device)
    - [ok id=.. class=host latency_us=.. service_us=.. checksum=..]
      (deadline expired in the queue, or recovery ran out of devices:
      the host interpreter computed the result)
    - [shed id=.. reason=rate_limited|load_shed] (admission drop)
    - [rejected id=..] (hard queue bound)
    - [err id=.. msg=..] (unknown kernel, compile or device error; a
      line that does not parse is answered [err id=0], and so is a line
      longer than 64 KiB, once, with a message naming the cap and
      without its text; its bytes are dropped up to the next newline
      and the lines after it are served)

    {b Clocks.} Arrivals are wall time; service is the fleet's
    {e simulated} service time, since the fleet is emulated. The core
    places a batch once the wall clock has passed its dispatch instant
    and answers it right away. [latency_us] is the record clock's
    finish minus arrival ({!Telemetry.latency_ps}) — the same number
    [stats], the live view and the session telemetry report — not the
    wall time the response took to come back.

    All lines read in one pump share one arrival stamp, strictly after
    the last instant the core was advanced to, so a burst forms one
    backlog: admission sees its full depth and same-(kernel, n)
    requests in it share a batch. *)

type stop =
  | Eof  (** the client closed its end *)
  | Quit  (** the client sent [quit] *)

val serve :
  ?config:Scheduler.config ->
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  unit ->
  Scheduler.report * stop
(** Serve one session on a fresh core built from [config] (default
    {!Scheduler.default_config}; its [on_record], e.g. a
    {!Telemetry.live_view}, sees every record after its response is
    written): read requests from [input] until EOF or [quit], answer on
    [output]. At session end {!Scheduler.finish} drains the core, so
    requests still queued are served and answered before returning.
    The report's trace lists the session's requests with their wall
    arrival stamps, in arrival order. Raises [Invalid_argument] where
    {!Scheduler.create} does. *)

val serve_unix_socket :
  ?config:Scheduler.config -> path:string -> unit -> Scheduler.report list
(** Bind a Unix-domain socket at [path] (replacing any stale file) and
    serve clients one at a time — each connection is a fresh {!serve}
    session on a fresh core — until a client sends [quit]. Returns the
    per-session reports, oldest first. The socket file is removed on
    exit. *)
