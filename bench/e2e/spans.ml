(* In-memory spans: name, start, end, parent and request id, kept in
   growable arrays and written out once, at the end of a traced run, as
   Chrome trace events (readable in Perfetto). *)

type t = {
  mutable names : string array;
  mutable starts : int array;  (** monotonic ns *)
  mutable ends : int array;  (** monotonic ns; [-1] while open *)
  mutable parents : int array;  (** index of the parent span; [-1] for none *)
  mutable reqs : int array;  (** request id; [-1] for none *)
  mutable len : int;
}

let create () =
  { names = [||]; starts = [||]; ends = [||]; parents = [||]; reqs = [||]; len = 0 }

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let length t = t.len

let grow t =
  let cap = max 1024 (2 * Array.length t.starts) in
  let ext a fill = Array.append a (Array.make (cap - Array.length a) fill) in
  t.names <- ext t.names "";
  t.starts <- ext t.starts 0;
  t.ends <- ext t.ends (-1);
  t.parents <- ext t.parents (-1);
  t.reqs <- ext t.reqs (-1)

(* Open a span now and return its index. *)
let start ?(parent = -1) ?(req = -1) t name =
  if t.len = Array.length t.starts then grow t;
  let i = t.len in
  t.names.(i) <- name;
  t.parents.(i) <- parent;
  t.reqs.(i) <- req;
  t.ends.(i) <- -1;
  t.len <- i + 1;
  t.starts.(i) <- now_ns ();
  i

let stop t i = t.ends.(i) <- now_ns ()

(* [f ()] inside a span; the span is closed even if [f] raises. *)
let within ?parent ?req t name f =
  let i = start ?parent ?req t name in
  Fun.protect ~finally:(fun () -> stop t i) f

let duration_ns t i = t.ends.(i) - t.starts.(i)

(* Sum of the durations of every span called [name]. *)
let total_ns t name =
  let s = ref 0 in
  for i = 0 to t.len - 1 do
    if t.names.(i) = name then s := !s + duration_ns t i
  done;
  !s

let count t name =
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    if t.names.(i) = name then incr n
  done;
  !n

(* Every span that breaks nesting: still open, ending before it starts,
   outside its parent's interval, or with a request id other than its
   parent's. *)
let nesting_errors t =
  let errs = ref [] in
  for i = t.len - 1 downto 0 do
    let bad msg = errs := Printf.sprintf "span %d (%s): %s" i t.names.(i) msg :: !errs in
    let p = t.parents.(i) in
    if t.ends.(i) < t.starts.(i) then bad "not closed"
    else if p >= 0 then begin
      if p >= i then bad "parent opened after its child"
      else if t.starts.(i) < t.starts.(p) || t.ends.(i) > t.ends.(p) then
        bad "outside its parent's interval"
      else if t.reqs.(i) <> t.reqs.(p) then bad "request id differs from its parent's"
    end
  done;
  !errs

(* Chrome trace events, one complete ("X") event per span, microsecond
   timestamps relative to the first span. *)
let to_chrome_json t =
  let b = Buffer.create (t.len * 110) in
  let t0 = if t.len = 0 then 0 else t.starts.(0) in
  Buffer.add_string b "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  for i = 0 to t.len - 1 do
    if i > 0 then Buffer.add_string b ",\n";
    Buffer.add_string b
      (Printf.sprintf
         "{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \
          \"args\": {\"span\": %d, \"parent\": %d, \"request\": %d}}"
         t.names.(i)
         (float_of_int (t.starts.(i) - t0) /. 1e3)
         (float_of_int (duration_ns t i) /. 1e3)
         i t.parents.(i) t.reqs.(i))
  done;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
