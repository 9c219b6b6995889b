(* Descriptor setup, paid once per transfer. *)
let setup_ps = 100 * Time_base.ps_per_ns

type t = { bus : Bus.t; memory : Memory.t }

let create ~bus ~memory () = { bus; memory }

let latency t ~bytes = setup_ps + Bus.transfer t.bus ~bytes + Memory.burst_latency t.memory ~bytes

let read t ~addr ~bytes =
  let data = Memory.read_bytes t.memory addr bytes in
  (data, latency t ~bytes)

let charge t ~bytes =
  if bytes < 0 then invalid_arg "Dma.charge: negative size";
  latency t ~bytes

let memory t = t.memory
