(* Descriptor setup, paid once per transfer. *)
let setup_ps = 100 * Time_base.ps_per_ns

type t = {
  bus : Bus.t;
  memory : Memory.t;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable transfers : int;
}

let create ~bus ~memory () = { bus; memory; bytes_read = 0; bytes_written = 0; transfers = 0 }

let latency t ~bytes = setup_ps + Bus.transfer t.bus ~bytes + Memory.burst_latency t.memory ~bytes

let read t ~addr ~bytes =
  let data = Memory.read_bytes t.memory addr bytes in
  t.bytes_read <- t.bytes_read + bytes;
  t.transfers <- t.transfers + 1;
  (data, latency t ~bytes)

let charge t ~bytes =
  if bytes < 0 then invalid_arg "Dma.charge: negative size";
  t.bytes_read <- t.bytes_read + bytes;
  t.transfers <- t.transfers + 1;
  latency t ~bytes

let charge_write t ~bytes =
  if bytes < 0 then invalid_arg "Dma.charge_write: negative size";
  t.bytes_written <- t.bytes_written + bytes;
  t.transfers <- t.transfers + 1;
  latency t ~bytes

let memory t = t.memory

let bytes_read t = t.bytes_read
let bytes_written t = t.bytes_written
let transfers t = t.transfers
