(* Host-side records produced by the mandatory instrumentation of the
   CPU code: call frames, allocations and transfers (Section 3.2.2,
   Figure 3).  The host runtime produces these; the data-centric
   analyzer correlates them with device memory accesses. *)

type host_frame = {
  frame_func : string;
  frame_file : string;
  frame_line : int;
}

type side = Host_side | Device_side

type alloc = {
  alloc_id : int;
  side : side;
  base : int; (* address in the host or device space *)
  size : int;
  label : string; (* variable name, e.g. "d_graph_visited" *)
  alloc_path : host_frame list; (* CPU call path at the allocation *)
}

type direction = Host_to_device | Device_to_host

type transfer = {
  direction : direction;
  src : int;
  dst : int;
  bytes : int;
  transfer_path : host_frame list;
}

let frame_to_string f = Printf.sprintf "%s():: %s: %d" f.frame_func f.frame_file f.frame_line

let direction_to_string = function
  | Host_to_device -> "cudaMemcpyHostToDevice"
  | Device_to_host -> "cudaMemcpyDeviceToHost"

(* Does [addr] fall inside allocation [a]? *)
let contains a addr = addr >= a.base && addr < a.base + a.size
