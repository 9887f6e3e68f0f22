(** Host-side records produced by the mandatory instrumentation of the
    CPU code (paper Sections 3.1-(I) and 3.2.2): call frames,
    allocations and transfers, which the data-centric analyzer
    correlates with device memory accesses. *)

type host_frame = {
  frame_func : string;
  frame_file : string;
  frame_line : int;
}

type side = Host_side | Device_side

type alloc = {
  alloc_id : int;
  side : side;
  base : int;  (** address in the host or device space *)
  size : int;
  label : string;  (** variable name, e.g. ["d_graph_visited"] *)
  alloc_path : host_frame list;  (** CPU call path at the allocation *)
}

type direction = Host_to_device | Device_to_host

type transfer = {
  direction : direction;
  src : int;
  dst : int;
  bytes : int;
  transfer_path : host_frame list;
}

val frame_to_string : host_frame -> string
val direction_to_string : direction -> string

(** Does [addr] fall inside the allocation? *)
val contains : alloc -> int -> bool
