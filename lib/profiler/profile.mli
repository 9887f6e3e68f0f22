(** The CUDAAdvisor profiler (paper Section 3.2): collects
    instrumentation events during each kernel instance and performs the
    code-centric (shadow stacks -> calling-context tree) and
    data-centric (allocation maps) attribution.  Metric computation is
    the analyzer's job. *)

type bb_stat = { mutable execs : int; mutable divergent : int }

(** One executed kernel instance with its raw traces. *)
type instance = {
  kernel : string;
  launch_index : int;
  host_path : Records.host_frame list;  (** CPU call path at launch *)
  trace : Tracebuf.t;
      (** packed warp-level memory events with their CCT node, in
          execution order *)
  shared : Tracebuf.Shared.t;
      (** shared-memory access + barrier-epoch rows for [advisor check];
          empty unless the module carries [sharing] instrumentation *)
  conflicts : Tracebuf.Conflict.t;
      (** bank-conflict rows: one per shared access whose lanes
          serialized on a bank (the simulator filters conflict-free
          accesses) *)
  mutable mem_count : int;
  bb_stats : (int, bb_stat) Hashtbl.t;  (** per manifest block id *)
  arith_stats : (Bitc.Loc.t * int, int ref) Hashtbl.t;
  mutable result : Gpusim.Gpu.result option;
}

type t = {
  manifest : Passes.Manifest.t;
  cct : Cct.t;
  mutable kernel_keys : (string * int) list;
  mutable instances_rev : instance list;  (** most recent first *)
  mutable instances_fwd : instance list option;  (** cached launch order *)
  mutable next_launch : int;
  mutable allocs : Records.alloc list;
  mutable transfers : Records.transfer list;
  mutable next_alloc : int;
  keep_mem_events : bool;
}

val create : ?keep_mem_events:bool -> manifest:Passes.Manifest.t -> unit -> t

(** {2 Host-side mandatory instrumentation} *)

val record_alloc :
  t ->
  side:Records.side ->
  base:int ->
  size:int ->
  label:string ->
  path:Records.host_frame list ->
  Records.alloc

val record_transfer :
  t ->
  direction:Records.direction ->
  src:int ->
  dst:int ->
  bytes:int ->
  path:Records.host_frame list ->
  unit

(** {2 Device-side profiling} *)

(** Open a kernel instance; returns it and the event sink to pass to the
    launch.  The sink maintains per-thread device shadow stacks and
    attributes every memory event to its calling context on the fly. *)
val begin_instance :
  t -> kernel:string -> host_path:Records.host_frame list ->
  instance * Gpusim.Hookev.sink

(** Close the instance at kernel exit (the data-marshaling point). *)
val finish_instance : instance -> Gpusim.Gpu.result -> unit

(** {2 Accessors} *)

val instances : t -> instance list
val allocations : t -> Records.alloc list
val transfers : t -> Records.transfer list

(** Memory events of an instance in execution order, decoded from the
    packed trace.  Allocates one record per event — prefer iterating
    [instance.trace] with {!Tracebuf.iter}/{!Tracebuf.fold}. *)
val mem_events : instance -> (Gpusim.Hookev.mem * int) list

(** Expand a CCT node into the device call path: (function, call-site
    location) frames from the kernel entry downward. *)
val device_path : t -> instance -> int -> (string * Bitc.Loc.t) list
