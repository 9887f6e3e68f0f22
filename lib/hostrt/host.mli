(** The host runtime: models the CPU side of a CUDA program with the
    paper's mandatory instrumentation interposed (Section 3.1-(I)).

    Host drivers are OCaml functions calling this API: {!in_function}
    maintains the CPU shadow stack; {!malloc}, {!cuda_malloc},
    {!memcpy_h2d} and {!memcpy_d2h} record the allocation and transfer
    maps that the data-centric profiler correlates (Section 3.2.2);
    {!launch_kernel} wires the profiler's event sink into the simulator
    and closes the kernel instance at exit. *)

type t

(** Fresh host context over a simulated device.  When [profiler] is
    given, every allocation, transfer and launch is recorded.
    [bankmodel] opts every launch into charging shared-memory
    bank-conflict replays as issue cycles (see {!Gpusim.Gpu.launch}).
    [block_x_override] is the block-size tuning knob: every launch is
    forced to that CTA width, with grid.x rescaled (rounding up) so the
    total x-thread count never shrinks.  Raises [Invalid_argument] on a
    non-positive override. *)
val create :
  ?profiler:Profiler.Profile.t ->
  ?bankmodel:bool ->
  ?block_x_override:int ->
  arch:Gpusim.Arch.t ->
  prog:Ptx.Isa.prog ->
  unit ->
  t

(** The flat host address space (for initializing input buffers). *)
val host_mem : t -> Gpusim.Devmem.t

(** The device's global memory. *)
val dev_mem : t -> Gpusim.Devmem.t

val arch : t -> Gpusim.Arch.t

(** Current CPU call path, outermost frame first. *)
val call_path : t -> Profiler.Records.host_frame list

(** Run [body] with a CPU shadow-stack frame pushed — the mandatory
    instrumentation of CPU calls and returns. *)
val in_function :
  t -> func:string -> file:string -> line:int -> (unit -> 'a) -> 'a

(** Host-side malloc; returns the host address. *)
val malloc : t -> label:string -> int -> int

(** cudaMalloc; returns the device address. *)
val cuda_malloc : t -> label:string -> int -> int

val memcpy_h2d : t -> dst:int -> src:int -> bytes:int -> unit
val memcpy_d2h : t -> dst:int -> src:int -> bytes:int -> unit

(** Launch a kernel on the simulated device.  [prog] overrides the
    context's program (used by the bypassing experiments). *)
val launch_kernel :
  ?prog:Ptx.Isa.prog ->
  t ->
  kernel:string ->
  grid:int * int ->
  block:int * int ->
  args:Gpusim.Value.t list ->
  Gpusim.Gpu.result

(** All launches so far, in order. *)
val launches : t -> (string * Gpusim.Gpu.result) list

(** Sum of kernel cycles over all launches. *)
val total_kernel_cycles : t -> int

(** Kernel-argument shorthands. *)
val iarg : int -> Gpusim.Value.t

val farg : float -> Gpusim.Value.t
