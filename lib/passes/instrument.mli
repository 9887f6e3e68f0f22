(** The CUDAAdvisor instrumentation engine (paper Section 3.1).

    Mandatory instrumentation brackets device-function calls with shadow
    stack push/pop hooks; optional instrumentation covers the three
    categories of the paper — memory operations (effective address,
    width, source location: Listings 1/2), control flow (basic-block
    entries: Listings 3/4) and arithmetic operations (opcode + dynamic
    operand values). *)

(** Which optional instrumentation categories to insert.  [sharing]
    inserts the correctness-checking hooks (shared-memory accesses and
    barrier epochs for [advisor check]); it is off in every preset so the
    profiling hook mix and its golden metrics are unchanged. *)
type options = {
  memory : bool;
  control_flow : bool;
  arithmetic : bool;
  sharing : bool;
}

val all : options
val memory_only : options
val control_flow_only : options

(** No optional instrumentation — only the mandatory call hooks. *)
val nothing : options

type result = { manifest : Manifest.t }

(** Instrument all kernels and device functions of the module in place;
    returns the manifest mapping hook ids back to source entities.  The
    instrumented module is re-verified.  Run at most once per module. *)
val run : ?options:options -> Bitc.Irmod.t -> result
