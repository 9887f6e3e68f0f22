(** CUDAAdvisor's front door: the three-component pipeline of the
    paper's Figure 1 — instrumentation engine, profiler and analyzer —
    wired end to end.

    Typical use:
    {[
      let arch = Gpusim.Arch.kepler_k40c () in
      let session = Advisor.profile ~arch (Workloads.Registry.find "bfs") in
      let rd = Advisor.reuse_distance session in
      let md = Advisor.mem_divergence session in
      ...
    ]} *)

(** A compiled device module: IR, optional instrumentation manifest and
    generated PTX. *)
type compiled = {
  modul : Bitc.Irmod.t;
  manifest : Passes.Manifest.t option;  (** [None] when uninstrumented *)
  prog : Ptx.Isa.prog;
}

(** Compile MiniCUDA device source, optionally running the
    instrumentation engine with the given option set.  Memoized on
    (file, source, options): experiment sweeps recompiling the same
    workload share one read-only [compiled].  Domain-safe, with per-key
    in-flight tracking: concurrent cold compiles of distinct keys
    overlap, concurrent compiles of the same key block for the first
    one instead of compiling twice.  Hits and misses count in the
    [advisor.compile_cache.hits] / [.misses] {!Obs.Metrics} counters. *)
val compile_source :
  ?instrument:Passes.Instrument.options -> file:string -> string -> compiled

(** Whitespace-normalize device source for cache-key purposes: CRLF →
    LF, trailing whitespace stripped per line, trailing blank lines
    dropped.  Never changes the line/column of any token, so equal
    canonical forms imply byte-identical reports. *)
val canonical_source : string -> string

(** Content-addressed identity of one advisor result: a stable hex
    digest of (op, app, arch, scale, canonicalized source, extras),
    independent of field order.  Callers fill defaults in before
    keying; [extra] carries op-specific options as (name, value)
    pairs.  Everything that can change the result bytes belongs in the
    key; nothing else does. *)
val result_key :
  op:string ->
  app:string ->
  arch_name:string ->
  scale:int ->
  ?extra:(string * string) list ->
  source:string ->
  unit ->
  string

(** [compile_source] with instrumentation always on (defaults to all
    three optional categories). *)
val instrument_source :
  ?options:Passes.Instrument.options -> file:string -> string -> compiled

(** Default instrumentation for profiling sessions: memory +
    control-flow, as in the paper's case studies. *)
val default_options : Passes.Instrument.options

(** A completed profiling run of one workload: the profiler holds the
    raw traces, the host the launch results. *)
type session = {
  workload : Workloads.Common.t;
  arch : Gpusim.Arch.t;
  profiler : Profiler.Profile.t;
  host : Hostrt.Host.t;
  scale : int;
}

(** Instrument [workload], run it on the simulated [arch] under the
    profiler, and return the session.  [keep_mem_events:false] drops the
    raw memory trace (for overhead-only runs).  [bankmodel] charges
    shared-memory bank-conflict replays as issue cycles (conflict
    records are collected regardless; see {!Gpusim.Gpu.launch}).
    [block_x] forces the CTA width on every launch (grid-rescaled; see
    {!Hostrt.Host.create}). *)
val profile :
  ?options:Passes.Instrument.options ->
  ?keep_mem_events:bool ->
  ?bankmodel:bool ->
  ?scale:int ->
  ?block_x:int ->
  arch:Gpusim.Arch.t ->
  Workloads.Common.t ->
  session

(** Run [workload] without instrumentation.  [transform] rewrites the
    PTX before execution (e.g. bypassing); [bankmodel] charges
    shared-memory bank-conflict replay cycles (see {!profile}); returns
    total kernel cycles and the host. *)
val run_native :
  ?bankmodel:bool ->
  ?transform:(Ptx.Isa.prog -> Ptx.Isa.prog) ->
  ?scale:int ->
  ?block_x:int ->
  arch:Gpusim.Arch.t ->
  Workloads.Common.t ->
  int * Hostrt.Host.t

(** Kernel instances of the session, in launch order. *)
val instances : session -> Profiler.Profile.instance list

(** Whole-application reuse-distance result (Section 4.2-(A)), merged
    over all kernel instances. *)
val reuse_distance :
  ?granularity:Analysis.Reuse_distance.granularity ->
  session ->
  Analysis.Reuse_distance.result

(** Whole-application memory-divergence distribution (Section 4.2-(B)).
    [line_size] defaults to the session architecture's. *)
val mem_divergence : ?line_size:int -> session -> Analysis.Mem_divergence.result

(** Whole-application branch divergence (Section 4.2-(C), Table 3). *)
val branch_divergence : session -> Analysis.Branch_divergence.result

(** Shared-memory bank-conflict aggregation over the session's conflict
    records, attributed to source lines and CCT device paths. *)
val bank_conflict : session -> Analysis.Bank_conflict.result

(** {2 The static fast path — [profile --tier static]} *)

(** IR-only estimate of the profiling metrics (coalescing degree,
    branch uniformity, reuse-distance histogram), each tagged with a
    confidence tier.  Compiles uninstrumented through the memoized
    compile cache and never touches the simulator. *)
val estimate : arch:Gpusim.Arch.t -> Workloads.Common.t -> Passes.Estimate.t

(** [estimate] rendered as the machine-readable report served for
    [profile_fast] / [profile --tier static]. *)
val estimate_json : arch:Gpusim.Arch.t -> Workloads.Common.t -> Analysis.Json.t

(** {2 Correctness checking — [advisor check]} *)

type check_report = {
  checked_app : string;
  static_findings : Passes.Check_static.finding list;
  races : Analysis.Race.result;
}

(** The instrumentation selection the dynamic detector runs under
    (sharing hooks only). *)
val check_options : Passes.Instrument.options

(** Run the static pass (divergent barriers, constant out-of-bounds
    GEPs) over the pristine module, then the workload under sharing
    instrumentation feeding the barrier-epoch race detector. *)
val check :
  ?scale:int -> arch:Gpusim.Arch.t -> Workloads.Common.t -> check_report

(** Definite problems (static findings + races); redundant-barrier
    advice does not count. *)
val check_error_count : check_report -> int

val check_report_json : check_report -> Analysis.Json.t

(** One row of Figures 6/7: baseline vs exhaustive-oracle vs Eq.-(1)
    prediction for horizontal cache bypassing. *)
type bypass_experiment = {
  app : string;
  arch_name : string;
  warps_per_cta : int;
  baseline_cycles : int;
  sweep : (int * int) list;  (** (caching warps per CTA, cycles) *)
  oracle_warps : int;
  oracle_cycles : int;
  predicted_warps : int;
  predicted_cycles : int;
}

(** Rewrite every kernel of [prog] for horizontal bypassing with the
    given number of caching warps (Listing 5). *)
val rewrite_all_kernels : Ptx.Isa.prog -> warps_to_cache:int -> Ptx.Isa.prog

(** The full bypassing study of Section 4.2-(D): profile, predict with
    Eq. (1), sweep the warp counts exhaustively for the oracle.  The
    baseline and sweep-point simulations are independent and fan out
    over [domains] domains (see {!Pool.map}); the result does not
    depend on the domain count. *)
val bypass_study :
  ?scale:int ->
  ?domains:int ->
  arch:Gpusim.Arch.t ->
  Workloads.Common.t ->
  bypass_experiment

(** Vertical bypassing (the alternative scheme contrasted in Section
    4.2-(D)): load *sites* with an L1-visible reuse fraction below
    [threshold] are flipped to [ld.cg] for every warp. *)
type vertical_experiment = {
  v_app : string;
  v_baseline_cycles : int;
  v_cycles : int;
  v_sites_bypassed : int;
  v_sites_total : int;
}

val vertical_bypass_study :
  ?threshold:float ->
  ?scale:int ->
  arch:Gpusim.Arch.t ->
  Workloads.Common.t ->
  vertical_experiment

(** Instrumentation overhead (Section 5, Figure 10): instrumented vs
    native cycles under memory + control-flow instrumentation. *)
type overhead = {
  oh_app : string;
  oh_arch : string;
  native_cycles : int;
  instrumented_cycles : int;
  slowdown : float;
}

val overhead_study :
  ?scale:int -> arch:Gpusim.Arch.t -> Workloads.Common.t -> overhead
