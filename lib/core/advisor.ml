(* CUDAAdvisor's front door: the three-component pipeline of Figure 1
   (instrumentation engine -> profiler -> analyzer), wired end to end.

   - [instrument_source] runs the engine: MiniCUDA -> bitcode ->
     instrumented bitcode -> PTX (Figure 2);
   - [profile] runs a workload under the profiler and returns a session
     holding the raw profiles;
   - the analysis accessors produce the metrics of Section 4.2. *)

type compiled = {
  modul : Bitc.Irmod.t;
  manifest : Passes.Manifest.t option; (* None when uninstrumented *)
  prog : Ptx.Isa.prog;
}

(* Compile device source; when [instrument] is set, run the engine with
   the given optional-instrumentation selection. *)
let compile_uncached ?instrument ~file src =
  Obs.Trace.with_span ~cat:"compile" "compile" @@ fun () ->
  let modul =
    Obs.Trace.with_span ~cat:"compile" "frontend" (fun () ->
        Minicuda.Frontend.compile ~file src)
  in
  let manifest =
    match instrument with
    | None -> None
    | Some options ->
      Obs.Trace.with_span ~cat:"compile" "instrument" (fun () ->
          let r = Passes.Instrument.run ~options modul in
          Some r.Passes.Instrument.manifest)
  in
  let prog =
    Obs.Trace.with_span ~cat:"compile" "codegen" (fun () ->
        Ptx.Codegen.gen_module modul)
  in
  { modul; manifest; prog }

(* Experiments recompile the same workload dozens of times (a bypass
   sweep is ~15 otherwise-identical runs), so compilation memoizes on
   (file, source, instrumentation options).  The cache key carries the
   full option set because [Passes.Instrument.run] rewrites the module
   in place: each distinct instrumentation of a source is compiled
   fresh, then shared.  Everything in [compiled] is read-only after
   construction — the PTX program in particular is safe to simulate
   from several domains at once.

   Concurrency: the lock protects only the table, never a compilation.
   A cold key is published as [In_flight] first, then compiled *outside*
   the lock, then published as [Ready] — so distinct keys compile
   concurrently (parallel sweeps and serve requests used to serialize
   every cold compile on this one mutex), while duplicate keys wait on
   the condition variable for the first compiler instead of compiling
   twice.  If the compile raises, the slot is removed and waiters are
   woken so one of them can claim the key and surface the same error. *)
type cache_slot = Ready of compiled | In_flight

let compile_cache :
    (string * string * Passes.Instrument.options option, cache_slot) Hashtbl.t =
  Hashtbl.create 16

let compile_cache_lock = Mutex.create ()
let compile_cache_cond = Condition.create ()

(* Hit/miss counts live in the Obs metrics registry
   ("advisor.compile_cache.*").  A "wait" is a request that found its
   key in flight and blocked for the first compiler (it counts as a hit
   once the result arrives). *)
let compile_cache_hits = Obs.Metrics.counter "advisor.compile_cache.hits"
let compile_cache_misses = Obs.Metrics.counter "advisor.compile_cache.misses"
let compile_cache_waits = Obs.Metrics.counter "advisor.compile_cache.waits"

let compile_source ?instrument ~file src =
  let key = (file, src, instrument) in
  (* Under the lock: either hand back a ready result, claim the key for
     this domain, or wait for the in-flight compiler and re-check. *)
  let claim () =
    Mutex.lock compile_cache_lock;
    let rec go ~waited =
      match Hashtbl.find_opt compile_cache key with
      | Some (Ready compiled) ->
        Obs.Metrics.incr compile_cache_hits;
        Mutex.unlock compile_cache_lock;
        `Done compiled
      | Some In_flight ->
        if not waited then Obs.Metrics.incr compile_cache_waits;
        Condition.wait compile_cache_cond compile_cache_lock;
        go ~waited:true
      | None ->
        Obs.Metrics.incr compile_cache_misses;
        Hashtbl.replace compile_cache key In_flight;
        Mutex.unlock compile_cache_lock;
        `Compile
    in
    go ~waited:false
  in
  let publish slot =
    Mutex.protect compile_cache_lock (fun () ->
        (match slot with
        | Some compiled -> Hashtbl.replace compile_cache key (Ready compiled)
        | None -> Hashtbl.remove compile_cache key);
        Condition.broadcast compile_cache_cond)
  in
  match claim () with
  | `Done compiled -> compiled
  | `Compile -> (
    match compile_uncached ?instrument ~file src with
    | compiled ->
      publish (Some compiled);
      compiled
    | exception e ->
      publish None;
      raise e)

(* ----- canonical result keys (content-addressed result caching) ----- *)

(* Whitespace normalization for cache-key purposes only (the compiler
   always sees the original text): CRLF -> LF, trailing whitespace
   stripped from every line, trailing blank lines dropped.  None of
   these can change the line or column of any token, so two sources
   with equal canonical forms compile to identical programs and produce
   byte-identical reports. *)
let canonical_source src =
  let strip_line line =
    let n = String.length line in
    let n = if n > 0 && line.[n - 1] = '\r' then n - 1 else n in
    let rec keep i =
      if i > 0 && (line.[i - 1] = ' ' || line.[i - 1] = '\t') then keep (i - 1)
      else i
    in
    String.sub line 0 (keep n)
  in
  let lines = List.map strip_line (String.split_on_char '\n' src) in
  let rec drop_blank = function "" :: rest -> drop_blank rest | l -> l in
  String.concat "\n" (List.rev (drop_blank (List.rev lines)))

(* The content-addressed identity of one result: a digest over a
   canonical field list — sorted keys, defaults already filled in by
   the caller, source reduced to the digest of its canonical form.
   Anything that can change the result bytes must be in here; anything
   that cannot (request ids, timeouts, fan-out width) must not be, or
   identical requests would stop sharing an entry. *)
let result_key ~op ~app ~arch_name ~scale ?(extra = []) ~source () =
  let fields =
    ("app", app) :: ("arch", arch_name) :: ("op", op)
    :: ("scale", string_of_int scale)
    :: ("source", Digest.to_hex (Digest.string (canonical_source source)))
    :: extra
  in
  let fields =
    List.sort (fun (a, _) (b, _) -> String.compare a b) fields
  in
  let canon =
    String.concat "&"
      (List.map (fun (k, v) -> k ^ "=" ^ String.escaped v) fields)
  in
  Digest.to_hex (Digest.string canon)

let instrument_source ?(options = Passes.Instrument.all) ~file src =
  compile_source ~instrument:options ~file src

(* ----- profiling sessions ----- *)

type session = {
  workload : Workloads.Common.t;
  arch : Gpusim.Arch.t;
  profiler : Profiler.Profile.t;
  host : Hostrt.Host.t;
  scale : int;
}

(* Default instrumentation for profiling sessions: memory + control
   flow, as in the paper's case studies (arithmetic hooks are opt-in). *)
let default_options =
  { Passes.Instrument.memory = true; control_flow = true; arithmetic = false; sharing = false }

(* Run [workload] fully instrumented under the profiler.  [block_x]
   forces the CTA width on every launch (the block-size tuning knob of
   `advisor evaluate`), grid-rescaled by the host runtime.  [bankmodel]
   opts every launch into charging shared-memory bank-conflict replays
   as issue cycles; conflict *records* are collected either way. *)
let profile ?(options = default_options) ?(keep_mem_events = true)
    ?(bankmodel = false) ?scale ?block_x ~arch (workload : Workloads.Common.t) =
  Obs.Trace.with_span ~cat:"advisor" ("profile:" ^ workload.name) @@ fun () ->
  let scale = Option.value scale ~default:workload.default_scale in
  let compiled =
    compile_source ~instrument:options ~file:workload.source_file workload.source
  in
  let manifest = Option.get compiled.manifest in
  let profiler = Profiler.Profile.create ~keep_mem_events ~manifest () in
  let host =
    Hostrt.Host.create ~profiler ~bankmodel ?block_x_override:block_x ~arch
      ~prog:compiled.prog ()
  in
  Obs.Trace.with_span ~cat:"advisor" ("run:" ^ workload.name) (fun () ->
      workload.run host ~scale);
  { workload; arch; profiler; host; scale }

(* Run [workload] natively (no instrumentation, no profiler); returns
   total kernel cycles — the baseline of the overhead study (Fig. 10)
   and of the bypassing experiments (Figs. 6/7). *)
let run_native ?(bankmodel = false) ?(transform = fun p -> p) ?scale ?block_x
    ~arch (workload : Workloads.Common.t) =
  Obs.Trace.with_span ~cat:"advisor" ("native:" ^ workload.name) @@ fun () ->
  let scale = Option.value scale ~default:workload.default_scale in
  let compiled = compile_source ~file:workload.source_file workload.source in
  let prog = transform compiled.prog in
  let host = Hostrt.Host.create ~bankmodel ?block_x_override:block_x ~arch ~prog () in
  workload.run host ~scale;
  (Hostrt.Host.total_kernel_cycles host, host)

(* ----- analyzer accessors (Section 4.2) ----- *)

let instances session = Profiler.Profile.instances session.profiler

let reuse_distance ?granularity session =
  Obs.Trace.with_span ~cat:"analysis" "analysis.reuse_distance" @@ fun () ->
  Analysis.Reuse_distance.merge
    (List.map (Analysis.Reuse_distance.of_instance ?granularity) (instances session))

let mem_divergence ?line_size session =
  Obs.Trace.with_span ~cat:"analysis" "analysis.mem_divergence" @@ fun () ->
  let line_size = Option.value line_size ~default:session.arch.Gpusim.Arch.line_size in
  Analysis.Mem_divergence.merge
    (List.map (Analysis.Mem_divergence.of_instance ~line_size) (instances session))

let branch_divergence session =
  Obs.Trace.with_span ~cat:"analysis" "analysis.branch_divergence" @@ fun () ->
  Analysis.Branch_divergence.of_instances (instances session)

let bank_conflict session =
  Obs.Trace.with_span ~cat:"analysis" "analysis.bank_conflict" @@ fun () ->
  Analysis.Bank_conflict.of_profile ~arch:session.arch session.profiler

(* ----- the static fast path (`profile --tier static`) ----- *)

(* IR-only estimate of the profiling metrics: compile uninstrumented
   (memoized — warm requests skip straight to the pass) and run the
   static estimator with the workload's launch geometry and the
   architecture's cache-line size.  No simulator, no host run: this is
   the sub-millisecond tier the serve daemon answers from its intake
   domain. *)
let estimate ~arch (workload : Workloads.Common.t) =
  Obs.Trace.with_span ~cat:"advisor" ("estimate:" ^ workload.name) @@ fun () ->
  let compiled = compile_source ~file:workload.source_file workload.source in
  Passes.Estimate.run ~block:workload.block_dims
    ~banks:arch.Gpusim.Arch.shared_banks
    ~bank_width:arch.Gpusim.Arch.shared_bank_width
    ~line_size:arch.Gpusim.Arch.line_size compiled.modul

let estimate_json ~arch (workload : Workloads.Common.t) =
  Analysis.Report.estimate_json ~app:workload.name
    ~arch_name:arch.Gpusim.Arch.name
    (estimate ~arch workload)

(* ----- correctness checking (`advisor check`) ----- *)

type check_report = {
  checked_app : string;
  static_findings : Passes.Check_static.finding list;
  races : Analysis.Race.result;
}

(* Instrumentation used by the dynamic race detector: only the
   correctness hooks, so the run stays cheap and the profiling hook mix
   (and its golden metrics) is untouched. *)
let check_options =
  { Passes.Instrument.memory = false;
    control_flow = false;
    arithmetic = false;
    sharing = true }

(* Run both halves of the checker on a workload: the static pass over
   the pristine (uninstrumented) module, then a run with sharing
   instrumentation feeding the barrier-epoch race detector. *)
let check ?scale ~arch (workload : Workloads.Common.t) =
  Obs.Trace.with_span ~cat:"advisor" ("check:" ^ workload.name) @@ fun () ->
  let pristine = compile_source ~file:workload.source_file workload.source in
  let static_findings =
    Obs.Trace.with_span ~cat:"analysis" "check.static" (fun () ->
        Passes.Check_static.run pristine.modul)
  in
  let session =
    profile ~options:check_options ~keep_mem_events:false ?scale ~arch workload
  in
  let races =
    Obs.Trace.with_span ~cat:"analysis" "check.races" (fun () ->
        Analysis.Race.of_profile session.profiler)
  in
  { checked_app = workload.name; static_findings; races }

(* Definite problems only — redundant-barrier advice does not count. *)
let check_error_count r =
  List.length r.static_findings + List.length r.races.Analysis.Race.races

let check_report_json r =
  Analysis.Report.check_json ~app:r.checked_app ~static:r.static_findings
    r.races

(* ----- the bypassing study (Section 4.2-(D)) ----- *)

type bypass_experiment = {
  app : string;
  arch_name : string;
  warps_per_cta : int;
  baseline_cycles : int; (* no bypassing: every warp uses L1 *)
  (* (warps allowed to cache, cycles) for every setting tried *)
  sweep : (int * int) list;
  oracle_warps : int;
  oracle_cycles : int;
  predicted_warps : int; (* from Eq. (1) *)
  predicted_cycles : int;
}

let rewrite_all_kernels prog ~warps_to_cache =
  List.fold_left
    (fun p (name, f) ->
      if f.Ptx.Isa.is_kernel then
        Ptx.Bypass.rewrite_prog p ~kernel:name ~warps_to_cache
      else p)
    prog prog.Ptx.Isa.funcs

(* Run the full study for one app on one architecture: a profiled run
   feeds Eq. (1); the oracle exhaustively sweeps the number of caching
   warps like [31] does in its sampling phase. *)
let bypass_study ?scale ?domains ~arch (workload : Workloads.Common.t) =
  Obs.Trace.with_span ~cat:"advisor" ("bypass_study:" ^ workload.name) @@ fun () ->
  let session = profile ?scale ~arch workload in
  (* Eq. (1) multiplies R.D. by the cache-line size, i.e. the reuse
     footprint is counted in cache lines: use the line-based RD model. *)
  let rd =
    reuse_distance
      ~granularity:(Analysis.Reuse_distance.Cache_line arch.Gpusim.Arch.line_size)
      session
  in
  let md = mem_divergence session in
  let warps_per_cta = workload.warps_per_cta in
  (* CTAs resident per SM: the occupancy limit capped by how many CTAs
     the application's launches actually put on each SM *)
  let occupancy = Gpusim.Gpu.occupancy_limit arch ~warps_per_cta ~shared_bytes:0 in
  let num_sms = arch.Gpusim.Arch.num_sms in
  let ctas_per_sm =
    List.fold_left
      (fun acc (_, (r : Gpusim.Gpu.result)) ->
        max acc (min occupancy ((r.ctas + num_sms - 1) / num_sms)))
      1
      (Hostrt.Host.launches session.host)
  in
  let inputs =
    Analysis.Bypass_model.inputs_of ~arch ~rd ~md ~ctas_per_sm ~warps_per_cta
  in
  let predicted_warps = Analysis.Bypass_model.optimal_warps inputs in
  let run_with n =
    let transform prog = rewrite_all_kernels prog ~warps_to_cache:n in
    fst (run_native ?scale ~arch ~transform workload)
  in
  (* exhaustive up to 8 warps, stride 2 beyond (the curve is smooth) *)
  let points =
    List.init (warps_per_cta + 1) Fun.id
    |> List.filter (fun n -> n <= 8 || n mod 2 = 0)
  in
  (* every run is an independent simulation on its own device state, so
     the baseline and the sweep points fan out across domains *)
  let cycles =
    Pool.map ?domains
      (function None -> fst (run_native ?scale ~arch workload) | Some n -> run_with n)
      (None :: List.map Option.some points)
  in
  let baseline_cycles, sweep =
    match cycles with
    | baseline :: sweep_cycles -> (baseline, List.combine points sweep_cycles)
    | [] -> assert false
  in
  let oracle_warps, oracle_cycles =
    List.fold_left
      (fun (bn, bc) (n, c) -> if c < bc then (n, c) else (bn, bc))
      (warps_per_cta, baseline_cycles)
      sweep
  in
  let predicted_cycles =
    if predicted_warps >= warps_per_cta then baseline_cycles
    else
      match List.assoc_opt predicted_warps sweep with
      | Some c -> c
      | None -> run_with predicted_warps
  in
  {
    app = workload.name;
    arch_name = arch.Gpusim.Arch.name;
    warps_per_cta;
    baseline_cycles;
    sweep;
    oracle_warps;
    oracle_cycles;
    predicted_warps;
    predicted_cycles;
  }

(* ----- vertical bypassing (the alternative scheme of Section 4.2-(D)) ----- *)

type vertical_experiment = {
  v_app : string;
  v_baseline_cycles : int;
  v_cycles : int; (* with low-reuse load sites bypassed for every warp *)
  v_sites_bypassed : int;
  v_sites_total : int;
}

(* Profile, find the load sites with (almost) no L1-visible reuse, flip
   them to ld.cg for every warp, and re-run. *)
let vertical_bypass_study ?(threshold = 0.15) ?scale ~arch
    (workload : Workloads.Common.t) =
  Obs.Trace.with_span ~cat:"advisor" ("vertical_bypass:" ^ workload.name)
  @@ fun () ->
  let session = profile ?scale ~arch workload in
  let line_size = arch.Gpusim.Arch.line_size in
  let traces =
    List.map
      (fun (i : Profiler.Profile.instance) -> i.trace)
      (instances session)
  in
  let sites = Analysis.Site_reuse.of_traces ~line_size traces in
  let candidates = Analysis.Site_reuse.candidates_of_sites ~threshold sites in
  let should_bypass loc = List.exists (Bitc.Loc.equal loc) candidates in
  let transform prog = Ptx.Bypass.rewrite_prog_vertical prog ~should_bypass in
  let baseline = fst (run_native ?scale ~arch workload) in
  let rewritten = fst (run_native ?scale ~arch ~transform workload) in
  {
    v_app = workload.name;
    v_baseline_cycles = baseline;
    v_cycles = rewritten;
    v_sites_bypassed = List.length candidates;
    v_sites_total = List.length sites;
  }

(* ----- the overhead study (Section 5, Figure 10) ----- *)

type overhead = {
  oh_app : string;
  oh_arch : string;
  native_cycles : int;
  instrumented_cycles : int;
  slowdown : float;
}

(* Memory + control-flow instrumentation, as in Figure 10. *)
let overhead_study ?scale ~arch (workload : Workloads.Common.t) =
  Obs.Trace.with_span ~cat:"advisor" ("overhead_study:" ^ workload.name)
  @@ fun () ->
  let native_cycles = fst (run_native ?scale ~arch workload) in
  let options =
    { Passes.Instrument.memory = true; control_flow = true; arithmetic = false; sharing = false }
  in
  let session = profile ~options ~keep_mem_events:false ?scale ~arch workload in
  let instrumented_cycles = Hostrt.Host.total_kernel_cycles session.host in
  {
    oh_app = workload.name;
    oh_arch = arch.Gpusim.Arch.name;
    native_cycles;
    instrumented_cycles;
    slowdown = float_of_int instrumented_cycles /. float_of_int (max 1 native_cycles);
  }
