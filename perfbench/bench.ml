(* The in-process half of the benchmark (run.py drives it).

     bench.exe sim-native|compile-static|serve-replay
       --seed N --seconds S [--trace] [--setup-only] [--spans FILE]
     bench.exe stream --seed N      print the serve-profile stream
     bench.exe warmup-lines         print the daemon warm-up requests
     bench.exe sim-record           print every sim-native input's counts

   A workload run prints "READY" once set-up (process start plus an
   untimed warm-up) is done, then a single JSON line with every op it
   timed.  With --trace, each call into a layer's public entry points
   is wrapped in a {!Span}; the per-layer summary is added to the JSON.
   The traced calls recompose [Advisor.run_native], [Advisor.profile],
   [Advisor.check] and [Router.dispatch] from the public functions those
   call, so a layer's time can be told apart; untraced ops call the
   front doors themselves, and the checks catch any difference. *)

module Json = Analysis.Json

let now_ns = Obs.Clock.now_ns

let ready () =
  print_string "READY\n";
  flush stdout

(* VmHWM of this process, in kB. *)
let peak_rss_kb () =
  let status = In_channel.with_open_text "/proc/self/status" In_channel.input_all in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
        match String.split_on_char ' ' (String.trim v) with
        | n :: _ -> int_of_string n
        | [] -> acc)
      | _ -> acc)
    0
    (String.split_on_char '\n' status)

let workload = Workloads.Registry.find

(* ----- counts read from the simulator's results ----- *)

type counts = {
  mutable warp_insts : int;
  mutable cycles : int;
  mutable launches : int;
  mutable mem_txns : int;
  mutable l1_reads : int;
  mutable l1_hits : int;
  mutable l2_reads : int;
  mutable l2_hits : int;
  mutable mshr_stalls : int;
  mutable hook_calls : int;
  mutable trace_events : int;
}

let counts () =
  { warp_insts = 0; cycles = 0; launches = 0; mem_txns = 0; l1_reads = 0;
    l1_hits = 0; l2_reads = 0; l2_hits = 0; mshr_stalls = 0; hook_calls = 0;
    trace_events = 0 }

let add_host c host =
  List.iter
    (fun (_, (r : Gpusim.Gpu.result)) ->
      let s = r.stats in
      c.warp_insts <- c.warp_insts + s.warp_insts;
      c.cycles <- c.cycles + r.cycles;
      c.launches <- c.launches + 1;
      c.mem_txns <- c.mem_txns + s.load_transactions + s.store_transactions;
      c.l1_reads <- c.l1_reads + r.l1_stats.reads;
      c.l1_hits <- c.l1_hits + r.l1_stats.read_hits;
      c.l2_reads <- c.l2_reads + r.l2_stats.reads;
      c.l2_hits <- c.l2_hits + r.l2_stats.read_hits;
      c.mshr_stalls <- c.mshr_stalls + r.mshr_stalls;
      c.hook_calls <- c.hook_calls + s.hook_calls)
    (Hostrt.Host.launches host)

let add_profiler c profiler =
  List.iter
    (fun (i : Profiler.Profile.instance) ->
      c.trace_events <- c.trace_events + Profiler.Tracebuf.length i.trace)
    (Profiler.Profile.instances profiler)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Per-op means of the counts, as per-layer metrics. *)
let count_metrics c ~ops ~run_ns =
  let per x = float_of_int x /. float_of_int (max 1 ops) in
  [ ("gpusim.warp_insts", per c.warp_insts);
    ("gpusim.cycles", per c.cycles);
    ("gpusim.launches", per c.launches);
    ("gpusim.mem_txns", per c.mem_txns);
    ("gpusim.l1_hit_ratio", ratio c.l1_hits c.l1_reads);
    ("gpusim.l2_hit_ratio", ratio c.l2_hits c.l2_reads);
    ("gpusim.mshr_stalls", per c.mshr_stalls);
    ("gpusim.hook_calls", per c.hook_calls);
    ("profiler.trace_events", per c.trace_events);
    ( "gpusim.minst_per_s",
      if run_ns = 0 then 0.
      else float_of_int c.warp_insts /. (float_of_int run_ns /. 1e9) /. 1e6 ) ]

(* ----- the per-layer summary of a traced phase ----- *)

(* Every span name the benchmark records, with the metric its self time
   is reported as (ms per op, or us per op for the cheap serve steps). *)
let layer_spans =
  [ ("core.compile", "core.compile_ms", 1e6);
    ("ptx.bypass", "ptx.bypass_ms", 1e6);
    ("hostrt.create", "hostrt.create_ms", 1e6);
    ("gpusim.run", "gpusim.run_ms", 1e6);
    ("profiler.create", "profiler.create_ms", 1e6);
    ("minicuda.frontend", "minicuda.frontend_ms", 1e6);
    ("passes.check_static", "passes.check_static_ms", 1e6);
    ("passes.estimate", "passes.estimate_ms", 1e6);
    ("passes.instrument", "passes.instrument_ms", 1e6);
    ("ptx.codegen", "ptx.codegen_ms", 1e6);
    ("ptx.decode", "ptx.decode_ms", 1e6);
    ("analysis.reuse_distance", "analysis.reuse_distance_ms", 1e6);
    ("analysis.mem_divergence", "analysis.mem_divergence_ms", 1e6);
    ("analysis.branch_divergence", "analysis.branch_divergence_ms", 1e6);
    ("analysis.race", "analysis.race_ms", 1e6);
    ("analysis.report", "analysis.report_ms", 1e6);
    ("analysis.encode", "analysis.encode_ms", 1e6);
    ("serve.parse", "serve.parse_us", 1e3);
    ("serve.validate", "serve.validate_us", 1e3);
    ("serve.cachekey", "serve.cachekey_us", 1e3);
    ("serve.cache", "serve.cache_us", 1e3);
    ("serve.respond", "serve.respond_us", 1e3);
    ("tune.run_batch", "tune.run_batch_ms", 1e6) ]

(* Layer self times per op, [unattributed_ms] (op time no layer span
   covered), the traced op time they add up to, and analysis allocation. *)
let layer_metrics ~ops =
  let tbl = Span.self_totals () in
  let per x = x /. float_of_int (max 1 ops) in
  let self name =
    match Hashtbl.find_opt tbl name with Some (ns, _, _) -> float_of_int ns | None -> 0.
  in
  let alloc prefix =
    Hashtbl.fold
      (fun name (_, w, _) acc ->
        if String.starts_with ~prefix name then acc +. w else acc)
      tbl 0.
  in
  let op_ns = List.fold_left ( + ) 0 (Span.op_durations ()) in
  List.map (fun (span, metric, unit) -> (metric, per (self span /. unit))) layer_spans
  @ [ ("unattributed_ms", per (self "op" /. 1e6));
      ("trace.op_ms", per (float_of_int op_ns /. 1e6));
      ("analysis.alloc_mw", per (alloc "analysis." /. 1e6)) ]

let self_ns name =
  match Hashtbl.find_opt (Span.self_totals ()) name with
  | Some (ns, _, _) -> ns
  | None -> 0

let gc_metrics ~ops (before : Gc.stat) =
  let after = Gc.quick_stat () in
  let per x = x /. float_of_int (max 1 ops) in
  [ ("gc.minor_mw_per_op", per ((after.minor_words -. before.minor_words) /. 1e6));
    ( "gc.major_per_op",
      per (float_of_int (after.major_collections - before.major_collections)) ) ]

let counter_value name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()) with
  | Some (Obs.Metrics.Counter n) -> n
  | _ -> 0

(* (hits, misses) deltas of the compile and decode caches over [f]. *)
let cache_ratios f =
  let read () =
    List.map counter_value
      [ "advisor.compile_cache.hits"; "advisor.compile_cache.misses";
        "ptx.decode_cache.hits"; "ptx.decode_cache.misses" ]
  in
  let before = read () in
  let x = f () in
  match List.map2 ( - ) (read ()) before with
  | [ ch; cm; dh; dm ] ->
    (x, [ ("core.compile_cache_hit_ratio", ratio ch (ch + cm));
          ("ptx.decode_cache_hit_ratio", ratio dh (dh + dm)) ])
  | _ -> assert false

let num f = Json.Float f
let metrics_json l = Json.Obj (List.map (fun (k, v) -> (k, num v)) l)

(* ----- timed loops ----- *)

(* Run whole passes until [seconds] have been spent inside them, and at
   least [min_passes]; the pass generator's own time is outside the
   measured time.  Returns (passes run, measured ns). *)
let timed_passes ?(min_passes = 1) ~seconds ~next_pass ~run_pass () =
  let budget = int_of_float (seconds *. 1e9) in
  let rec go passes spent =
    if spent >= budget && passes >= min_passes then (passes, spent)
    else begin
      let pass = next_pass () in
      let t0 = now_ns () in
      run_pass pass;
      go (passes + 1) (spent + now_ns () - t0)
    end
  in
  go 0 0

(* ----- sim-native ----- *)

let arch_of = function
  | Gen.Kepler -> Gpusim.Arch.kepler_k40c ()
  | Gen.Pascal -> Gpusim.Arch.pascal_p100 ()
  | Gen.Fig6 -> Gpusim.Arch.kepler_k40c ~num_sms:5 ~l1_kb:16 ()

let half_warps (w : Workloads.Common.t) = w.warps_per_cta / 2

(* One op: [Advisor.run_native] on one input. *)
let sim_op (i : Gen.sim_input) =
  let w = workload i.app in
  let transform =
    match i.target with
    | Gen.Fig6 ->
      Some (fun p -> Advisor.rewrite_all_kernels p ~warps_to_cache:(half_warps w))
    | _ -> None
  in
  snd (Advisor.run_native ?transform ~arch:(arch_of i.target) w)

(* The same op with each layer's entry point in a span. *)
let sim_op_traced (i : Gen.sim_input) =
  let w = workload i.app in
  let arch = arch_of i.target in
  let compiled =
    Span.run "core.compile" (fun () ->
        Advisor.compile_source ~file:w.source_file w.source)
  in
  let prog =
    match i.target with
    | Gen.Fig6 ->
      Span.run "ptx.bypass" (fun () ->
          Advisor.rewrite_all_kernels compiled.prog ~warps_to_cache:(half_warps w))
    | _ -> compiled.prog
  in
  let host = Span.run "hostrt.create" (fun () -> Hostrt.Host.create ~arch ~prog ()) in
  Span.run "gpusim.run" (fun () -> w.run host ~scale:w.default_scale);
  host

let sim_result_json ?(traced = false) id ~ns host =
  let c = counts () in
  add_host c host;
  Json.Obj
    [ ("id", Json.String id); ("ns", Json.Int ns); ("cycles", Json.Int c.cycles);
      ("warp_insts", Json.Int c.warp_insts); ("traced", Json.Bool traced) ]

(* Set-up: one Kepler run per app fills the compile and decode caches and
   grows the heap; lavaMD, whose run alone would double set-up time, is
   only compiled and decoded. *)
let sim_warmup () =
  List.iter
    (fun app ->
      if app = "lavaMD" then begin
        let w = workload app in
        let compiled = Advisor.compile_source ~file:w.source_file w.source in
        ignore (Ptx.Decode.of_prog compiled.prog)
      end
      else ignore (sim_op { Gen.app; target = Gen.Kepler }))
    Workloads.Registry.names

let sim_native ~seed ~seconds ~trace ~setup_only =
  sim_warmup ();
  ready ();
  if setup_only then []
  else begin
    let next_pass = Gen.sim_passes ~seed in
    let ops = ref [] in
    (* an untraced run needs two passes, so that ten samples lie beyond p80
       even on a machine slow enough for one pass to exceed [seconds] *)
    let phase ~traced seconds =
      let c = counts () in
      let run_pass =
        List.iter (fun (i : Gen.sim_input) ->
            let id = Gen.sim_input_id i in
            let t0 = now_ns () in
            let host =
              if traced then Span.op (List.length !ops) (fun () -> sim_op_traced i)
              else sim_op i
            in
            let ns = now_ns () - t0 in
            add_host c host;
            ops := (traced, sim_result_json ~traced id ~ns host) :: !ops)
      in
      let min_passes = if trace then 1 else 2 in
      let passes, spent = timed_passes ~min_passes ~seconds ~next_pass ~run_pass () in
      (passes, spent, c)
    in
    if not trace then begin
      let passes, spent, _ = phase ~traced:false seconds in
      [ ("ops", Json.List (List.rev_map snd !ops));
        ("passes", Json.Int passes); ("timed_ns", Json.Int spent) ]
    end
    else begin
      let p0, spent0, _ = phase ~traced:false (seconds /. 2.) in
      Span.enabled := true;
      let gc0 = Gc.quick_stat () in
      let (p1, spent1, c), caches =
        cache_ratios (fun () -> phase ~traced:true (seconds /. 2.))
      in
      Span.enabled := false;
      let traced_ops = List.length (List.filter fst !ops) in
      let overhead =
        100. *. ((float_of_int spent1 /. float_of_int p1)
                 /. (float_of_int spent0 /. float_of_int p0) -. 1.)
      in
      let layers =
        layer_metrics ~ops:traced_ops
        @ count_metrics c ~ops:traced_ops ~run_ns:(self_ns "gpusim.run")
        @ gc_metrics ~ops:traced_ops gc0 @ caches
        @ [ ("trace.overhead_pct", overhead) ]
      in
      [ ("ops", Json.List (List.rev_map snd !ops)); ("layers", metrics_json layers) ]
    end
  end

let sim_record () =
  List.map
    (fun (i : Gen.sim_input) ->
      let t0 = now_ns () in
      let host = sim_op i in
      sim_result_json (Gen.sim_input_id i) ~ns:(now_ns () - t0) host)
    Gen.sim_inputs

(* ----- compile-static ----- *)

let static_arch = Gpusim.Arch.kepler_k40c ()

(* What a variant must share with its pristine source.  Estimator
   values are compared to the pristine ones, never pinned, so work on
   estimator accuracy cannot fail the benchmark. *)
type static_facts = {
  degree : float;
  branch_percent : float;
  no_reuse : float;
  tags : string list;
  findings : int;
  hook_sites : int;
  insts : int;
}

let count_insts pred (p : Ptx.Isa.prog) =
  List.fold_left
    (fun acc (_, (f : Ptx.Isa.func)) ->
      Array.fold_left (fun acc i -> if pred i then acc + 1 else acc) acc f.body)
    0 p.funcs

let is_hook = function Ptx.Isa.Hook _ -> true | _ -> false

(* One op: everything a fresh kernel goes through before its first
   simulated instruction, plus the static answer.  Returns the facts
   checked against the pristine source. *)
let static_op ~app ~file source =
  let w = workload app in
  let arch = static_arch in
  let m = Span.run "minicuda.frontend" (fun () -> Minicuda.Frontend.compile ~file source) in
  let findings = Span.run "passes.check_static" (fun () -> Passes.Check_static.run m) in
  let est =
    Span.run "passes.estimate" (fun () ->
        Passes.Estimate.run ~block:w.block_dims ~banks:arch.shared_banks
          ~bank_width:arch.shared_bank_width ~line_size:arch.line_size m)
  in
  let report =
    Span.run "analysis.report" (fun () ->
        Analysis.Report.estimate_json ~app ~arch_name:arch.name est)
  in
  ignore (Span.run "analysis.encode" (fun () -> Json.to_string report));
  let prog = Span.run "ptx.codegen" (fun () -> Ptx.Codegen.gen_module m) in
  ignore (Span.run "ptx.decode" (fun () -> Ptx.Decode.decode prog));
  let m2 = Span.run "minicuda.frontend" (fun () -> Minicuda.Frontend.compile ~file source) in
  ignore
    (Span.run "passes.instrument" (fun () ->
         Passes.Instrument.run ~options:Advisor.default_options m2));
  let prog2 = Span.run "ptx.codegen" (fun () -> Ptx.Codegen.gen_module m2) in
  ignore (Span.run "ptx.decode" (fun () -> Ptx.Decode.decode prog2));
  let label = Passes.Estimate.confidence_label in
  {
    degree = est.degree;
    branch_percent = est.branch_percent;
    no_reuse = est.no_reuse_fraction;
    tags =
      [ label est.degree_confidence; label est.branch_confidence;
        label est.reuse_confidence; label est.bank_confidence ];
    findings = List.length findings;
    hook_sites = count_insts is_hook prog2;
    insts = count_insts (fun _ -> true) prog + count_insts (fun _ -> true) prog2;
  }

let in_range (f : static_facts) =
  f.degree >= 1. && f.degree <= 32.
  && f.branch_percent >= 0. && f.branch_percent <= 100.
  && f.no_reuse >= 0. && f.no_reuse <= 1.

(* Untimed warm-up passes of compile-static set-up (ten variants each). *)
let warmup_static_passes = 200

let compile_static ~seed ~seconds ~trace ~setup_only =
  let pristine = Hashtbl.create 16 in
  List.iter
    (fun (w : Workloads.Common.t) ->
      Hashtbl.replace pristine w.name (static_op ~app:w.name ~file:w.source_file w.source))
    Workloads.Registry.all;
  (* warm-up: the heap grows to its working size over a few hundred
     variants *)
  let warm = Gen.static_passes ~warmup:true ~seed () in
  for _ = 1 to warmup_static_passes do
    List.iter
      (fun (v : Gen.variant) -> ignore (static_op ~app:v.v_app ~file:v.v_file v.v_source))
      (warm ())
  done;
  ready ();
  if setup_only then []
  else begin
    let next_pass = Gen.static_passes ~seed () in
    let times = ref [] and failed = ref 0 and attempted = ref 0 in
    let source_bytes = ref 0 and hook_sites = ref 0 and insts = ref 0 in
    let failures = ref [] in
    let phase ~traced seconds =
      let run_pass =
        List.iter (fun (v : Gen.variant) ->
            incr attempted;
            let t0 = now_ns () in
            let result =
              match
                if traced then
                  Span.op !attempted (fun () ->
                      static_op ~app:v.v_app ~file:v.v_file v.v_source)
                else static_op ~app:v.v_app ~file:v.v_file v.v_source
              with
              | f -> Ok f
              | exception e -> Error (Printexc.to_string e)
            in
            let ns = now_ns () - t0 in
            times := (traced, ns) :: !times;
            let problem =
              match result with
              | Error e -> Some e
              | Ok f ->
                source_bytes := !source_bytes + String.length v.v_source;
                hook_sites := !hook_sites + f.hook_sites;
                insts := !insts + f.insts;
                if not (in_range f) then Some "estimate out of range"
                else if f <> Hashtbl.find pristine v.v_app then
                  Some "differs from its pristine source"
                else None
            in
            match problem with
            | None -> ()
            | Some msg ->
              incr failed;
              if List.length !failures < 5 then
                failures := Printf.sprintf "%s: %s" v.v_file msg :: !failures)
      in
      timed_passes ~seconds ~next_pass ~run_pass ()
    in
    let common passes spent =
      [ ("attempted", Json.Int !attempted); ("failed", Json.Int !failed);
        ("failures", Json.List (List.rev_map (fun s -> Json.String s) !failures));
        ("passes", Json.Int passes); ("timed_ns", Json.Int spent) ]
    in
    let op_ns () =
      Json.List
        (List.rev (List.filter_map (fun (t, x) -> if t then None else Some (Json.Int x)) !times))
    in
    if not trace then begin
      let passes, spent = phase ~traced:false seconds in
      ("ns", op_ns ()) :: common passes spent
    end
    else begin
      let p0, spent0 = phase ~traced:false (seconds /. 2.) in
      source_bytes := 0;
      hook_sites := 0;
      insts := 0;
      Span.enabled := true;
      let gc0 = Gc.quick_stat () in
      let (p1, spent1), caches =
        cache_ratios (fun () -> phase ~traced:true (seconds /. 2.))
      in
      Span.enabled := false;
      let ops = p1 * List.length Workloads.Registry.all in
      let per x = float_of_int x /. float_of_int (max 1 ops) in
      let overhead =
        100. *. ((float_of_int spent1 /. float_of_int p1)
                 /. (float_of_int spent0 /. float_of_int p0) -. 1.)
      in
      let layers =
        layer_metrics ~ops @ gc_metrics ~ops gc0 @ caches
        @ [ ("trace.overhead_pct", overhead);
            ("minicuda.source_kb", per !source_bytes /. 1024.);
            ("passes.hook_sites", per !hook_sites);
            ("ptx.insts", per !insts) ]
      in
      ("ns", op_ns ()) :: ("layers", metrics_json layers) :: common (p0 + p1) (spent0 + spent1)
    end
  end

(* ----- serve-profile, replayed in-process under tracing ----- *)

let resolve (req : Serve.Protocol.request) =
  let w = workload (Option.get req.app) in
  let arch = Option.get (Gpusim.Arch.of_name req.arch_name) in
  (w, arch)

(* [Advisor.profile] + [Report.of_profile], recomposed *)
let replay_profile c (w : Workloads.Common.t) (arch : Gpusim.Arch.t) =
  let compiled =
    Span.run "core.compile" (fun () ->
        Advisor.compile_source ~instrument:Advisor.default_options
          ~file:w.source_file w.source)
  in
  let profiler =
    Span.run "profiler.create" (fun () ->
        Profiler.Profile.create ~keep_mem_events:true
          ~manifest:(Option.get compiled.manifest) ())
  in
  let host =
    Span.run "hostrt.create" (fun () ->
        Hostrt.Host.create ~profiler ~bankmodel:false ~arch ~prog:compiled.prog ())
  in
  Span.run "gpusim.run" (fun () -> w.run host ~scale:w.default_scale);
  add_host c host;
  add_profiler c profiler;
  let instances = Profiler.Profile.instances profiler in
  let line_size = arch.line_size in
  let rd =
    Span.run "analysis.reuse_distance" (fun () ->
        match instances with
        | [] -> Analysis.Reuse_distance.of_events []
        | _ ->
          Analysis.Reuse_distance.merge
            (List.map Analysis.Reuse_distance.of_instance instances))
  in
  let md =
    Span.run "analysis.mem_divergence" (fun () ->
        match instances with
        | [] -> Analysis.Mem_divergence.of_events ~line_size []
        | _ ->
          Analysis.Mem_divergence.merge
            (List.map (Analysis.Mem_divergence.of_instance ~line_size) instances))
  in
  let bd =
    Span.run "analysis.branch_divergence" (fun () ->
        Analysis.Branch_divergence.of_instances instances)
  in
  Span.run "analysis.report" (fun () ->
      let module R = Analysis.Report in
      let events = List.concat_map Profiler.Profile.mem_events instances in
      let contexts =
        Analysis.Statistics.by_context instances ~metric:Analysis.Statistics.cycles
        |> List.map (fun (ctx, s) ->
               Json.Obj [ ("context", Json.String ctx); ("cycles", R.summary_json s) ])
      in
      Json.Obj
        [ ("application", Json.String w.name);
          ("architecture", Json.String arch.name);
          ("kernel_launches", Json.Int (List.length instances));
          ("launch_stats", R.launch_stats_json instances);
          ("reuse_distance", R.reuse_distance_json rd);
          ("memory_divergence", R.mem_divergence_json md);
          ("branch_divergence", R.branch_divergence_json bd);
          ("divergent_sites", R.sites_json ~line_size events ~top:5);
          ("contexts", Json.List contexts) ])

(* [Advisor.check] + [check_report_json], recomposed *)
let replay_check c (w : Workloads.Common.t) (arch : Gpusim.Arch.t) =
  let pristine =
    Span.run "core.compile" (fun () -> Advisor.compile_source ~file:w.source_file w.source)
  in
  let static_findings =
    Span.run "passes.check_static" (fun () -> Passes.Check_static.run pristine.modul)
  in
  let compiled =
    Span.run "core.compile" (fun () ->
        Advisor.compile_source ~instrument:Advisor.check_options ~file:w.source_file
          w.source)
  in
  let profiler =
    Span.run "profiler.create" (fun () ->
        Profiler.Profile.create ~keep_mem_events:false
          ~manifest:(Option.get compiled.manifest) ())
  in
  let host =
    Span.run "hostrt.create" (fun () ->
        Hostrt.Host.create ~profiler ~bankmodel:false ~arch ~prog:compiled.prog ())
  in
  Span.run "gpusim.run" (fun () -> w.run host ~scale:w.default_scale);
  add_host c host;
  add_profiler c profiler;
  let races = Span.run "analysis.race" (fun () -> Analysis.Race.of_profile profiler) in
  Span.run "analysis.report" (fun () ->
      Advisor.check_report_json { checked_app = w.name; static_findings; races })

(* [Advisor.estimate_json], recomposed *)
let replay_estimate (w : Workloads.Common.t) (arch : Gpusim.Arch.t) =
  let compiled =
    Span.run "core.compile" (fun () -> Advisor.compile_source ~file:w.source_file w.source)
  in
  let est =
    Span.run "passes.estimate" (fun () ->
        Passes.Estimate.run ~block:w.block_dims ~banks:arch.shared_banks
          ~bank_width:arch.shared_bank_width ~line_size:arch.line_size compiled.modul)
  in
  Span.run "analysis.report" (fun () ->
      Analysis.Report.estimate_json ~app:w.name ~arch_name:arch.name est)

type tune_counts = { mutable variants : int; mutable variant_hits : int }

(* What the daemon does with one request line: parse, validate, key,
   probe the result cache, compute on a miss, encode, store, frame the
   response.  Returns the response line. *)
let replay_line cache c tc line =
  let module P = Serve.Protocol in
  let error ~id ~op code msg = P.to_line (P.error_response ~id ~op ~code msg) in
  match Span.run "serve.parse" (fun () -> P.parse_request line) with
  | Error (id, code, msg) -> error ~id ~op:"?" code msg
  | Ok req -> (
    let id = req.id and op = req.op in
    match Span.run "serve.validate" (fun () -> Serve.Router.validate req) with
    | Error (code, msg) -> error ~id ~op code msg
    | Ok () -> (
      let key = Span.run "serve.cachekey" (fun () -> Serve.Cachekey.of_request req) in
      let find k = Span.run "serve.cache" (fun () -> Serve.Rescache.find cache k) in
      let store k raw = Span.run "serve.cache" (fun () -> Serve.Rescache.store cache k raw) in
      match Option.bind key find with
      | Some raw -> Span.run "serve.respond" (fun () -> P.ok_line_raw ~id ~op raw)
      | None -> (
        let w, arch = resolve req in
        let result =
          if Serve.Router.is_static req then Ok (replay_estimate w arch)
          else
            match op with
            | "profile" -> Ok (replay_profile c w arch)
            | "check" -> Ok (replay_check c w arch)
            | "evaluate" -> (
              match Serve.Router.evaluate_plan req with
              | Error e -> Error e
              | Ok (specs, baseline) ->
                let lookup k =
                  tc.variants <- tc.variants + 1;
                  let hit = find k in
                  if hit <> None then tc.variant_hits <- tc.variant_hits + 1;
                  hit
                in
                Ok
                  (Span.run "tune.run_batch" (fun () ->
                       Tune.Evaluate.run_batch ~domains:1 ~lookup ~store ~baseline
                         ~arch w specs)))
            | _ -> Error ("unknown_op", op)
        in
        match result with
        | Error (code, msg) -> error ~id ~op code msg
        | Ok result ->
          let raw = Span.run "analysis.encode" (fun () -> Json.to_string result) in
          Option.iter (fun k -> store k raw) key;
          Span.run "serve.respond" (fun () -> P.ok_line_raw ~id ~op raw))))

(* Native [gpusim.run] time of one (app, arch): the base that
   [profiler.hook_ms] subtracts from the instrumented runs. *)
let native_run_ns (w : Workloads.Common.t) arch =
  let compiled = Advisor.compile_source ~file:w.source_file w.source in
  let host = Hostrt.Host.create ~arch ~prog:compiled.prog () in
  let t0 = now_ns () in
  w.run host ~scale:w.default_scale;
  now_ns () - t0

let serve_replay ~seed ~setup_only =
  let cache = Serve.Rescache.create Serve.Rescache.default_config in
  let c = counts () and tc = { variants = 0; variant_hits = 0 } in
  List.iter (fun l -> ignore (replay_line cache (counts ()) tc l)) (Gen.warmup_lines ());
  ready ();
  if setup_only then []
  else begin
    let stream = Gen.serve_stream ~seed in
    Span.enabled := true;
    let gc0 = Gc.quick_stat () in
    let run_ns = ref 0 in
    let responses =
      List.mapi
        (fun i (item : Gen.stream_item) ->
          let t0 = now_ns () in
          let resp =
            try Span.op i (fun () -> replay_line cache c tc item.line)
            with e -> Printf.sprintf "{\"exception\":%S}" (Printexc.to_string e)
          in
          run_ns := !run_ns + (now_ns () - t0);
          resp)
        stream
    in
    Span.enabled := false;
    let ops = List.length stream in
    let gc = gc_metrics ~ops gc0 in
    (* per-op traced time, and the instrumented gpusim.run of each
       profile/check op, matched to its native run below *)
    let op_ns = List.map (fun d -> Json.Int d) (Span.op_durations ()) in
    let gpusim_ns = Array.make ops 0 in
    for i = 0 to Span.spans.n - 1 do
      if Span.spans.name.(i) = "gpusim.run" && Span.spans.op.(i) >= 0 then
        gpusim_ns.(Span.spans.op.(i)) <- gpusim_ns.(Span.spans.op.(i)) + Span.dur i
    done;
    let hook_ns = ref 0 in
    List.iteri
      (fun i (item : Gen.stream_item) ->
        if gpusim_ns.(i) > 0 then
          match Serve.Protocol.parse_request item.line with
          | Ok req ->
            let w, arch = resolve req in
            hook_ns := !hook_ns + gpusim_ns.(i) - native_run_ns w arch
          | Error _ -> ())
      stream;
    let layers =
      layer_metrics ~ops
      @ count_metrics c ~ops ~run_ns:(self_ns "gpusim.run")
      @ gc
      @ [ ("profiler.hook_ms", float_of_int !hook_ns /. 1e6 /. float_of_int ops);
          ("tune.variants", float_of_int tc.variants);
          ("tune.variant_hit_ratio", ratio tc.variant_hits tc.variants) ]
    in
    [ ("responses", Json.List (List.map (fun s -> Json.String s) responses));
      ("op_ns", Json.List op_ns);
      ("layers", metrics_json layers) ]
  end

(* ----- command line ----- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let seed = Option.fold ~none:1 ~some:int_of_string (opt "--seed" args) in
  let seconds = Option.fold ~none:20. ~some:float_of_string (opt "--seconds" args) in
  let trace = List.mem "--trace" args in
  let setup_only = List.mem "--setup-only" args in
  let emit fields =
    if not setup_only then begin
      let fields = fields @ [ ("peak_rss_kb", Json.Int (peak_rss_kb ())) ] in
      print_endline (Json.to_string (Json.Obj fields))
    end;
    Option.iter Span.write_chrome (opt "--spans" args)
  in
  match args with
  | "sim-native" :: _ -> emit (sim_native ~seed ~seconds ~trace ~setup_only)
  | "compile-static" :: _ -> emit (compile_static ~seed ~seconds ~trace ~setup_only)
  | "serve-replay" :: _ -> emit (serve_replay ~seed ~setup_only)
  | "sim-record" :: _ -> print_endline (Json.to_string (Json.List (sim_record ())))
  | "warmup-lines" :: _ -> List.iter print_endline (Gen.warmup_lines ())
  | "stream" :: _ ->
    List.iter
      (fun (s : Gen.stream_item) ->
        print_endline
          (Json.to_string
             (Json.Obj
                [ ("line", Json.String s.line); ("key", Json.String s.key);
                  ("kind", Json.String s.kind);
                  ( "repeat_of",
                    match s.repeat_of with Some i -> Json.Int i | None -> Json.Null ) ])))
      (Gen.serve_stream ~seed)
  | _ ->
    prerr_endline
      "usage: bench.exe (sim-native|compile-static|serve-replay|stream|warmup-lines|sim-record) \
       [--seed N] [--seconds S] [--trace] [--setup-only] [--spans FILE]";
    exit 2
