(* End-to-end tests of the Advisor facade: profiling sessions, the
   overhead study and the bypassing study. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let arch = Gpusim.Arch.kepler_k40c ~l1_kb:16 ()

let test_instrument_source () =
  let c =
    Advisor.instrument_source ~file:"k.cu"
      "__global__ void k(float* a) { a[threadIdx.x] = 1.0f; }"
  in
  check "manifest present" true (c.manifest <> None);
  check "prog has kernel" true
    (List.exists (fun (n, _) -> n = "k") c.prog.Ptx.Isa.funcs)

let test_profile_session () =
  let w = Workloads.Registry.find "nn" in
  let s = Advisor.profile ~arch w in
  check "instances recorded" true (Advisor.instances s <> []);
  let rd = Advisor.reuse_distance s in
  check "nn is streaming" true (Analysis.Reuse_distance.no_reuse_fraction rd > 0.99);
  let md = Advisor.mem_divergence s in
  check "nn coalesced" true (md.degree < 1.1);
  let bd = Advisor.branch_divergence s in
  check "nn near-zero divergence" true (Analysis.Branch_divergence.percent bd < 2.)

let test_profile_options_respected () =
  let w = Workloads.Registry.find "nn" in
  let s =
    Advisor.profile
      ~options:
        { Passes.Instrument.memory = false; control_flow = true; arithmetic = false; sharing = false }
      ~arch w
  in
  let i = List.hd (Advisor.instances s) in
  check_int "no memory events without memory hooks" 0 i.mem_count;
  check "blocks still recorded" true (Hashtbl.length i.bb_stats > 0)

let test_run_native_deterministic () =
  let w = Workloads.Registry.find "nn" in
  let a = fst (Advisor.run_native ~arch w) in
  let b = fst (Advisor.run_native ~arch w) in
  check_int "same cycles across runs" a b

let test_overhead_positive () =
  let w = Workloads.Registry.find "nn" in
  let o = Advisor.overhead_study ~arch w in
  check "instrumented slower" true (o.slowdown > 1.5);
  check "paper band (<= 500x)" true (o.slowdown < 500.)

let test_bypass_study_shape () =
  let w = Workloads.Registry.find "bicg" in
  let b = Advisor.bypass_study ~arch:(Gpusim.Arch.kepler_k40c ~num_sms:5 ~l1_kb:16 ()) w in
  check_int "sweep covers 0..warps" (b.warps_per_cta + 1) (List.length b.sweep);
  check "oracle no worse than baseline" true (b.oracle_cycles <= b.baseline_cycles);
  check "oracle no worse than prediction" true (b.oracle_cycles <= b.predicted_cycles);
  (* full caching must behave like the baseline (modulo the prologue) *)
  let full = List.assoc b.warps_per_cta b.sweep in
  let ratio = float_of_int full /. float_of_int b.baseline_cycles in
  check "N=warps == baseline within 10%" true (ratio > 0.9 && ratio < 1.1);
  check "prediction in range" true
    (b.predicted_warps >= 0 && b.predicted_warps <= b.warps_per_cta)

(* ----- the domain pool ----- *)

let test_pool_map_order () =
  let xs = List.init 37 Fun.id in
  Alcotest.(check (list int))
    "map preserves input order" (List.map (fun x -> x * x) xs)
    (Pool.map ~domains:4 (fun x -> x * x) xs);
  Alcotest.(check (list int)) "empty list" [] (Pool.map ~domains:4 Fun.id []);
  Alcotest.(check (list int))
    "sequential fallback" [ 2; 4 ]
    (Pool.map ~domains:1 (fun x -> 2 * x) [ 1; 2 ])

let test_pool_map_exception () =
  match
    Pool.map ~domains:3
      (fun x -> if x mod 5 = 3 then failwith (string_of_int x) else x)
      (List.init 20 Fun.id)
  with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
    (* first failing input in input order, not completion order *)
    Alcotest.(check string) "first error wins" "3" msg

(* The sweep must not depend on how many domains execute it. *)
let test_bypass_parallel_deterministic () =
  let w = Workloads.Registry.find "nn" in
  let arch = Gpusim.Arch.kepler_k40c ~num_sms:5 ~l1_kb:16 () in
  let a = Advisor.bypass_study ~domains:1 ~arch w in
  let b = Advisor.bypass_study ~domains:4 ~arch w in
  check "parallel sweep == sequential sweep" true (a = b)

let test_compile_cache_hits () =
  let src = "__global__ void memo(float* a) { a[threadIdx.x] = 3.0f; }" in
  let hits () = Obs.Metrics.(counter_value (counter "advisor.compile_cache.hits")) in
  let c1 = Advisor.compile_source ~file:"memo.cu" src in
  let hits0 = hits () in
  let c2 = Advisor.compile_source ~file:"memo.cu" src in
  let hits1 = hits () in
  check "same compiled value returned" true (c1 == c2);
  check "hit counted" true (hits1 = hits0 + 1);
  (* a different instrumentation selection is a different cache entry *)
  let c3 =
    Advisor.compile_source
      ~instrument:
        { Passes.Instrument.memory = true; control_flow = false; arithmetic = false; sharing = false }
      ~file:"memo.cu" src
  in
  check "instrumented compile is distinct" true (c3 != c1)

let test_rewrite_all_kernels () =
  let c =
    Advisor.instrument_source ~file:"k.cu"
      "__global__ void k1(float* a) { a[0] = a[1]; }\n__global__ void k2(float* a) { a[2] = a[3]; }"
  in
  let rewritten = Advisor.rewrite_all_kernels c.prog ~warps_to_cache:1 in
  let has_cg name =
    let f = Ptx.Isa.find_func rewritten name in
    Array.exists
      (function Ptx.Isa.Ld { cop = Ptx.Isa.Cg; _ } -> true | _ -> false)
      f.Ptx.Isa.body
  in
  check "k1 rewritten" true (has_cg "k1");
  check "k2 rewritten" true (has_cg "k2")

let () =
  Alcotest.run "advisor"
    [
      ( "pipeline",
        [ Alcotest.test_case "instrument_source" `Quick test_instrument_source;
          Alcotest.test_case "profile session" `Slow test_profile_session;
          Alcotest.test_case "options respected" `Slow test_profile_options_respected;
          Alcotest.test_case "determinism" `Slow test_run_native_deterministic ] );
      ( "studies",
        [ Alcotest.test_case "overhead" `Slow test_overhead_positive;
          Alcotest.test_case "bypass shape" `Slow test_bypass_study_shape;
          Alcotest.test_case "rewrite all kernels" `Quick test_rewrite_all_kernels ] );
      ( "pool",
        [ Alcotest.test_case "map order" `Quick test_pool_map_order;
          Alcotest.test_case "map exception" `Quick test_pool_map_exception;
          Alcotest.test_case "parallel bypass deterministic" `Slow
            test_bypass_parallel_deterministic ] );
      ( "compile-cache",
        [ Alcotest.test_case "memoization" `Quick test_compile_cache_hits ] );
    ]
