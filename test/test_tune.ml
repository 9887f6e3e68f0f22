(* The tuning layer behind `advisor evaluate`: the conservative source
   unroller (text-level behavior plus semantic equivalence under the
   profiler), the block_x launch override, variant cache identity,
   ranking invariance under submission order (QCheck), plan validation
   shared by the CLI and the daemon, and the sweep's generated variant
   sets. *)

module Json = Analysis.Json
module Jsonv = Obs.Jsonv
module Evaluate = Tune.Evaluate
module Sweep = Tune.Sweep

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let kepler () = Option.get (Gpusim.Arch.of_name "kepler")

(* ----- the unroller, textually ----- *)

let test_unroll_simple_loop () =
  let src = "for (int i = 0; i < n; i = i + 1) { acc = acc + i; }" in
  let out, count = Minicuda.Unroll.unroll ~factor:4 src in
  check_int "one loop unrolled" 1 count;
  check_bool "guarded copies appear" true
    (String.length out > String.length src);
  (* the guard that makes the rewrite exact for every trip count *)
  let has_guard =
    let needle = "if (i + 1 < n)" in
    let n = String.length needle in
    let rec go i =
      i + n <= String.length out && (String.sub out i n = needle || go (i + 1))
    in
    go 0
  in
  check_bool "remainder guard present" true has_guard

let test_unroll_skips_unsafe_bodies () =
  let unrolled src = snd (Minicuda.Unroll.unroll ~factor:4 src) in
  check_int "__syncthreads body untouched" 0
    (unrolled "for (int i = 0; i < n; i = i + 1) { __syncthreads(); }");
  check_int "break body untouched" 0
    (unrolled "for (int i = 0; i < n; i = i + 1) { if (i > 2) { break; } }");
  check_int "local declaration untouched" 0
    (unrolled "for (int i = 0; i < n; i = i + 1) { int t = i; acc = acc + t; }");
  check_int "write to the induction variable untouched" 0
    (unrolled "for (int i = 0; i < n; i = i + 1) { i = i + 2; }");
  check_int "non-unit stride untouched" 0
    (unrolled "for (int i = 0; i < n; i = i + 2) { acc = acc + i; }")

let test_unroll_innermost_only () =
  let src =
    "for (int i = 0; i < n; i = i + 1) { for (int j = 0; j < m; j = j + 1) { \
     acc = acc + j; } }"
  in
  let out, count = Minicuda.Unroll.unroll ~factor:2 src in
  check_int "only the innermost loop unrolled" 1 count;
  (* the outer header must survive verbatim *)
  check_bool "outer loop intact" true
    (String.length out >= 34 && String.sub out 0 34 = String.sub src 0 34)

let test_unroll_bad_factor () =
  Alcotest.check_raises "factor < 2 rejected"
    (Invalid_argument "Unroll.unroll: factor must be >= 2") (fun () ->
      ignore (Minicuda.Unroll.unroll ~factor:1 "x"))

(* ----- the unroller, semantically -----

   An unrolled variant must be observationally equivalent under the
   profiler: same warp-level memory-instruction count and divergence
   degree as the pristine source (unrolling duplicates bodies, it must
   not duplicate or drop memory accesses). *)

let test_registry_stress_variants () =
  let stress = Workloads.Registry.stress in
  check_bool "stress set non-empty" true (stress <> []);
  List.iter
    (fun (w : Workloads.Common.t) ->
      let base = Filename.remove_extension w.Workloads.Common.name in
      ignore base;
      check_bool
        (Printf.sprintf "%s named after its parent" w.Workloads.Common.name)
        true
        (Filename.check_suffix w.Workloads.Common.name "-unroll4");
      check_bool
        (Printf.sprintf "%s findable" w.Workloads.Common.name)
        true
        (Workloads.Registry.find_opt w.Workloads.Common.name <> None))
    stress

let test_unroll_semantic_equivalence () =
  match Workloads.Registry.find_opt "syrk-unroll4" with
  | None -> Alcotest.fail "syrk-unroll4 missing from the stress registry"
  | Some unrolled ->
    let arch = kepler () in
    let base = Workloads.Registry.find "syrk" in
    let md w =
      let session = Advisor.profile ~arch w in
      Advisor.mem_divergence session
    in
    let mb = md base and mu = md unrolled in
    check_int "same warp-level memory instruction count"
      mb.Analysis.Mem_divergence.total_instructions
      mu.Analysis.Mem_divergence.total_instructions;
    check_bool "same divergence degree" true
      (Float.abs
         (mb.Analysis.Mem_divergence.degree
         -. mu.Analysis.Mem_divergence.degree)
      < 1e-9)

(* ----- block_x override ----- *)

let test_block_x_override () =
  let arch = kepler () in
  let w = Workloads.Registry.find "nn" in
  let shape ?block_x () =
    let _, host = Advisor.run_native ?block_x ~arch w in
    match Hostrt.Host.launches host with
    | (_, r) :: _ -> (r.Gpusim.Gpu.ctas, r.Gpusim.Gpu.warps_per_cta)
    | [] -> Alcotest.fail "no launches recorded"
  in
  let ctas0, wpc0 = shape () in
  let ctas1, wpc1 = shape ~block_x:128 () in
  (* nn's CTA is (256, 1): halving the width doubles the grid and
     halves the warps per CTA, preserving total threads *)
  check_int "warps per CTA halved" (wpc0 / 2) wpc1;
  check_int "CTA count doubled" (ctas0 * 2) ctas1;
  check_int "total warps preserved" (ctas0 * wpc0) (ctas1 * wpc1)

(* ----- variant identity ----- *)

let test_variant_key_properties () =
  let arch = kepler () in
  let w = Workloads.Registry.find "nn" in
  let scale = w.Workloads.Common.default_scale in
  let key spec = Evaluate.variant_key ~w ~arch ~scale spec in
  let base = Evaluate.baseline_spec in
  check_string "renaming a variant keeps its identity" (key base)
    (key { base with Evaluate.sp_name = "renamed" });
  check_bool "block_x is part of the identity" false
    (key base = key { base with Evaluate.sp_name = "b"; sp_block_x = Some 128 });
  check_bool "bypass_warps is part of the identity" false
    (key base
    = key { base with Evaluate.sp_name = "c"; sp_bypass_warps = Some 4 });
  check_bool "source is part of the identity" false
    (key base
    = key { base with Evaluate.sp_name = "d"; sp_source = Some "/*x*/" })

(* ----- ranking: total order, invariant under submission order ----- *)

let raw_of ~status ~cycles =
  match cycles with
  | Some c -> Printf.sprintf {|{"status": %S, "cycles": %d}|} status c
  | None -> Printf.sprintf {|{"status": %S, "cycles": null}|} status

let ranking_string ~baseline entries =
  Json.to_string (Json.List (Evaluate.ranking ~baseline entries))

let entries_gen =
  let open QCheck in
  let entry i =
    Gen.map
      (fun (failed, cycles) ->
        let name = Printf.sprintf "v%d" i in
        if failed then (name, raw_of ~status:"compile_failed" ~cycles:None)
        else (name, raw_of ~status:"ok" ~cycles:(Some cycles)))
      Gen.(pair bool (int_range 1 50))
  in
  (* up to 10 uniquely-named variants; small cycle range forces ties *)
  Gen.(int_range 1 10 >>= fun n -> flatten_l (List.init n entry))

let qcheck_ranking_order_invariant =
  QCheck.Test.make ~count:200
    ~name:"ranking invariant under submission order"
    (QCheck.make
       QCheck.Gen.(pair entries_gen (int_bound 1000))
       ~print:(fun (entries, seed) ->
         Printf.sprintf "seed %d: %s" seed
           (String.concat "; " (List.map fst entries))))
    (fun (entries, seed) ->
      let st = Random.State.make [| seed |] in
      let shuffled =
        List.map snd
          (List.sort compare
             (List.map (fun e -> (Random.State.bits st, e)) entries))
      in
      String.equal
        (ranking_string ~baseline:"v1" entries)
        (ranking_string ~baseline:"v1" shuffled))

let test_ranking_failures_last () =
  let entries =
    [ ("slow", raw_of ~status:"ok" ~cycles:(Some 900));
      ("broken", raw_of ~status:"compile_failed" ~cycles:None);
      ("fast", raw_of ~status:"ok" ~cycles:(Some 300)) ]
  in
  let names =
    List.filter_map
      (function
        | Json.Obj fields -> (
          match List.assoc "name" fields with
          | Json.String s -> Some s
          | _ -> None)
        | _ -> None)
      (Evaluate.ranking ~baseline:"slow" entries)
  in
  Alcotest.(check (list string))
    "best first, failures last" [ "fast"; "slow"; "broken" ] names;
  (* speedup is relative to the declared baseline *)
  match Evaluate.ranking ~baseline:"slow" entries with
  | Json.Obj first :: _ ->
    check_bool "winner's speedup vs baseline" true
      (match List.assoc "speedup_vs_baseline" first with
      | Json.Float f -> Float.abs (f -. 3.0) < 1e-9
      | _ -> false)
  | _ -> Alcotest.fail "empty ranking"

(* ----- a direct batch: compile failure stays isolated ----- *)

let test_batch_compile_failure_isolated () =
  let arch = kepler () in
  let w = Workloads.Registry.find "nn" in
  let specs =
    [ Evaluate.baseline_spec;
      { Evaluate.baseline_spec with
        Evaluate.sp_name = "broken";
        sp_source = Some "__global__ void nope(int {]" } ]
  in
  let result = Evaluate.run_batch ~baseline:"base" ~arch w specs in
  match Jsonv.parse (Json.to_string result) with
  | Error m -> Alcotest.failf "batch result unparseable: %s" m
  | Ok v ->
    let variants =
      match Jsonv.member "variants" v with
      | Some (Jsonv.Arr vs) -> vs
      | _ -> Alcotest.fail "no variants array"
    in
    check_int "every submitted variant present" 2 (List.length variants);
    let status_of name =
      match
        List.find_opt
          (fun var -> Jsonv.member "name" var = Some (Jsonv.Str name))
          variants
      with
      | Some var -> (
        match
          Option.bind (Jsonv.member "result" var) (Jsonv.member "status")
        with
        | Some (Jsonv.Str s) -> s
        | _ -> Alcotest.failf "variant %s has no status" name)
      | None -> Alcotest.failf "variant %s missing" name
    in
    check_string "baseline unaffected" "ok" (status_of "base");
    check_string "broken variant isolated" "compile_failed"
      (status_of "broken")

(* ----- plan validation: one check for every front end ----- *)

let check_mentions what msg =
  List.iter (fun needle ->
      check_bool (Printf.sprintf "%s: %S names %S" what msg needle) true
        (Testutil.contains msg needle))

let test_check_plan () =
  let spec ?block_x ?bypass name =
    { Evaluate.baseline_spec with
      sp_name = name;
      sp_block_x = block_x;
      sp_bypass_warps = bypass }
  in
  let plan = Alcotest.(check (result string string)) in
  plan "baseline defaults to the first variant" (Ok "a")
    (Evaluate.check_plan [ spec "a"; spec ~bypass:0 ~block_x:128 "b" ]);
  plan "explicit baseline" (Ok "b") (Evaluate.check_plan ~baseline:"b" [ spec "a"; spec "b" ]);
  let rejects what ?baseline specs needles =
    match Evaluate.check_plan ?baseline specs with
    | Ok b -> Alcotest.failf "%s: accepted with baseline %S" what b
    | Error msg -> check_mentions what msg needles
  in
  rejects "zero block_x" [ spec "a"; spec ~block_x:0 "zero" ] [ {|"zero"|}; "block_x" ];
  rejects "negative bypass_warps" [ spec ~bypass:(-3) "neg" ] [ {|"neg"|}; "bypass_warps" ];
  rejects "duplicate names" [ spec "a"; spec "b"; spec "a" ] [ "duplicate"; {|"a"|} ];
  rejects "unknown baseline" ~baseline:"zz" [ spec "a" ] [ {|"zz"|} ];
  rejects "empty batch" [] [ "no variants" ];
  (* manifests and served batches share the protocol's typed readers *)
  match Jsonv.parse {|{"variants": [{}, {"name": "big", "block_x": "512"}]}|} with
  | Ok doc ->
    Alcotest.(check (result reject string))
      "a wrongly typed field names its element and itself"
      (Error {|variants[1]: field "block_x" must be an integer|})
      (Result.map ignore (Serve.Protocol.variants_field doc))
  | Error m -> Alcotest.fail m

(* The CLI's --manifest source: a bad knob exits non-zero naming the
   variant and the field, before anything runs (nothing on stdout). *)
let test_cli_manifest_rejected_before_running () =
  let cli =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/advisor_cli.exe"
  in
  List.iter
    (fun (what, variant, needles) ->
      let manifest = Filename.temp_file "tune-manifest" ".json" in
      Out_channel.with_open_bin manifest (fun oc ->
          Printf.fprintf oc {|{"variants": [{"name": "base"}, %s]}|} variant);
      let args = [| cli; "evaluate"; "nn"; "--manifest"; manifest |] in
      let ((out, _, err) as proc) =
        Unix.open_process_args_full cli args (Unix.environment ())
      in
      let out = In_channel.input_all out in
      let err = In_channel.input_all err in
      let status = Unix.close_process_full proc in
      Sys.remove manifest;
      check_bool (what ^ ": non-zero exit") true (status <> Unix.WEXITED 0);
      check_string (what ^ ": nothing ran") "" out;
      check_mentions what err needles)
    [ ("string block_x", {|{"name": "big", "block_x": "512"}|},
       [ "variants[1]"; "block_x" ]);
      ("negative bypass_warps", {|{"name": "neg", "bypass_warps": -3}|},
       [ {|"neg"|}; "bypass_warps" ]);
      ("zero block_x", {|{"name": "zero", "block_x": 0}|}, [ {|"zero"|}; "block_x" ]) ]

(* ----- the sweep's generated variants ----- *)

let test_sweep_specs () =
  List.iter
    (fun (w : Workloads.Common.t) ->
      let specs = Sweep.specs_for w in
      let names = List.map (fun s -> s.Evaluate.sp_name) specs in
      check_bool
        (Printf.sprintf "%s: baseline present" w.Workloads.Common.name)
        true
        (List.mem Sweep.baseline_name names);
      check_int
        (Printf.sprintf "%s: unique names" w.Workloads.Common.name)
        (List.length names)
        (List.length (List.sort_uniq String.compare names));
      check_bool
        (Printf.sprintf "%s: more than the baseline" w.Workloads.Common.name)
        true
        (List.length specs > 1);
      Alcotest.(check (result string string))
        (Printf.sprintf "%s: a valid plan" w.Workloads.Common.name)
        (Ok Sweep.baseline_name) (Evaluate.check_plan specs))
    Workloads.Registry.all

let () =
  Alcotest.run "tune"
    [
      ( "unroll",
        [
          Alcotest.test_case "simple loop unrolls" `Quick test_unroll_simple_loop;
          Alcotest.test_case "unsafe bodies skipped" `Quick
            test_unroll_skips_unsafe_bodies;
          Alcotest.test_case "innermost only" `Quick test_unroll_innermost_only;
          Alcotest.test_case "bad factor" `Quick test_unroll_bad_factor;
          Alcotest.test_case "registry stress variants" `Quick
            test_registry_stress_variants;
          Alcotest.test_case "semantic equivalence under the profiler" `Quick
            test_unroll_semantic_equivalence;
        ] );
      ( "knobs",
        [
          Alcotest.test_case "block_x override reshapes the launch" `Quick
            test_block_x_override;
          Alcotest.test_case "variant cache identity" `Quick
            test_variant_key_properties;
        ] );
      ( "ranking",
        [
          QCheck_alcotest.to_alcotest qcheck_ranking_order_invariant;
          Alcotest.test_case "failures last, speedup vs baseline" `Quick
            test_ranking_failures_last;
          Alcotest.test_case "compile failure stays isolated" `Quick
            test_batch_compile_failure_isolated;
        ] );
      ( "plan",
        [
          Alcotest.test_case "knobs, names, baseline and field types" `Quick
            test_check_plan;
          Alcotest.test_case "CLI manifest rejected before running" `Quick
            test_cli_manifest_rejected_before_running;
        ] );
      ( "sweep",
        [ Alcotest.test_case "generated variant sets" `Quick test_sweep_specs ]
      );
    ]
