(* Batch variant evaluation — the tournament backend of `advisor
   evaluate` and the serve daemon's `evaluate` op.

   A batch submits N variants of one application's kernel source (plus
   two non-source knobs: a forced CTA width and horizontal-bypass warp
   count), and gets back per variant: compiled-ok, check-clean (static
   findings + shared-memory races), native cycles, L1 hit rate and the
   memory-divergence degree, plus a ranking of every variant against a
   declared baseline.

   Determinism contract: a variant's result object depends only on
   (app, arch, scale, variant source, knobs) — never on the variant's
   position in the batch, its name, or the other variants.  That makes
   each per-variant result independently content-addressable
   ({!variant_key}), so a resubmitted variant is a cache hit with zero
   simulator launches, and lets the ranking be recomputed from raw
   result bytes regardless of which entries were cached.

   Cost per cold variant: one uninstrumented run (cycles, L1 hit rate)
   plus one instrumented run under memory + control-flow + sharing
   hooks (divergence degree, branch divergence, races).  The bypass
   knob rewrites PTX for the native run only: bypassing changes cache
   behaviour, not divergence or races. *)

module Json = Analysis.Json
module Jsonv = Obs.Jsonv

type spec = {
  sp_name : string; (* stable variant id, unique within a batch *)
  sp_source : string option; (* None = the app's pristine source *)
  sp_block_x : int option; (* forced CTA width (grid-rescaled) *)
  sp_bypass_warps : int option; (* caching warps/CTA, Listing 5 rewrite *)
}

let baseline_spec =
  { sp_name = "base"; sp_source = None; sp_block_x = None; sp_bypass_warps = None }

(* Validate a batch before anything compiles or runs: knobs in range,
   names unique, and [baseline] (default: the first variant) naming one
   of them.  Returns the baseline.  Every front end (the serve
   [evaluate] op and all of the CLI's plan sources) goes through here,
   so none can launch a variant another would have rejected. *)
let check_plan ?baseline specs =
  let knob_error s =
    let bad field what v =
      Some (Printf.sprintf "variant %S: field %S must be %s (got %d)" s.sp_name field what v)
    in
    match (s.sp_block_x, s.sp_bypass_warps) with
    | Some bx, _ when bx <= 0 -> bad "block_x" "positive" bx
    | _, Some bw when bw < 0 -> bad "bypass_warps" ">= 0" bw
    | _ -> None
  in
  let names = List.map (fun s -> s.sp_name) specs in
  let duplicate n = List.length (List.filter (String.equal n) names) > 1 in
  match (List.find_map knob_error specs, List.find_opt duplicate names) with
  | Some msg, _ -> Error msg
  | None, Some n -> Error (Printf.sprintf "duplicate variant name %S" n)
  | None, None -> (
    match (baseline, names) with
    | None, [] -> Error "no variants to evaluate"
    | None, first :: _ -> Ok first
    | Some b, _ when List.mem b names -> Ok b
    | Some b, _ ->
      Error
        (Printf.sprintf "baseline %S does not name a variant (have: %s)" b
           (String.concat ", " names)))

let resolved_source (w : Workloads.Common.t) spec =
  Option.value spec.sp_source ~default:w.Workloads.Common.source

(* The content-addressed identity of one variant's result: everything
   that can change the result bytes (app, arch, scale, source, knobs) —
   and nothing else.  Names are deliberately excluded: they live in the
   batch envelope, so renaming a variant still hits. *)
let variant_key ~(w : Workloads.Common.t) ~(arch : Gpusim.Arch.t) ~scale spec =
  let knob name v =
    (name, match v with None -> "" | Some n -> string_of_int n)
  in
  Advisor.result_key ~op:"evaluate.variant" ~app:w.Workloads.Common.name
    ~arch_name:arch.Gpusim.Arch.short_name ~scale
    ~extra:[ knob "block_x" spec.sp_block_x; knob "bypass_warps" spec.sp_bypass_warps ]
    ~source:(resolved_source w spec) ()

(* ----- evaluating one variant ----- *)

type outcome = {
  o_status : string; (* "ok" | "compile_failed" | "run_failed" | "deadline" *)
  o_error : string option; (* message when status <> ok *)
  o_compiled : bool;
  o_cycles : int option;
  o_l1_hit_rate : float option;
  o_divergence : float option;
  o_branch_pct : float option;
  o_check_errors : int option;
}

let failed ~status ?(compiled = false) msg =
  {
    o_status = status;
    o_error = Some msg;
    o_compiled = compiled;
    o_cycles = None;
    o_l1_hit_rate = None;
    o_divergence = None;
    o_branch_pct = None;
    o_check_errors = None;
  }

(* The instrumented pass measures divergence and feeds the race
   detector in one simulation: profiling hooks + sharing hooks. *)
let eval_options =
  { Passes.Instrument.memory = true;
    control_flow = true;
    arithmetic = false;
    sharing = true }

let eval_variant ~(arch : Gpusim.Arch.t) ~scale (w : Workloads.Common.t) spec =
  let wv = { w with Workloads.Common.source = resolved_source w spec } in
  let block_x = spec.sp_block_x in
  match
    Advisor.compile_source ~file:wv.Workloads.Common.source_file
      wv.Workloads.Common.source
  with
  | exception Gpusim.Gpu.Cancelled reason -> failed ~status:"deadline" reason
  | exception Minicuda.Frontend.Error e ->
    failed ~status:"compile_failed" (Minicuda.Frontend.error_to_string e)
  | exception e -> failed ~status:"compile_failed" (Printexc.to_string e)
  | pristine -> (
    match
      let transform =
        Option.map
          (fun n prog -> Advisor.rewrite_all_kernels prog ~warps_to_cache:n)
          spec.sp_bypass_warps
      in
      let cycles, host = Advisor.run_native ?transform ~scale ?block_x ~arch wv in
      let l1 =
        List.fold_left
          (fun acc (_, (r : Gpusim.Gpu.result)) ->
            Gpusim.Cache.add_stats acc r.Gpusim.Gpu.l1_stats)
          (Gpusim.Cache.empty_stats ())
          (Hostrt.Host.launches host)
      in
      let session =
        Advisor.profile ~options:eval_options ~scale ?block_x ~arch wv
      in
      let md = Advisor.mem_divergence session in
      let bd = Advisor.branch_divergence session in
      let static = Passes.Check_static.run pristine.Advisor.modul in
      let races = Analysis.Race.of_profile session.Advisor.profiler in
      let errors = List.length static + List.length races.Analysis.Race.races in
      {
        o_status = "ok";
        o_error = None;
        o_compiled = true;
        o_cycles = Some cycles;
        o_l1_hit_rate = Some (Gpusim.Cache.hit_rate l1);
        o_divergence = Some md.Analysis.Mem_divergence.degree;
        o_branch_pct = Some (Analysis.Branch_divergence.percent bd);
        o_check_errors = Some errors;
      }
    with
    | outcome -> outcome
    | exception Gpusim.Gpu.Cancelled reason ->
      failed ~status:"deadline" ~compiled:true reason
    | exception Gpusim.Gpu.Launch_error msg ->
      failed ~status:"run_failed" ~compiled:true ("launch aborted: " ^ msg)
    | exception e ->
      failed ~status:"run_failed" ~compiled:true (Printexc.to_string e))

(* The cacheable per-variant result object.  Field set and order are
   fixed (absent values are [null]) so equal evaluations produce equal
   bytes; the variant's name is deliberately not part of it. *)
let outcome_json ~(w : Workloads.Common.t) spec (o : outcome) =
  let opt f = function None -> Json.Null | Some v -> f v in
  let knob = opt (fun n -> Json.Int n) in
  Json.Obj
    ([ ("status", Json.String o.o_status);
       ("compiled_ok", Json.Bool o.o_compiled);
       ( "check_clean",
         opt (fun n -> Json.Bool (n = 0)) o.o_check_errors );
       ("check_errors", opt (fun n -> Json.Int n) o.o_check_errors);
       ("cycles", opt (fun n -> Json.Int n) o.o_cycles);
       ("l1_hit_rate", opt (fun f -> Json.Float f) o.o_l1_hit_rate);
       ("divergence_degree", opt (fun f -> Json.Float f) o.o_divergence);
       ("branch_divergence_percent", opt (fun f -> Json.Float f) o.o_branch_pct);
       ( "knobs",
         Json.Obj
           [ ("block_x", knob spec.sp_block_x);
             ("bypass_warps", knob spec.sp_bypass_warps) ] );
       ( "source_digest",
         Json.String
           (Digest.to_hex
              (Digest.string (Advisor.canonical_source (resolved_source w spec))))
       ) ]
    @
    match o.o_error with
    | None -> []
    | Some msg -> [ ("error", Json.String msg) ])

(* ----- ranking (recomputed from raw result bytes) ----- *)

(* (status, cycles) of a serialized result object.  Ranking reads the
   bytes rather than the in-memory outcome so cached and fresh entries
   go through the identical path. *)
let ranked_info_of_raw raw =
  match Jsonv.parse raw with
  | Error _ -> ("run_failed", None)
  | Ok v ->
    let status =
      match Jsonv.member "status" v with Some (Jsonv.Str s) -> s | _ -> "run_failed"
    in
    let cycles =
      match Jsonv.member "cycles" v with
      | Some (Jsonv.Num f) -> Some (int_of_float f)
      | _ -> None
    in
    (status, cycles)

(* Rank variants best-first: simulated variants by ascending cycles,
   then the failures, both tie-broken by name — a total order on
   (cycles, unique name), so the ranking is invariant under submission
   order by construction. *)
let ranking ~baseline entries =
  let info =
    List.map (fun (name, raw) -> (name, ranked_info_of_raw raw)) entries
  in
  let baseline_cycles =
    match List.assoc_opt baseline info with
    | Some (_, cycles) -> cycles
    | None -> None
  in
  let sorted =
    List.sort
      (fun (na, (_, ca)) (nb, (_, cb)) ->
        match (ca, cb) with
        | Some a, Some b ->
          if a <> b then compare a b else String.compare na nb
        | Some _, None -> -1
        | None, Some _ -> 1
        | None, None -> String.compare na nb)
      info
  in
  List.mapi
    (fun i (name, (status, cycles)) ->
      let speedup =
        match (baseline_cycles, cycles) with
        | Some b, Some c when c > 0 -> Json.Float (float_of_int b /. float_of_int c)
        | _ -> Json.Null
      in
      Json.Obj
        [ ("rank", Json.Int (i + 1)); ("name", Json.String name);
          ("status", Json.String status);
          ("cycles", match cycles with Some c -> Json.Int c | None -> Json.Null);
          ("speedup_vs_baseline", speedup);
          ("baseline", Json.Bool (name = baseline)) ])
    sorted

(* ----- the batch ----- *)

(* Evaluate [specs] (unique names; [baseline] must name one) and
   assemble the full tournament report.

   [lookup]/[store] plug in a content-addressed result cache keyed by
   {!variant_key}: hits skip both simulations entirely, and fresh
   results are stored *unless* they carry a "deadline" status (a
   deadline is a property of this request, not of the variant).

   Deadline budget: the caller's {!Gpusim.Gpu} cancel check — installed
   by the serve worker for the whole request — is treated as a
   whole-batch budget.  It is re-installed on every Pool domain the
   batch fans out to, each variant polls it on entry, and a fired
   deadline turns the current and remaining variants into per-variant
   "deadline" errors while completed variants keep their results: the
   response always carries every submitted variant, never a silent
   truncation. *)
let run_batch ?(domains = 1) ?lookup ?store ?scale ~baseline
    ~(arch : Gpusim.Arch.t) (w : Workloads.Common.t) (specs : spec list) =
  let scale = Option.value scale ~default:w.Workloads.Common.default_scale in
  let budget_check = Gpusim.Gpu.current_cancel_check () in
  let eval_one spec =
    (* worker domains start with no cancel check: propagate the
       request's deadline, restoring whatever was installed before *)
    let prev = Gpusim.Gpu.current_cancel_check () in
    Gpusim.Gpu.set_cancel_check budget_check;
    Fun.protect ~finally:(fun () -> Gpusim.Gpu.set_cancel_check prev)
    @@ fun () ->
    let key = variant_key ~w ~arch ~scale spec in
    match Option.bind lookup (fun f -> f key) with
    | Some raw -> (spec.sp_name, raw)
    | None ->
      let outcome =
        match Gpusim.Gpu.poll_cancel () with
        | () -> eval_variant ~arch ~scale w spec
        | exception Gpusim.Gpu.Cancelled reason -> failed ~status:"deadline" reason
      in
      let raw = Json.to_string (outcome_json ~w spec outcome) in
      if outcome.o_status <> "deadline" then
        Option.iter (fun f -> f key raw) store;
      (spec.sp_name, raw)
  in
  let entries = Pool.map ~domains eval_one specs in
  Json.Obj
    [ ("app", Json.String w.Workloads.Common.name);
      ("arch", Json.String arch.Gpusim.Arch.name);
      ("scale", Json.Int scale);
      ("baseline", Json.String baseline);
      ( "variants",
        Json.List
          (List.map
             (fun (name, raw) ->
               Json.Obj [ ("name", Json.String name); ("result", Json.Raw raw) ])
             entries) );
      ("ranking", Json.List (ranking ~baseline entries)) ]
