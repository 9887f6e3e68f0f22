(* Predecode: lower [Isa.inst] arrays into the flat descriptor form the
   simulator interprets ([Isa.dinst]).  Each program is decoded once —
   the result is cached on the prog — so sweeps that relaunch the same
   kernels hundreds of times pay for operand splitting, call-target
   interning and reconvergence resolution a single time.

   Decoding also validates every register index against the function's
   register count, which is what licenses the interpreter's unchecked
   register-file accesses. *)

(* Cache hit/miss counts live in the Obs metrics registry
   ("ptx.decode_cache.*"). *)
let cache_hits = Obs.Metrics.counter "ptx.decode_cache.hits"
let cache_misses = Obs.Metrics.counter "ptx.decode_cache.misses"

let bad_reg fname r nregs =
  invalid_arg
    (Printf.sprintf "Decode: register %%r%d out of range (%s has %d registers)" r
       fname nregs)

let decode_func ~dindex (name : string) (f : Isa.func) : Isa.dfunc =
  let nregs = max f.nregs 1 in
  let check_reg r = if r < 0 || r >= nregs then bad_reg name r nregs in
  (* float-immediate pool *)
  let fimms = ref [] in
  let nfimms = ref 0 in
  let intern_float v =
    let i = !nfimms in
    fimms := v :: !fimms;
    incr nfimms;
    i
  in
  let dop (o : Isa.operand) : Isa.dop =
    match o with
    | Isa.R r ->
      check_reg r;
      { okind = 0; onum = r }
    | Isa.I i -> { okind = 1; onum = i }
    | Isa.F v -> { okind = 2; onum = intern_float v }
  in
  let ddst r =
    check_reg r;
    r
  in
  (* register sources per pc, in the order [Exec.srcs_ready_at] read
     them (the scoreboard takes a max, so order is cosmetic) *)
  let no_srcs = [||] in
  let srcs_of (inst : Isa.inst) =
    let of_op acc (o : Isa.operand) =
      match o with Isa.R r -> r :: acc | Isa.I _ | Isa.F _ -> acc
    in
    let of_pred acc = function Some (r, _) -> r :: acc | None -> acc in
    let l =
      match inst with
      | Isa.Mov { src; _ } -> of_op [] src
      | Isa.Iop { a; b; _ } | Isa.Fop { a; b; _ } -> of_op (of_op [] a) b
      | Isa.Unop { a; _ } -> of_op [] a
      | Isa.Setp { a; b; _ } -> of_op (of_op [] a) b
      | Isa.Selp { cond; a; b; _ } -> of_op (of_op (of_op [] cond) a) b
      | Isa.Ld { addr; pred; _ } -> of_pred (of_op [] addr) pred
      | Isa.St { addr; src; pred; _ } -> of_pred (of_op (of_op [] addr) src) pred
      | Isa.Atom { addr; src; _ } -> of_op (of_op [] addr) src
      | Isa.Bra _ -> []
      | Isa.Cond_bra { pr; _ } -> [ pr ]
      | Isa.Call { args; _ } -> List.fold_left of_op [] args
      | Isa.Ret (Some op) -> of_op [] op
      | Isa.Ret None -> []
      | Isa.Bar -> []
      | Isa.Sreg _ -> []
      | Isa.Hook { args; _ } -> List.fold_left of_op [] args
    in
    List.iter check_reg l;
    if l = [] then no_srcs else Array.of_list l
  in
  let exit_pc = Array.length f.body in
  let dpred = function
    | None -> (-1, true)
    | Some (r, expect) ->
      check_reg r;
      (r, expect)
  in
  let dinst (inst : Isa.inst) : Isa.dinst =
    match inst with
    | Isa.Mov { dst; src } -> DMov { dst = ddst dst; src = dop src }
    | Isa.Iop { op; dst; a; b } -> DIop { op; dst = ddst dst; a = dop a; b = dop b }
    | Isa.Fop { op; dst; a; b } -> DFop { op; dst = ddst dst; a = dop a; b = dop b }
    | Isa.Unop { op; dst; a; fl } ->
      let sfu =
        match op with
        | Bitc.Instr.Sqrt | Bitc.Instr.Exp | Bitc.Instr.Log -> true
        | _ -> false
      in
      DUnop { op; dst = ddst dst; a = dop a; fl; sfu }
    | Isa.Setp { op; dst; a; b; fl } ->
      DSetp { op; dst = ddst dst; a = dop a; b = dop b; fl }
    | Isa.Selp { dst; cond; a; b } ->
      DSelp { dst = ddst dst; cond = dop cond; a = dop a; b = dop b }
    | Isa.Ld { dst; space; cop; addr; width; fl; pred } -> (
      let dst = ddst dst and addr = dop addr in
      let pr, pexpect = dpred pred in
      match space with
      | Isa.Local -> DLd_local { dst; addr; width; fl; pr; pexpect }
      | Isa.Shared -> DLd_shared { dst; addr; width; fl; pr; pexpect }
      | Isa.Global ->
        DLd_global { dst; cg = (cop = Isa.Cg); addr; width; fl; pr; pexpect })
    | Isa.St { space; cop = _; addr; src; width; fl; pred } -> (
      let addr = dop addr and src = dop src in
      let pr, pexpect = dpred pred in
      match space with
      | Isa.Local -> DSt_local { addr; src; width; fl; pr; pexpect }
      | Isa.Shared -> DSt_shared { addr; src; width; fl; pr; pexpect }
      | Isa.Global -> DSt_global { addr; src; width; fl; pr; pexpect })
    | Isa.Atom { dst; addr; src; width; fl } ->
      DAtom { dst = ddst dst; addr = dop addr; src = dop src; width; fl }
    | Isa.Bra { target } -> DBra { target }
    | Isa.Cond_bra { pr; if_true; if_false; reconv } ->
      check_reg pr;
      let rpc = match reconv with Some r -> r | None -> exit_pc in
      DCond_bra { pr; if_true; if_false; rpc }
    | Isa.Call { callee; args; dst } -> (
      (match dst with Some d -> ignore (ddst d) | None -> ());
      match Hashtbl.find_opt dindex callee with
      | Some idx ->
        DCall { callee = idx; args = Array.of_list (List.map dop args); ret_dst = dst }
      | None ->
        invalid_arg (Printf.sprintf "Isa.find_func: unknown function %s" callee))
    | Isa.Ret v -> DRet { v = Option.map dop v }
    | Isa.Bar -> DBar
    | Isa.Sreg { dst; which } -> DSreg { dst = ddst dst; which }
    | Isa.Hook { name = hname; args } ->
      let hook : Isa.dhook =
        match hname, List.map dop args with
        | "__ca_record_mem", [ addr; bits; _line; _col; kind ] ->
          DH_mem { addr; bits; kind }
        | "__ca_record_bb", [ bb_id; _line; _col ] -> DH_bb { bb_id }
        | ("__ca_record_arith_i" | "__ca_record_arith_f"), [ code; a; b; _line; _col ]
          ->
          DH_arith { code; a; b }
        | "__ca_push_call", [ callsite ] -> DH_call { callsite; push = true }
        | "__ca_pop_call", [ callsite ] -> DH_call { callsite; push = false }
        | "__ca_record_shared", [ addr; bits; _line; _col; kind ] ->
          DH_shared { addr; bits; kind }
        | "__ca_record_bar", [ bar_id; _line; _col ] -> DH_bar { bar_id }
        | _, _ -> DH_bad { hname }
      in
      DHook { hook }
  in
  let dbody = Array.map dinst f.body in
  let dsrcs = Array.map srcs_of f.body in
  let fimms = Array.of_list (List.rev !fimms) in
  { Isa.fsrc = f; dbody; dsrcs; fimms; dnregs = nregs }

let decode (p : Isa.prog) : Isa.decoded =
  let n = List.length p.funcs in
  let dnames = Array.make n "" in
  let dindex = Hashtbl.create (max 4 n) in
  List.iteri
    (fun i (name, _) ->
      dnames.(i) <- name;
      Hashtbl.replace dindex name i)
    p.funcs;
  let dfuncs =
    Array.of_list (List.map (fun (name, f) -> decode_func ~dindex name f) p.funcs)
  in
  { Isa.dfuncs; dnames; dindex }

(* Decode [p], caching the result on the prog itself. *)
let of_prog (p : Isa.prog) : Isa.decoded =
  match p.decoded with
  | Some d ->
    Obs.Metrics.incr cache_hits;
    d
  | None ->
    Obs.Metrics.incr cache_misses;
    let d = Obs.Trace.with_span ~cat:"compile" "decode" (fun () -> decode p) in
    p.decoded <- Some d;
    d

(* Index of [name] in [d.dfuncs]; raises like [Isa.find_func]. *)
let func_index (d : Isa.decoded) name =
  match Hashtbl.find_opt d.dindex name with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Isa.find_func: unknown function %s" name)
