(* The CUDAAdvisor instrumentation engine (Section 3.1 of the paper).

   Mandatory instrumentation maintains the shadow call stacks: every call
   to a device function is bracketed with [__ca_push_call]/[__ca_pop_call]
   carrying a call-site id (resolved through the manifest to caller,
   callee and source location).

   Optional instrumentation covers the three categories of Section 3.1:
   - memory operations: every global-memory load/store/atomic gets a
     [Record] call with the effective address (bitcast to i8*, as in
     Listing 2), access width in bits, and source line/column;
   - control flow: every basic block entry gets a [passBasicBlock] call
     (Listing 3/4) carrying the block id and source location;
   - arithmetic operations: every binop/unop/compare gets a hook with the
     opcode and the dynamic operand values. *)

type options = {
  memory : bool;
  control_flow : bool;
  arithmetic : bool;
  sharing : bool;
}

(* [sharing] is the correctness-checking category (shared-memory accesses
   + barrier epochs for `advisor check`); it is off in every preset so
   the profiling hook mix — and therefore the golden metrics — is
   unchanged unless a client asks for it. *)
let all = { memory = true; control_flow = true; arithmetic = true; sharing = false }

let memory_only =
  { memory = true; control_flow = false; arithmetic = false; sharing = false }

let control_flow_only =
  { memory = false; control_flow = true; arithmetic = false; sharing = false }

let nothing =
  { memory = false; control_flow = false; arithmetic = false; sharing = false }

type result = { manifest : Manifest.t }

let hook_call ~callee ~args ~loc =
  { Bitc.Instr.result = None;
    ty = Bitc.Types.Void;
    kind = Bitc.Instr.Call { callee; args };
    loc }

(* Effective-address instrumentation for one memory instruction: returns
   the hook sequence to place before it (Listing 1: bitcast + Record). *)
let mem_hooks (f : Bitc.Func.t) (i : Bitc.Instr.t) =
  let instrument ptr ~value_ty ~kind =
    match Bitc.Func.value_ty f ptr with
    | Bitc.Types.Ptr (_, Bitc.Types.Global) ->
      let cast_reg = Bitc.Func.fresh_reg f Bitc.Builder.byte_ptr_ty in
      let cast =
        { Bitc.Instr.result = Some cast_reg;
          ty = Bitc.Builder.byte_ptr_ty;
          kind = Bitc.Instr.Ptr_cast ptr;
          loc = i.loc }
      in
      let bits = 8 * Bitc.Types.size_of value_ty in
      let call =
        hook_call ~callee:Hooks.record_mem
          ~args:
            [ Bitc.Value.Reg cast_reg;
              Bitc.Value.Int bits;
              Bitc.Value.Int i.loc.Bitc.Loc.line;
              Bitc.Value.Int i.loc.Bitc.Loc.col;
              Bitc.Value.Int kind ]
          ~loc:i.loc
      in
      [ cast; call ]
    | _ -> [] (* local/shared accesses are not global-memory traffic *)
  in
  match i.kind with
  | Bitc.Instr.Load ptr -> instrument ptr ~value_ty:i.ty ~kind:Hooks.mem_kind_load
  | Bitc.Instr.Store { ptr; value_ty; _ } ->
    instrument ptr ~value_ty ~kind:Hooks.mem_kind_store
  | Bitc.Instr.Atomic_add { ptr; value_ty; _ } ->
    instrument ptr ~value_ty ~kind:Hooks.mem_kind_atomic
  | _ -> []

(* Arithmetic instrumentation: opcode + operand values.  Integer and
   float operands go to separate hooks so the IR stays well-typed. *)
let arith_hooks (f : Bitc.Func.t) (i : Bitc.Instr.t) =
  let line = Bitc.Value.Int i.loc.Bitc.Loc.line in
  let col = Bitc.Value.Int i.loc.Bitc.Loc.col in
  let emit code a b ty =
    let callee, args =
      if Bitc.Types.is_float ty then
        (Hooks.record_arith_f, [ Bitc.Value.Int code; a; b; line; col ])
      else (Hooks.record_arith_i, [ Bitc.Value.Int code; a; b; line; col ])
    in
    [ hook_call ~callee ~args ~loc:i.loc ]
  in
  (* Only i32/f32 arithmetic is instrumented: boolean and pointer
     operations carry no numeric operand values for the hook. *)
  let numeric = function Bitc.Types.I32 | Bitc.Types.F32 -> true | _ -> false in
  match i.kind with
  | Bitc.Instr.Binop (op, ty, a, b) when numeric ty ->
    emit (Hooks.arith_code_of_binop op) a b ty
  | Bitc.Instr.Cmp (op, ty, a, b) when numeric ty ->
    emit (Hooks.arith_code_of_cmp op) a b ty
  | Bitc.Instr.Unop (op, a) ->
    let ty = Bitc.Func.value_ty f a in
    if not (numeric ty) then []
    else
      let zero =
        if Bitc.Types.is_float ty then Bitc.Value.Float 0. else Bitc.Value.Int 0
      in
      emit (Hooks.arith_code_of_unop op) a zero ty
  | _ -> []

(* Shared-memory instrumentation for the correctness checker: every
   shared-space load/store/atomic gets a [record_shared] hook mirroring
   the global-memory [Record] shape (address, width, location, kind). *)
let shared_hooks (f : Bitc.Func.t) (i : Bitc.Instr.t) =
  let instrument ptr ~value_ty ~kind =
    match Bitc.Func.value_ty f ptr with
    | Bitc.Types.Ptr (_, Bitc.Types.Shared) ->
      let cast_reg = Bitc.Func.fresh_reg f Bitc.Builder.byte_ptr_ty in
      let cast =
        { Bitc.Instr.result = Some cast_reg;
          ty = Bitc.Builder.byte_ptr_ty;
          kind = Bitc.Instr.Ptr_cast ptr;
          loc = i.loc }
      in
      let bits = 8 * Bitc.Types.size_of value_ty in
      let call =
        hook_call ~callee:Hooks.record_shared
          ~args:
            [ Bitc.Value.Reg cast_reg;
              Bitc.Value.Int bits;
              Bitc.Value.Int i.loc.Bitc.Loc.line;
              Bitc.Value.Int i.loc.Bitc.Loc.col;
              Bitc.Value.Int kind ]
          ~loc:i.loc
      in
      [ cast; call ]
    | _ -> []
  in
  match i.kind with
  | Bitc.Instr.Load ptr -> instrument ptr ~value_ty:i.ty ~kind:Hooks.mem_kind_load
  | Bitc.Instr.Store { ptr; value_ty; _ } ->
    instrument ptr ~value_ty ~kind:Hooks.mem_kind_store
  | Bitc.Instr.Atomic_add { ptr; value_ty; _ } ->
    instrument ptr ~value_ty ~kind:Hooks.mem_kind_atomic
  | _ -> []

(* Barrier-epoch instrumentation: a [record_bar] hook after each
   __syncthreads so the checker can advance the per-warp epoch once the
   barrier has released. *)
let barrier_hooks manifest (f : Bitc.Func.t) (i : Bitc.Instr.t) =
  match i.kind with
  | Bitc.Instr.Sync ->
    let id = Manifest.add_barrier manifest ~in_func:f.Bitc.Func.name ~loc:i.loc in
    [ hook_call ~callee:Hooks.record_bar
        ~args:
          [ Bitc.Value.Int id;
            Bitc.Value.Int i.loc.Bitc.Loc.line;
            Bitc.Value.Int i.loc.Bitc.Loc.col ]
        ~loc:i.loc ]
  | _ -> []

(* Mandatory call-path instrumentation around calls to functions defined
   in this module (device functions; hooks themselves are skipped). *)
let call_hooks (m : Bitc.Irmod.t) manifest (f : Bitc.Func.t) (i : Bitc.Instr.t) =
  match i.kind with
  | Bitc.Instr.Call { callee; _ }
    when (not (Hooks.is_hook callee)) && Bitc.Irmod.find_func m callee <> None ->
    let id =
      Manifest.add_callsite manifest ~caller:f.Bitc.Func.name ~callee ~loc:i.loc
    in
    let push =
      hook_call ~callee:Hooks.push_call ~args:[ Bitc.Value.Int id ] ~loc:i.loc
    in
    let pop =
      hook_call ~callee:Hooks.pop_call ~args:[ Bitc.Value.Int id ] ~loc:i.loc
    in
    ([ push ], [ pop ])
  | _ -> ([], [])

let block_loc (b : Bitc.Block.t) =
  let from_instr =
    List.find_map
      (fun (i : Bitc.Instr.t) ->
        if Bitc.Loc.is_none i.loc then None else Some i.loc)
      b.instrs
  in
  Option.value from_instr ~default:Bitc.Loc.none

let instrument_func (m : Bitc.Irmod.t) options manifest (f : Bitc.Func.t) =
  List.iter
    (fun (b : Bitc.Block.t) ->
      let body =
        List.concat_map
          (fun (i : Bitc.Instr.t) ->
            let skip =
              match i.kind with
              | Bitc.Instr.Call { callee; _ } -> Hooks.is_hook callee
              | _ -> false
            in
            if skip then [ i ]
            else
              let mem = if options.memory then mem_hooks f i else [] in
              let shared = if options.sharing then shared_hooks f i else [] in
              let bar =
                if options.sharing then barrier_hooks manifest f i else []
              in
              let arith = if options.arithmetic then arith_hooks f i else [] in
              let push, pop = call_hooks m manifest f i in
              mem @ shared @ arith @ push @ [ i ] @ bar @ pop)
          b.instrs
      in
      let body =
        if options.control_flow then begin
          let id =
            Manifest.add_block manifest ~in_func:f.Bitc.Func.name
              ~block_name:b.name ~loc:(block_loc b)
          in
          let loc = block_loc b in
          hook_call ~callee:Hooks.record_bb
            ~args:
              [ Bitc.Value.Int id;
                Bitc.Value.Int loc.Bitc.Loc.line;
                Bitc.Value.Int loc.Bitc.Loc.col ]
            ~loc
          :: body
        end
        else body
      in
      b.instrs <- body)
    f.blocks

(* Instrument all kernels and device functions of [m] in place and
   return the manifest.  Run once per module; re-instrumenting an
   already-instrumented module would double-count events, so hook calls
   are skipped defensively. *)
let run ?(options = all) (m : Bitc.Irmod.t) : result =
  Hooks.declare_all m;
  let manifest = Manifest.create () in
  List.iter
    (fun (f : Bitc.Func.t) ->
      match f.fkind with
      | Bitc.Func.Kernel | Bitc.Func.Device -> instrument_func m options manifest f
      | Bitc.Func.Host -> ())
    m.funcs;
  (match Bitc.Verify.check m with
  | Ok () -> ()
  | Error msg -> raise (Pass.Pass_error { pass = "instrument"; msg }));
  { manifest }
