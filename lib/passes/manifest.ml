(* Side tables emitted by the instrumentation engine.  The paper stores
   basic-block names as global strings in the binary (Listing 4); we
   register them in a manifest keyed by small integer ids, which the
   hooks carry at run time and the analyzer resolves back to names and
   source locations. *)

type callsite = {
  callsite_id : int;
  caller : string;
  callee : string;
  call_loc : Bitc.Loc.t;
}

type block_info = {
  block_id : int;
  in_func : string;
  block_name : string;
  block_loc : Bitc.Loc.t;
}

type barrier_info = {
  barrier_id : int;
  bar_func : string;
  bar_loc : Bitc.Loc.t;
}

type t = {
  mutable callsites : callsite list; (* reverse order during build *)
  mutable blocks : block_info list;
  mutable barriers : barrier_info list;
  mutable next_callsite : int;
  mutable next_block : int;
  mutable next_barrier : int;
}

let create () =
  { callsites = [];
    blocks = [];
    barriers = [];
    next_callsite = 0;
    next_block = 0;
    next_barrier = 0 }

let add_callsite t ~caller ~callee ~loc =
  let id = t.next_callsite in
  t.next_callsite <- id + 1;
  t.callsites <- { callsite_id = id; caller; callee; call_loc = loc } :: t.callsites;
  id

let add_block t ~in_func ~block_name ~loc =
  let id = t.next_block in
  t.next_block <- id + 1;
  t.blocks <- { block_id = id; in_func; block_name; block_loc = loc } :: t.blocks;
  id

let add_barrier t ~in_func ~loc =
  let id = t.next_barrier in
  t.next_barrier <- id + 1;
  t.barriers <- { barrier_id = id; bar_func = in_func; bar_loc = loc } :: t.barriers;
  id

let callsite t id =
  match List.find_opt (fun c -> c.callsite_id = id) t.callsites with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Manifest.callsite: unknown id %d" id)

let block t id =
  match List.find_opt (fun b -> b.block_id = id) t.blocks with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Manifest.block: unknown id %d" id)

let barrier t id =
  match List.find_opt (fun b -> b.barrier_id = id) t.barriers with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Manifest.barrier: unknown id %d" id)

let num_blocks t = t.next_block
let num_callsites t = t.next_callsite
