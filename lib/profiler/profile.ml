(* The CUDAAdvisor profiler (Section 3.2): collects instrumentation
   events during each kernel instance and performs the code-centric
   (shadow stacks -> CCT) and data-centric (allocation maps) attribution
   at kernel exit.  No metric computation happens here — that is the
   analyzer's job — matching the paper's separation (Section 3.2.3). *)

type bb_stat = { mutable execs : int; mutable divergent : int }

(* One executed kernel instance with its raw traces. *)
type instance = {
  kernel : string;
  launch_index : int;
  host_path : Records.host_frame list;
  (* packed warp-level memory events with the CCT node of their call
     path, in execution order *)
  trace : Tracebuf.t;
  (* packed shared-memory access + barrier-epoch rows for the checker;
     empty unless the module was instrumented with [sharing] hooks *)
  shared : Tracebuf.Shared.t;
  (* packed bank-conflict rows: one per shared access whose lanes
     serialized on a bank (the simulator filters conflict-free ones) *)
  conflicts : Tracebuf.Conflict.t;
  mutable mem_count : int;
  bb_stats : (int, bb_stat) Hashtbl.t;
  arith_stats : (Bitc.Loc.t * int, int ref) Hashtbl.t;
  mutable result : Gpusim.Gpu.result option;
}

type t = {
  manifest : Passes.Manifest.t;
  cct : Cct.t;
  mutable kernel_keys : (string * int) list; (* kernel name -> root key *)
  mutable instances_rev : instance list; (* most recent first *)
  (* launch-order view, rebuilt lazily after an append *)
  mutable instances_fwd : instance list option;
  mutable next_launch : int;
  mutable allocs : Records.alloc list;
  mutable transfers : Records.transfer list;
  mutable next_alloc : int;
  (* retain raw memory events? disable for overhead-only runs *)
  keep_mem_events : bool;
}

let create ?(keep_mem_events = true) ~manifest () =
  {
    manifest;
    cct = Cct.create ();
    kernel_keys = [];
    instances_rev = [];
    instances_fwd = None;
    next_launch = 0;
    allocs = [];
    transfers = [];
    next_alloc = 0;
    keep_mem_events;
  }

(* ----- host-side mandatory instrumentation entry points ----- *)

let record_alloc t ~side ~base ~size ~label ~path =
  let id = t.next_alloc in
  t.next_alloc <- id + 1;
  let a =
    { Records.alloc_id = id; side; base; size; label; alloc_path = path }
  in
  t.allocs <- a :: t.allocs;
  a

let record_transfer t ~direction ~src ~dst ~bytes ~path =
  t.transfers <-
    { Records.direction; src; dst; bytes; transfer_path = path } :: t.transfers

(* ----- device-side profiling of one kernel instance ----- *)

let kernel_key t kernel =
  match List.assoc_opt kernel t.kernel_keys with
  | Some k -> k
  | None ->
    let k = List.length t.kernel_keys in
    t.kernel_keys <- (kernel, k) :: t.kernel_keys;
    k

(* Returns the new instance and the event sink to pass to the launch.
   The sink maintains per-thread device shadow stacks (as CCT cursors)
   and attributes each memory event to its calling context on the fly. *)
let begin_instance t ~kernel ~host_path =
  let instance =
    {
      kernel;
      launch_index = t.next_launch;
      host_path;
      trace = Tracebuf.create ();
      shared = Tracebuf.Shared.create ();
      conflicts = Tracebuf.Conflict.create ();
      mem_count = 0;
      bb_stats = Hashtbl.create 64;
      arith_stats = Hashtbl.create 64;
      result = None;
    }
  in
  t.next_launch <- t.next_launch + 1;
  t.instances_rev <- instance :: t.instances_rev;
  t.instances_fwd <- None;
  let root = Cct.root t.cct ~key:(kernel_key t kernel) in
  (* shadow-stack cursor per thread: (cta, warp, lane) -> CCT node *)
  let cursors : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let thread_key ~cta ~warp ~lane = (((cta * 64) + warp) * 32) + lane in
  let cursor key = Option.value (Hashtbl.find_opt cursors key) ~default:root in
  let lanes_of_mask = Gpusim.Machine.lanes_of_mask in
  (* barrier-epoch counter per (cta, warp): how many barriers that warp
     has passed so far in this instance *)
  let epochs : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let warp_key ~cta ~warp = (cta * 64) + warp in
  let epoch_of key = Option.value (Hashtbl.find_opt epochs key) ~default:0 in
  let sink (ev : Gpusim.Hookev.t) =
    match ev with
    | Gpusim.Hookev.Call { cta; warp; callsite; mask; push; _ } ->
      List.iter
        (fun lane ->
          let key = thread_key ~cta ~warp ~lane in
          let cur = cursor key in
          if push then Hashtbl.replace cursors key (Cct.child t.cct cur ~callsite)
          else
            let parent = Cct.parent t.cct cur in
            Hashtbl.replace cursors key (if parent < 0 then root else parent))
        (lanes_of_mask mask)
    | Gpusim.Hookev.Mem m ->
      instance.mem_count <- instance.mem_count + 1;
      if t.keep_mem_events then begin
        let node =
          match m.accesses with
          | [||] -> root
          | accesses ->
            let lane, _ = accesses.(0) in
            cursor (thread_key ~cta:m.cta ~warp:m.warp ~lane)
        in
        Tracebuf.push instance.trace ~node m
      end
    | Gpusim.Hookev.Bb b ->
      let stat =
        match Hashtbl.find_opt instance.bb_stats b.bb_id with
        | Some s -> s
        | None ->
          let s = { execs = 0; divergent = 0 } in
          Hashtbl.replace instance.bb_stats b.bb_id s;
          s
      in
      stat.execs <- stat.execs + 1;
      if b.active_mask <> b.live_mask then stat.divergent <- stat.divergent + 1
    | Gpusim.Hookev.Arith a ->
      let key = (a.loc, a.code) in
      (match Hashtbl.find_opt instance.arith_stats key with
      | Some r -> incr r
      | None -> Hashtbl.replace instance.arith_stats key (ref 1))
    | Gpusim.Hookev.Shared m ->
      let node =
        match m.accesses with
        | [||] -> root
        | accesses ->
          let lane, _ = accesses.(0) in
          cursor (thread_key ~cta:m.cta ~warp:m.warp ~lane)
      in
      let tag =
        if m.kind = Passes.Hooks.mem_kind_store then Tracebuf.Shared.tag_write
        else if m.kind = Passes.Hooks.mem_kind_atomic then
          Tracebuf.Shared.tag_atomic
        else Tracebuf.Shared.tag_read
      in
      Tracebuf.Shared.push_access instance.shared ~cta:m.cta ~warp:m.warp
        ~epoch:(epoch_of (warp_key ~cta:m.cta ~warp:m.warp))
        ~tag ~bits:m.bits ~loc:m.loc ~node m.accesses
    | Gpusim.Hookev.Barrier b ->
      let key = warp_key ~cta:b.cta ~warp:b.warp in
      let e = epoch_of key in
      let node =
        match lanes_of_mask b.mask with
        | lane :: _ -> cursor (thread_key ~cta:b.cta ~warp:b.warp ~lane)
        | [] -> root
      in
      Tracebuf.Shared.push_barrier instance.shared ~cta:b.cta ~warp:b.warp
        ~epoch:e ~bar_id:b.bar_id ~loc:b.loc ~node;
      Hashtbl.replace epochs key (e + 1)
    | Gpusim.Hookev.Conflict c ->
      (* the conflict is warp-wide: attribute it to the warp's first
         thread's calling context, like memory events *)
      let node =
        cursor (thread_key ~cta:c.cta ~warp:c.warp ~lane:0)
      in
      Tracebuf.Conflict.push instance.conflicts ~node c
  in
  (instance, sink)

(* Data marshaling point: the paper copies the device buffers back and
   finalizes attribution at the end of each kernel instance. *)
let finish_instance instance result = instance.result <- Some result

(* ----- accessors ----- *)

let instances t =
  match t.instances_fwd with
  | Some l -> l
  | None ->
    let l = List.rev t.instances_rev in
    t.instances_fwd <- Some l;
    l

let allocations t = List.rev t.allocs
let transfers t = List.rev t.transfers

(* Memory events of an instance, decoded from the packed trace in
   execution order.  Prefer folding over [instance.trace] directly. *)
let mem_events instance = Tracebuf.to_events instance.trace

(* Expand a CCT node into the device call path: list of (function,
   file:line) frames from the kernel entry downward. *)
let device_path t instance node =
  let callsites = Cct.path t.cct node in
  let frames =
    List.map
      (fun cs ->
        let c = Passes.Manifest.callsite t.manifest cs in
        (c.Passes.Manifest.callee, c.Passes.Manifest.call_loc))
      callsites
  in
  (instance.kernel, Bitc.Loc.none) :: frames
