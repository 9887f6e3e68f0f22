(* Packed warp-level memory-event trace (paper Section 3.2).

   The paper's device pass appends fixed-size records to a packed
   device buffer and materializes analysis structures only at kernel
   exit.  This module is the host-side analogue: a growable
   struct-of-arrays buffer with one flat int column per record field
   (CTA, warp, interned source location, access width, kind, CCT node)
   plus a shared lane/address arena holding the per-lane effective
   addresses of every event back to back.  Appending an event performs
   no per-event list allocation; iteration is a cache-friendly pass
   over the columns in execution order.

   Kernel names and [Bitc.Loc.t] values are interned in side tables so
   the columns stay flat ints; accessors translate back on demand. *)

type t = {
  (* per-event columns, all [len] long *)
  mutable len : int;
  mutable kernel_col : int array; (* interned kernel name *)
  mutable cta_col : int array;
  mutable warp_col : int array;
  mutable loc_col : int array; (* interned Bitc.Loc.t *)
  mutable bits_col : int array;
  mutable kind_col : int array;
  mutable node_col : int array; (* CCT node of the calling context *)
  mutable off_col : int array; (* first slot in the access arena *)
  mutable nacc_col : int array; (* number of active lanes *)
  (* shared access arena: slot j holds lane [lane_arena.(j)] touching
     byte address [addr_arena.(j)] *)
  mutable acc_len : int;
  mutable lane_arena : Bytes.t;
  mutable addr_arena : int array;
  (* interning side tables *)
  kernel_ids : (string, int) Hashtbl.t;
  mutable kernel_names : string array;
  mutable nkernels : int;
  loc_ids : (Bitc.Loc.t, int) Hashtbl.t;
  mutable loc_tbl : Bitc.Loc.t array;
  mutable nlocs : int;
}

let create () =
  {
    len = 0;
    kernel_col = Array.make 64 0;
    cta_col = Array.make 64 0;
    warp_col = Array.make 64 0;
    loc_col = Array.make 64 0;
    bits_col = Array.make 64 0;
    kind_col = Array.make 64 0;
    node_col = Array.make 64 0;
    off_col = Array.make 64 0;
    nacc_col = Array.make 64 0;
    acc_len = 0;
    lane_arena = Bytes.make 256 '\000';
    addr_arena = Array.make 256 0;
    kernel_ids = Hashtbl.create 8;
    kernel_names = Array.make 8 "";
    nkernels = 0;
    loc_ids = Hashtbl.create 64;
    loc_tbl = Array.make 64 Bitc.Loc.none;
    nlocs = 0;
  }

let length t = t.len

(* ----- interning ----- *)

let intern_kernel t name =
  match Hashtbl.find_opt t.kernel_ids name with
  | Some id -> id
  | None ->
    let id = t.nkernels in
    if id = Array.length t.kernel_names then begin
      let a = Array.make (2 * id) "" in
      Array.blit t.kernel_names 0 a 0 id;
      t.kernel_names <- a
    end;
    t.kernel_names.(id) <- name;
    t.nkernels <- id + 1;
    Hashtbl.add t.kernel_ids name id;
    id

let intern_loc t loc =
  match Hashtbl.find_opt t.loc_ids loc with
  | Some id -> id
  | None ->
    let id = t.nlocs in
    if id = Array.length t.loc_tbl then begin
      let a = Array.make (2 * id) Bitc.Loc.none in
      Array.blit t.loc_tbl 0 a 0 id;
      t.loc_tbl <- a
    end;
    t.loc_tbl.(id) <- loc;
    t.nlocs <- id + 1;
    Hashtbl.add t.loc_ids loc id;
    id

let num_locs t = t.nlocs
let loc_of_id t id = t.loc_tbl.(id)

(* ----- growth ----- *)

let grow_int_col col len =
  let a = Array.make (2 * len) 0 in
  Array.blit col 0 a 0 len;
  a

let ensure_event t =
  if t.len = Array.length t.cta_col then begin
    let n = t.len in
    t.kernel_col <- grow_int_col t.kernel_col n;
    t.cta_col <- grow_int_col t.cta_col n;
    t.warp_col <- grow_int_col t.warp_col n;
    t.loc_col <- grow_int_col t.loc_col n;
    t.bits_col <- grow_int_col t.bits_col n;
    t.kind_col <- grow_int_col t.kind_col n;
    t.node_col <- grow_int_col t.node_col n;
    t.off_col <- grow_int_col t.off_col n;
    t.nacc_col <- grow_int_col t.nacc_col n
  end

let ensure_arena t extra =
  let need = t.acc_len + extra in
  let cap = Array.length t.addr_arena in
  if need > cap then begin
    let cap' = ref (2 * cap) in
    while !cap' < need do
      cap' := !cap' * 2
    done;
    let addrs = Array.make !cap' 0 in
    Array.blit t.addr_arena 0 addrs 0 t.acc_len;
    t.addr_arena <- addrs;
    let lanes = Bytes.make !cap' '\000' in
    Bytes.blit t.lane_arena 0 lanes 0 t.acc_len;
    t.lane_arena <- lanes
  end

(* ----- appending ----- *)

let push t ~node (m : Gpusim.Hookev.mem) =
  ensure_event t;
  let i = t.len in
  t.len <- i + 1;
  t.kernel_col.(i) <- intern_kernel t m.kernel;
  t.cta_col.(i) <- m.cta;
  t.warp_col.(i) <- m.warp;
  t.loc_col.(i) <- intern_loc t m.loc;
  t.bits_col.(i) <- m.bits;
  t.kind_col.(i) <- m.kind;
  t.node_col.(i) <- node;
  let n = Array.length m.accesses in
  ensure_arena t n;
  t.off_col.(i) <- t.acc_len;
  t.nacc_col.(i) <- n;
  for j = 0 to n - 1 do
    let lane, addr = m.accesses.(j) in
    Bytes.unsafe_set t.lane_arena (t.acc_len + j) (Char.unsafe_chr (lane land 0xff));
    t.addr_arena.(t.acc_len + j) <- addr
  done;
  t.acc_len <- t.acc_len + n

(* ----- zero-copy accessors ----- *)

let[@inline] kernel t i = t.kernel_names.(t.kernel_col.(i))
let[@inline] cta t i = t.cta_col.(i)
let[@inline] warp t i = t.warp_col.(i)
let[@inline] loc_id t i = t.loc_col.(i)
let[@inline] loc t i = t.loc_tbl.(t.loc_col.(i))
let[@inline] bits t i = t.bits_col.(i)
let[@inline] kind t i = t.kind_col.(i)
let[@inline] node t i = t.node_col.(i)
let[@inline] acc_off t i = t.off_col.(i)
let[@inline] acc_len t i = t.nacc_col.(i)
let[@inline] lane t i j = Char.code (Bytes.unsafe_get t.lane_arena (t.off_col.(i) + j))
let[@inline] addr t i j = t.addr_arena.(t.off_col.(i) + j)

(* The arena itself, for batch consumers (coalescing over a slice). *)
let addr_arena t = t.addr_arena

let iter t f =
  for i = 0 to t.len - 1 do
    f i
  done

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc i
  done;
  !acc

(* ----- decode (compatibility and round-trip testing) ----- *)

let event t i : Gpusim.Hookev.mem * int =
  let n = acc_len t i in
  let accesses = Array.init n (fun j -> (lane t i j, addr t i j)) in
  ( { Gpusim.Hookev.kernel = kernel t i;
      cta = cta t i;
      warp = warp t i;
      loc = loc t i;
      bits = bits t i;
      kind = kind t i;
      accesses },
    node t i )

let of_events events =
  let t = create () in
  List.iter (fun (m, node) -> push t ~node m) events;
  t

let to_events t = List.init t.len (event t)

(* ----- shared-memory correctness channel ----- *)

(* Packed channel for the `advisor check` race detector: one row per
   warp-level shared-memory access or per-warp barrier passage, in
   execution order.  Same SoA layout as the main trace, specialized to
   the checker's needs: a barrier-epoch column replaces the kernel
   column (the channel lives inside one instance, so the kernel is
   known), and barrier rows reuse the width column for the manifest
   barrier id.  Shared addresses are CTA-local, so row comparisons are
   only meaningful within one CTA — which is all the detector does. *)
module Shared = struct
  let tag_read = 0
  let tag_write = 1
  let tag_barrier = 2
  let tag_atomic = 3

  type t = {
    mutable len : int;
    mutable cta_col : int array;
    mutable warp_col : int array;
    mutable epoch_col : int array; (* barriers this warp passed before the row *)
    mutable tag_col : int array; (* tag_read/_write/_atomic/_barrier *)
    mutable bits_col : int array; (* access width; barrier rows: barrier id *)
    mutable loc_col : int array; (* interned Bitc.Loc.t *)
    mutable node_col : int array; (* CCT node of the calling context *)
    mutable off_col : int array; (* first slot in the address arena *)
    mutable nacc_col : int array; (* number of active lanes *)
    mutable acc_len : int;
    mutable addr_arena : int array; (* per-lane CTA-local byte addresses *)
    loc_ids : (Bitc.Loc.t, int) Hashtbl.t;
    mutable loc_tbl : Bitc.Loc.t array;
    mutable nlocs : int;
  }

  let create () =
    {
      len = 0;
      cta_col = Array.make 64 0;
      warp_col = Array.make 64 0;
      epoch_col = Array.make 64 0;
      tag_col = Array.make 64 0;
      bits_col = Array.make 64 0;
      loc_col = Array.make 64 0;
      node_col = Array.make 64 0;
      off_col = Array.make 64 0;
      nacc_col = Array.make 64 0;
      acc_len = 0;
      addr_arena = Array.make 256 0;
      loc_ids = Hashtbl.create 64;
      loc_tbl = Array.make 64 Bitc.Loc.none;
      nlocs = 0;
    }

  let length t = t.len

  let intern_loc t loc =
    match Hashtbl.find_opt t.loc_ids loc with
    | Some id -> id
    | None ->
      let id = t.nlocs in
      if id = Array.length t.loc_tbl then begin
        let a = Array.make (2 * id) Bitc.Loc.none in
        Array.blit t.loc_tbl 0 a 0 id;
        t.loc_tbl <- a
      end;
      t.loc_tbl.(id) <- loc;
      t.nlocs <- id + 1;
      Hashtbl.add t.loc_ids loc id;
      id

  let ensure_event t =
    if t.len = Array.length t.cta_col then begin
      let n = t.len in
      t.cta_col <- grow_int_col t.cta_col n;
      t.warp_col <- grow_int_col t.warp_col n;
      t.epoch_col <- grow_int_col t.epoch_col n;
      t.tag_col <- grow_int_col t.tag_col n;
      t.bits_col <- grow_int_col t.bits_col n;
      t.loc_col <- grow_int_col t.loc_col n;
      t.node_col <- grow_int_col t.node_col n;
      t.off_col <- grow_int_col t.off_col n;
      t.nacc_col <- grow_int_col t.nacc_col n
    end

  let ensure_arena t extra =
    let need = t.acc_len + extra in
    let cap = Array.length t.addr_arena in
    if need > cap then begin
      let cap' = ref (2 * cap) in
      while !cap' < need do
        cap' := !cap' * 2
      done;
      let addrs = Array.make !cap' 0 in
      Array.blit t.addr_arena 0 addrs 0 t.acc_len;
      t.addr_arena <- addrs
    end

  let push_row t ~cta ~warp ~epoch ~tag ~bits ~loc ~node =
    ensure_event t;
    let i = t.len in
    t.len <- i + 1;
    t.cta_col.(i) <- cta;
    t.warp_col.(i) <- warp;
    t.epoch_col.(i) <- epoch;
    t.tag_col.(i) <- tag;
    t.bits_col.(i) <- bits;
    t.loc_col.(i) <- intern_loc t loc;
    t.node_col.(i) <- node;
    t.off_col.(i) <- t.acc_len;
    t.nacc_col.(i) <- 0;
    i

  let push_access t ~cta ~warp ~epoch ~tag ~bits ~loc ~node
      (accesses : (int * int) array) =
    let i = push_row t ~cta ~warp ~epoch ~tag ~bits ~loc ~node in
    let n = Array.length accesses in
    ensure_arena t n;
    t.off_col.(i) <- t.acc_len;
    t.nacc_col.(i) <- n;
    for j = 0 to n - 1 do
      let _lane, addr = accesses.(j) in
      t.addr_arena.(t.acc_len + j) <- addr
    done;
    t.acc_len <- t.acc_len + n

  let push_barrier t ~cta ~warp ~epoch ~bar_id ~loc ~node =
    ignore (push_row t ~cta ~warp ~epoch ~tag:tag_barrier ~bits:bar_id ~loc ~node)

  let[@inline] cta t i = t.cta_col.(i)
  let[@inline] warp t i = t.warp_col.(i)
  let[@inline] epoch t i = t.epoch_col.(i)
  let[@inline] tag t i = t.tag_col.(i)
  let[@inline] bits t i = t.bits_col.(i)
  let[@inline] bar_id t i = t.bits_col.(i)
  let[@inline] loc_id t i = t.loc_col.(i)
  let[@inline] loc t i = t.loc_tbl.(t.loc_col.(i))
  let[@inline] node t i = t.node_col.(i)
  let[@inline] acc_len t i = t.nacc_col.(i)
  let[@inline] addr t i j = t.addr_arena.(t.off_col.(i) + j)
  let num_locs t = t.nlocs
  let loc_of_id t id = t.loc_tbl.(id)

  let iter_addrs t i f =
    let off = t.off_col.(i) and n = t.nacc_col.(i) in
    for j = 0 to n - 1 do
      f t.addr_arena.(off + j)
    done

  let iter t f =
    for i = 0 to t.len - 1 do
      f i
    done
end

(* ----- shared-memory bank-conflict channel ----- *)

(* Packed channel for the bank-conflict analysis: one row per shared
   access whose active lanes serialized on a bank.  Conflict-free
   accesses never reach the sink, so the channel stays tiny even on
   shared-heavy kernels; the per-access lane addresses are not needed —
   the simulator already reduced them to (degree, replays, broadcast). *)
module Conflict = struct
  type t = {
    mutable len : int;
    mutable cta_col : int array;
    mutable warp_col : int array;
    mutable loc_col : int array; (* interned Bitc.Loc.t *)
    mutable node_col : int array; (* CCT node of the calling context *)
    mutable kind_col : int array; (* Hooks.mem_kind_load / _store *)
    mutable degree_col : int array; (* serialized passes, >= 2 *)
    mutable replays_col : int array; (* degree - 1 *)
    mutable broadcast_col : int array; (* lanes sharing a word *)
    mutable active_col : int array; (* active lanes at the access *)
    loc_ids : (Bitc.Loc.t, int) Hashtbl.t;
    mutable loc_tbl : Bitc.Loc.t array;
    mutable nlocs : int;
  }

  let create () =
    {
      len = 0;
      cta_col = Array.make 64 0;
      warp_col = Array.make 64 0;
      loc_col = Array.make 64 0;
      node_col = Array.make 64 0;
      kind_col = Array.make 64 0;
      degree_col = Array.make 64 0;
      replays_col = Array.make 64 0;
      broadcast_col = Array.make 64 0;
      active_col = Array.make 64 0;
      loc_ids = Hashtbl.create 64;
      loc_tbl = Array.make 64 Bitc.Loc.none;
      nlocs = 0;
    }

  let length t = t.len

  let intern_loc t loc =
    match Hashtbl.find_opt t.loc_ids loc with
    | Some id -> id
    | None ->
      let id = t.nlocs in
      if id = Array.length t.loc_tbl then begin
        let a = Array.make (2 * id) Bitc.Loc.none in
        Array.blit t.loc_tbl 0 a 0 id;
        t.loc_tbl <- a
      end;
      t.loc_tbl.(id) <- loc;
      t.nlocs <- id + 1;
      Hashtbl.add t.loc_ids loc id;
      id

  let ensure_event t =
    if t.len = Array.length t.cta_col then begin
      let n = t.len in
      t.cta_col <- grow_int_col t.cta_col n;
      t.warp_col <- grow_int_col t.warp_col n;
      t.loc_col <- grow_int_col t.loc_col n;
      t.node_col <- grow_int_col t.node_col n;
      t.kind_col <- grow_int_col t.kind_col n;
      t.degree_col <- grow_int_col t.degree_col n;
      t.replays_col <- grow_int_col t.replays_col n;
      t.broadcast_col <- grow_int_col t.broadcast_col n;
      t.active_col <- grow_int_col t.active_col n
    end

  let push t ~node (c : Gpusim.Hookev.conflict) =
    ensure_event t;
    let i = t.len in
    t.len <- i + 1;
    t.cta_col.(i) <- c.cta;
    t.warp_col.(i) <- c.warp;
    t.loc_col.(i) <- intern_loc t c.loc;
    t.node_col.(i) <- node;
    t.kind_col.(i) <- c.kind;
    t.degree_col.(i) <- c.degree;
    t.replays_col.(i) <- c.replays;
    t.broadcast_col.(i) <- c.broadcast_lanes;
    t.active_col.(i) <- c.active_lanes

  let[@inline] cta t i = t.cta_col.(i)
  let[@inline] warp t i = t.warp_col.(i)
  let[@inline] loc_id t i = t.loc_col.(i)
  let[@inline] loc t i = t.loc_tbl.(t.loc_col.(i))
  let[@inline] node t i = t.node_col.(i)
  let[@inline] kind t i = t.kind_col.(i)
  let[@inline] degree t i = t.degree_col.(i)
  let[@inline] replays t i = t.replays_col.(i)
  let[@inline] broadcast t i = t.broadcast_col.(i)
  let[@inline] active t i = t.active_col.(i)
  let num_locs t = t.nlocs
  let loc_of_id t id = t.loc_tbl.(id)

  let iter t f =
    for i = 0 to t.len - 1 do
      f i
    done
end
