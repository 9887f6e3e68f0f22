(** Side tables emitted by the instrumentation engine: the hooks carry
    small integer ids at run time; the analyzer resolves them back to
    call sites and basic blocks (the paper stores block names as global
    strings in the binary — Listing 4 — with the same effect). *)

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

type t

val create : unit -> t

(** Register a call site / block; returns its id. *)
val add_callsite : t -> caller:string -> callee:string -> loc:Bitc.Loc.t -> int

val add_block : t -> in_func:string -> block_name:string -> loc:Bitc.Loc.t -> int
val add_barrier : t -> in_func:string -> loc:Bitc.Loc.t -> int

(** Resolve an id; raises [Invalid_argument] on unknown ids. *)
val callsite : t -> int -> callsite

val block : t -> int -> block_info
val barrier : t -> int -> barrier_info
val num_blocks : t -> int
val num_callsites : t -> int
