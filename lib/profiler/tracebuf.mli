(** Packed warp-level memory-event trace (paper Section 3.2): a
    growable struct-of-arrays buffer with flat int columns per record
    field plus a shared lane/address arena, mirroring the paper's
    fixed-size device trace records.  Appending allocates no per-event
    list or tuple; iteration is a single pass over the columns in
    execution order.  Kernel names and source locations are interned
    in side tables. *)

type t

val create : unit -> t

(** Number of events recorded. *)
val length : t -> int

(** Append one warp-level memory event with its CCT node. *)
val push : t -> node:int -> Gpusim.Hookev.mem -> unit

(** {2 Zero-copy column accessors (event index in [0, length))} *)

val kernel : t -> int -> string
val cta : t -> int -> int
val warp : t -> int -> int
val loc : t -> int -> Bitc.Loc.t
val loc_id : t -> int -> int
val bits : t -> int -> int
val kind : t -> int -> int
val node : t -> int -> int

(** Number of active lanes of event [i]. *)
val acc_len : t -> int -> int

(** Offset of event [i]'s first slot in the access arena. *)
val acc_off : t -> int -> int

(** Lane id / byte address of the [j]-th active lane of event [i]. *)
val lane : t -> int -> int -> int

val addr : t -> int -> int -> int

(** The shared address arena; the slice
    [acc_off t i, acc_off t i + acc_len t i) holds event [i]'s
    addresses.  Invalidated by the next [push] that grows the arena. *)
val addr_arena : t -> int array

(** {2 Interning tables} *)

(** Number of distinct source locations seen. *)
val num_locs : t -> int

val loc_of_id : t -> int -> Bitc.Loc.t

(** {2 Whole-trace iteration (execution order)} *)

val iter : t -> (int -> unit) -> unit
val fold : t -> init:'a -> f:('a -> int -> 'a) -> 'a

(** {2 Decode — compatibility and round-trip testing} *)

(** Materialize event [i] as the unpacked event record. *)
val event : t -> int -> Gpusim.Hookev.mem * int

val of_events : (Gpusim.Hookev.mem * int) list -> t
val to_events : t -> (Gpusim.Hookev.mem * int) list

(** Packed channel for the [advisor check] race detector: one row per
    warp-level shared-memory access or per-warp barrier passage, in
    execution order.  Barrier rows reuse the width column for the
    manifest barrier id.  Shared addresses are CTA-local; comparisons
    are only meaningful within one CTA. *)
module Shared : sig
  (** Row tags. *)
  val tag_read : int

  val tag_write : int
  val tag_barrier : int
  val tag_atomic : int

  type t

  val create : unit -> t
  val length : t -> int

  (** Append one shared-memory access row; [accesses] are the
      (lane, CTA-local byte address) pairs of the active lanes. *)
  val push_access :
    t ->
    cta:int ->
    warp:int ->
    epoch:int ->
    tag:int ->
    bits:int ->
    loc:Bitc.Loc.t ->
    node:int ->
    (int * int) array ->
    unit

  (** Append one barrier-passage row for a warp: the barrier ends
      [epoch] for that warp. *)
  val push_barrier :
    t -> cta:int -> warp:int -> epoch:int -> bar_id:int -> loc:Bitc.Loc.t ->
    node:int -> unit

  (** {2 Zero-copy column accessors (row index in [0, length))} *)

  val cta : t -> int -> int
  val warp : t -> int -> int
  val epoch : t -> int -> int
  val tag : t -> int -> int
  val bits : t -> int -> int

  (** Barrier rows only: the manifest barrier id. *)
  val bar_id : t -> int -> int

  val loc : t -> int -> Bitc.Loc.t
  val loc_id : t -> int -> int
  val node : t -> int -> int
  val acc_len : t -> int -> int
  val addr : t -> int -> int -> int
  val num_locs : t -> int
  val loc_of_id : t -> int -> Bitc.Loc.t
  val iter_addrs : t -> int -> (int -> unit) -> unit
  val iter : t -> (int -> unit) -> unit
end

(** Packed channel for the bank-conflict analysis: one row per shared
    access whose active lanes serialized on a bank (conflict-free
    accesses never reach the sink).  The simulator has already reduced
    the lane addresses to (degree, replays, broadcast lanes), so rows
    carry no arena slice. *)
module Conflict : sig
  type t

  val create : unit -> t
  val length : t -> int

  (** Append one conflict row with its CCT node. *)
  val push : t -> node:int -> Gpusim.Hookev.conflict -> unit

  (** {2 Zero-copy column accessors (row index in [0, length))} *)

  val cta : t -> int -> int
  val warp : t -> int -> int
  val loc : t -> int -> Bitc.Loc.t
  val loc_id : t -> int -> int
  val node : t -> int -> int

  (** Hooks.mem_kind_load or _store. *)
  val kind : t -> int -> int

  (** Serialized passes through the worst bank, [>= 2]. *)
  val degree : t -> int -> int

  (** [degree - 1] extra issues. *)
  val replays : t -> int -> int

  (** Active lanes whose word another lane also touched. *)
  val broadcast : t -> int -> int

  (** Active lanes at the access. *)
  val active : t -> int -> int

  val num_locs : t -> int
  val loc_of_id : t -> int -> Bitc.Loc.t
  val iter : t -> (int -> unit) -> unit
end
