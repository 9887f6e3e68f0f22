(** Binary min-heap keyed by integer priority: the simulator's event
    queue of ready warps. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int
val push : 'a t -> int -> 'a -> unit

(** Pop the minimum-key element. *)
val pop : 'a t -> (int * 'a) option

(** [run_ahead_ok t k] is [true] iff [push t k v] immediately followed
    by [pop t] would return [(k, v)] and leave the heap's internal
    arrangement bit-identical to its current state.  Read-only and
    O(log n): callers may then skip the push/pop pair without
    perturbing any future pop order, including ties. *)
val run_ahead_ok : 'a t -> int -> bool
