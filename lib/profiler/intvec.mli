(** Growable flat int array: amortized O(1) append with no per-element
    allocation.  Building block of the packed trace buffer and of the
    analyzers' per-CTA access streams. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val get : t -> int -> int
val set : t -> int -> int -> unit
val push : t -> int -> unit
val clear : t -> unit
val iter : t -> (int -> unit) -> unit
val fold : t -> init:'a -> f:('a -> int -> 'a) -> 'a
