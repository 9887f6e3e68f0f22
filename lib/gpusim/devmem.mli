(** Simulated device (or host) memory: a flat, byte-addressable space
    with a bump allocator (cudaMalloc) and bounds-checked access, so
    out-of-range kernel accesses fault loudly. *)

exception Fault of { addr : int; size : int; msg : string }

type t

(** Address 0 stays unmapped so null dereferences fault. *)
val base_addr : int

val create : ?capacity:int -> unit -> t

(** cudaMalloc: [size] fresh bytes, 256-byte aligned.  Faults on
    non-positive sizes. *)
val malloc : t -> int -> int

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_i32 : t -> int -> int
val write_i32 : t -> int -> int -> unit
val read_f32 : t -> int -> float
val write_f32 : t -> int -> float -> unit
val read_i64 : t -> int -> int
val write_i64 : t -> int -> int -> unit

(** Typed accessors used by the simulator's ld/st paths
    (width 1, 4 or 8 bytes; [fl] selects float interpretation). *)
val read : t -> addr:int -> width:int -> fl:bool -> Value.t

val write : t -> addr:int -> width:int -> fl:bool -> Value.t -> unit

(** Bulk copy between two spaces (cudaMemcpy's data movement). *)
val blit : src:t -> src_addr:int -> dst:t -> dst_addr:int -> bytes:int -> unit

val write_f32_array : t -> int -> float array -> unit
val read_f32_array : t -> int -> int -> float array
val write_i32_array : t -> int -> int array -> unit
val read_i32_array : t -> int -> int -> int array
val write_bool_array : t -> int -> bool array -> unit
val read_bool_array : t -> int -> int -> bool array

(** (base, size) of every allocation, most recent first. *)
val allocations : t -> (int * int) list
