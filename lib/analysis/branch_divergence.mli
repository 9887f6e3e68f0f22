(** Branch-divergence analysis (paper Section 4.2-(C), Table 3): every
    basic-block entry is instrumented; a dynamic block execution is
    divergent when the warp entered it under a partial active mask. *)

type result = {
  divergent_blocks : int;  (** dynamic, warp-level *)
  total_blocks : int;
  per_block : (int * int * int) list;
      (** (block id, executions, divergent executions) *)
}

(** Percentage of divergent dynamic blocks, Table 3's last column. *)
val percent : result -> float

val of_instance : Profiler.Profile.instance -> result

(** Merge across all kernel instances of an application run. *)
val of_instances : Profiler.Profile.instance list -> result
