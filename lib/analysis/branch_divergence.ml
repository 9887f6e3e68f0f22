(* Branch-divergence analysis (Section 4.2-(C)): every basic-block entry
   is instrumented; a dynamic block execution is divergent when the
   warp entered it with a partial active mask.  Table 3 reports the
   number of divergent block executions over the total. *)

type result = {
  divergent_blocks : int; (* dynamic, warp-level *)
  total_blocks : int;
  (* static view: per block id, (executions, divergent executions) *)
  per_block : (int * int * int) list;
}

let percent r =
  if r.total_blocks = 0 then 0.
  else 100. *. float_of_int r.divergent_blocks /. float_of_int r.total_blocks

let of_instance (instance : Profiler.Profile.instance) =
  let divergent = ref 0 and total = ref 0 in
  let per_block = ref [] in
  Hashtbl.iter
    (fun bb_id (s : Profiler.Profile.bb_stat) ->
      divergent := !divergent + s.divergent;
      total := !total + s.execs;
      per_block := (bb_id, s.execs, s.divergent) :: !per_block)
    instance.bb_stats;
  {
    divergent_blocks = !divergent;
    total_blocks = !total;
    per_block = List.sort (fun (a, _, _) (b, _, _) -> compare a b) !per_block;
  }

(* Merge across all instances of an application run. *)
let of_instances instances =
  List.fold_left
    (fun acc i ->
      let r = of_instance i in
      {
        divergent_blocks = acc.divergent_blocks + r.divergent_blocks;
        total_blocks = acc.total_blocks + r.total_blocks;
        per_block = acc.per_block @ r.per_block;
      })
    { divergent_blocks = 0; total_blocks = 0; per_block = [] }
    instances
