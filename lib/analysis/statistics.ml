(* The analyzer's offline component (Section 3.3): merges the results of
   kernel instances sharing a calling context and reports aggregate
   statistics (mean, min, max, standard deviation) — the per-kernel
   performance-variation view. *)

type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  stddev : float;
}

let summarize = function
  | [] -> { count = 0; mean = 0.; min = 0.; max = 0.; stddev = 0. }
  | values ->
    let n = List.length values in
    let fn = float_of_int n in
    let sum = List.fold_left ( +. ) 0. values in
    let mean = sum /. fn in
    let var =
      List.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.)) 0. values /. fn
    in
    {
      count = n;
      mean;
      min = List.fold_left Float.min infinity values;
      max = List.fold_left Float.max neg_infinity values;
      stddev = sqrt var;
    }

(* Group key of an instance: kernel name + its host calling context. *)
let context_key (i : Profiler.Profile.instance) =
  i.kernel
  ^ " <- "
  ^ String.concat " <- " (List.map Profiler.Records.frame_to_string i.host_path)

(* Merge instances by calling context and summarize [metric] over each
   group.  Returns (context, summary) pairs. *)
let by_context instances ~metric =
  let groups : (string, float list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun i ->
      let key = context_key i in
      let cell =
        match Hashtbl.find_opt groups key with
        | Some r -> r
        | None ->
          let r = ref [] in
          Hashtbl.replace groups key r;
          r
      in
      cell := metric i :: !cell)
    instances;
  Hashtbl.fold (fun key values acc -> (key, summarize !values) :: acc) groups []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Common metrics. *)
let cycles (i : Profiler.Profile.instance) =
  match i.result with Some r -> float_of_int r.Gpusim.Gpu.cycles | None -> 0.

let pp_summary fmt s =
  Format.fprintf fmt "n=%d mean=%.1f min=%.1f max=%.1f stddev=%.1f" s.count s.mean
    s.min s.max s.stddev
