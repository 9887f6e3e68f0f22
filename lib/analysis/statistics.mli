(** The analyzer's offline component (paper Section 3.3): merges kernel
    instances that share a calling context and reports aggregate
    statistics — the per-kernel performance-variation view. *)

type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  stddev : float;
}

val summarize : float list -> summary

(** Group key of an instance: kernel name + host calling context. *)
val context_key : Profiler.Profile.instance -> string

(** Group instances by calling context and summarize [metric] per
    group. *)
val by_context :
  Profiler.Profile.instance list ->
  metric:(Profiler.Profile.instance -> float) ->
  (string * summary) list

(** {2 Common metrics} *)

val cycles : Profiler.Profile.instance -> float
val pp_summary : Format.formatter -> summary -> unit
