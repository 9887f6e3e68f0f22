(* The benchmark registry: the ten applications of Table 2, plus the
   seeded-bug variants that validate `advisor check` (kept out of [all]
   so every profiling experiment and test still iterates exactly the
   paper's clean set). *)

let all : Common.t list =
  [
    Backprop.workload;
    Bfs.workload;
    Hotspot.workload;
    Lavamd.workload;
    Nn.workload;
    Nw.workload;
    Srad_v2.workload;
    Bicg.workload;
    Syrk.workload;
    Syr2k.workload;
  ]

let seeded : Common.t list = Seeded.all

(* Bank-conflict microbenchmarks with exactly known conflict degrees;
   findable by name (for `bench bankconflict`, serve requests and the
   calibration tests) but, like the seeded set, not part of [all]. *)
let micro : Common.t list = Bankmarks.all

(* Stress variants: every Table-2 app whose source contains an
   unrollable innermost loop, 4x unrolled (the tuning sweeps' unroll
   knob).  Same inputs and drivers, bigger kernel bodies — larger
   traces and register pressure without new golden metrics, so they
   stay out of [all] like the seeded set. *)
let stress : Common.t list =
  List.filter_map
    (fun (w : Common.t) ->
      match Minicuda.Unroll.unroll ~factor:4 w.source with
      | _, 0 -> None
      | src, loops ->
        Some
          { w with
            name = w.name ^ "-unroll4";
            source = src;
            description =
              Printf.sprintf "%s (%d innermost loop%s 4x unrolled)"
                w.description loops
                (if loops = 1 then "" else "s");
          })
    all

let names = List.map (fun (w : Common.t) -> w.name) all
let micro_names = List.map (fun (w : Common.t) -> w.name) micro
let find name = Common.find (all @ seeded @ stress @ micro) name

let find_opt name =
  List.find_opt
    (fun (w : Common.t) -> w.name = name)
    (all @ seeded @ stress @ micro)
