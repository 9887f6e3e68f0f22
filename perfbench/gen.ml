(* Seeded input generators of the three workloads.

   The seed only decides the order of operations, which earlier
   requests the serve stream repeats, and the names the kernel-variant
   generator invents.  What a run does (its composition) is the same
   for every seed, so two seeds measure the same work. *)

(* ----- a portable PRNG (splitmix64), so a seed names the same inputs
   on every OCaml version ----- *)

type rng = { mutable s : int64 }

let rng seed = { s = Int64.of_int seed }

let next64 r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* uniform in [0, n) *)
let below r n = Int64.to_int (Int64.unsigned_rem (next64 r) (Int64.of_int n))

let shuffle r l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = below r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Independent streams per purpose, so adding draws to one generator
   never reshuffles another.  The tag is folded in with FNV-1a. *)
let sub seed tag =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    tag;
  { s = Int64.logxor !h (Int64.of_int seed) }

(* ----- sim-native: the Table-2 apps as native runs ----- *)

(* Where an input runs: the paper's Kepler K40c with 16 KB L1, Pascal
   P100, or one point of the Figure-6 bypass sweep (K40c 16 KB, 5 SMs,
   half of each CTA's warps caching in L1). *)
type target = Kepler | Pascal | Fig6

type sim_input = { app : string; target : target }

let target_name = function
  | Kepler -> "kepler"
  | Pascal -> "pascal"
  | Fig6 -> "fig6"

let sim_input_id i = i.app ^ "/" ^ target_name i.target

let fig6_apps = [ "bfs"; "hotspot"; "bicg"; "syrk"; "syr2k" ]

let sim_inputs =
  List.concat_map
    (fun app -> [ { app; target = Kepler }; { app; target = Pascal } ])
    Workloads.Registry.names
  @ List.map (fun app -> { app; target = Fig6 }) fig6_apps

(* A run's passes, one per call: each visits every input once, in its
   own order. *)
let sim_passes ~seed =
  let r = sub seed "sim-native" in
  fun () -> shuffle r sim_inputs

(* ----- serve-profile: one connection's request stream ----- *)

(* lavaMD is left out: its profile is almost all simulation, which
   sim-native already measures. *)
let serve_apps = List.filter (fun a -> a <> "lavaMD") Workloads.Registry.names

let profile_archs = [ "kepler"; "kepler-32k"; "pascal" ]
let check_archs = [ "kepler"; "pascal" ]

(* Warm-up architecture: never requested by the stream, so warming
   fills the compile and decode caches without pre-filling the result
   cache. *)
let warmup_arch = "kepler-48k"

(* A request before its id and its position are known. *)
type req =
  | Profile of string * string
  | Check of string * string
  | Fast of string * string
  | Evaluate of string * (string * (string * int) list) list
      (* app, named variants: knob name -> value *)

(* Knob variants of a small app: CTA width doubled and halved, and
   half of each CTA's warps bypassing L1. *)
let knob_variants app =
  let w = Workloads.Registry.find app in
  let bx, _ = w.Workloads.Common.block_dims in
  [ ("bx2", [ ("block_x", bx * 2) ]);
    ("bxhalf", [ ("block_x", bx / 2) ]);
    ("bypass", [ ("bypass_warps", w.Workloads.Common.warps_per_cta / 2) ]) ]

let fast_requests =
  [ Fast ("bfs", "kepler"); Fast ("hotspot", "kepler-32k"); Fast ("syrk", "pascal") ]

let num_repeats = 12

(* [l] with [x] inserted before position [at] ([at = length l] appends). *)
let insert_at l at x =
  List.filteri (fun i _ -> i < at) l @ (x :: List.filteri (fun i _ -> i >= at) l)

type stream_item = {
  line : string; (* the request line sent, without its newline *)
  key : string; (* names the expected-output entry *)
  kind : string; (* "computed" | "static" | "hit" *)
  repeat_of : int option; (* index of the request whose answer a hit repeats *)
}

let json_str s = Analysis.Json.to_string (Analysis.Json.String s)

let request_line id = function
  | Profile (app, arch) ->
    Printf.sprintf {|{"id":%d,"op":"profile","app":%s,"arch":%s}|} id
      (json_str app) (json_str arch)
  | Check (app, arch) ->
    Printf.sprintf {|{"id":%d,"op":"check","app":%s,"arch":%s}|} id
      (json_str app) (json_str arch)
  | Fast (app, arch) ->
    Printf.sprintf {|{"id":%d,"op":"profile_fast","app":%s,"arch":%s}|} id
      (json_str app) (json_str arch)
  | Evaluate (app, variants) ->
    let variant (name, knobs) =
      Printf.sprintf {|{"name":%s%s}|} (json_str name)
        (String.concat ""
           (List.map (fun (k, v) -> Printf.sprintf ",%s:%d" (json_str k) v) knobs))
    in
    Printf.sprintf {|{"id":%d,"op":"evaluate","app":%s,"arch":"kepler","variants":[%s]}|}
      id (json_str app)
      (String.concat "," (List.map variant variants))

let request_key = function
  | Profile (app, arch) -> "profile|" ^ app ^ "|" ^ arch
  | Check (app, arch) -> "check|" ^ app ^ "|" ^ arch
  | Fast (app, arch) -> "profile_fast|" ^ app ^ "|" ^ arch
  | Evaluate (app, _) -> "evaluate|" ^ app ^ "|kepler"

let warmup_lines () =
  List.mapi
    (fun i app ->
      request_line (-1 - i) (Profile (app, warmup_arch)))
    serve_apps

(* The stream: every app profiled on three architectures and checked on
   two, three static answers, two fresh evaluate batches (nn, bicg) and
   a later batch resubmitting nn's variants under new names, plus
   [num_repeats] exact repeats of earlier cacheable requests.  Repeats
   and static answers stay under a third of the stream, so its median
   is always a computed answer. *)
let serve_stream ~seed =
  let r = sub seed "serve-profile" in
  let renamed vs = List.rev_map (fun (n, k) -> ("re-" ^ n, k)) vs in
  let nn_variants = knob_variants "nn" in
  let base =
    List.concat_map
      (fun app ->
        List.map (fun a -> Profile (app, a)) profile_archs
        @ List.map (fun a -> Check (app, a)) check_archs)
      serve_apps
    @ fast_requests
    @ [ Evaluate ("nn", nn_variants); Evaluate ("bicg", knob_variants "bicg") ]
  in
  let order = Array.of_list (shuffle r base) in
  (* the resubmission goes anywhere after the first nn batch *)
  let first_nn =
    let rec find i =
      match order.(i) with Evaluate ("nn", _) -> i | _ -> find (i + 1)
    in
    find 0
  in
  let resubmit_at = first_nn + 1 + below r (Array.length order - first_nn) in
  let reqs =
    ref
      (insert_at
         (List.map (fun q -> `Fresh q) (Array.to_list order))
         resubmit_at
         (`Fresh (Evaluate ("nn", renamed nn_variants))))
  in
  (* insert repeats one at a time, each after the request it repeats *)
  let cacheable = function Evaluate _ -> false | _ -> true in
  for _ = 1 to num_repeats do
    let a = Array.of_list !reqs in
    let candidates =
      List.filter (fun i -> match a.(i) with `Fresh q -> cacheable q | `Repeat _ -> false)
        (List.init (Array.length a) Fun.id)
    in
    let src = List.nth candidates (below r (List.length candidates)) in
    let at = src + 1 + below r (Array.length a - src) in
    let q = match a.(src) with `Fresh q | `Repeat q -> q in
    reqs := insert_at !reqs at (`Repeat q)
  done;
  (* number the stream; a repeat points at the first earlier request
     with the same key, which stored the answer it must reproduce *)
  let first = Hashtbl.create 64 in
  List.mapi
    (fun i x ->
      let q, is_repeat = match x with `Fresh q -> (q, false) | `Repeat q -> (q, true) in
      let key = request_key q in
      let repeat_of =
        if is_repeat then Hashtbl.find_opt first key
        else begin
          if not (Hashtbl.mem first key) then Hashtbl.add first key i;
          None
        end
      in
      let kind =
        match (repeat_of, q) with
        | Some _, _ -> "hit"
        | None, Fast _ -> "static"
        | None, _ -> "computed"
      in
      { line = request_line i q; key; kind; repeat_of })
    !reqs

(* ----- compile-static: never-seen kernels ----- *)

(* Identifiers the frontend resolves itself; every other identifier is
   the program's own and may be renamed. *)
let builtins =
  [ "threadIdx"; "blockIdx"; "blockDim"; "gridDim"; "sqrtf"; "expf"; "logf";
    "fabsf"; "min"; "max"; "atomicAdd"; "__syncthreads" ]

let name_chars = "abcdefghijklmnopqrstuvwxyz0123456789"

(* A consistent renaming of [src]: every program identifier becomes a
   fresh 8-character name drawn from [r] (the same name at every
   occurrence); builtins and member names after '.' are kept.  Every
   renamed identifier has the same length in every variant, so the
   source size, and with it the work, does not depend on the seed. *)
let rename r ~file src =
  let toks = Minicuda.Lexer.tokenize ~file src in
  let line_start =
    let starts = ref [ 0 ] in
    String.iteri (fun i c -> if c = '\n' then starts := (i + 1) :: !starts) src;
    Array.of_list (List.rev !starts)
  in
  let fresh = Hashtbl.create 32 and used = Hashtbl.create 32 in
  let rec new_name () =
    let n = String.init 8 (fun i ->
        if i = 0 then 'k' else name_chars.[below r (String.length name_chars)]) in
    if Hashtbl.mem used n then new_name () else (Hashtbl.add used n (); n)
  in
  let edits = ref [] in
  let prev = ref Minicuda.Token.Eof in
  List.iter
    (fun (t : Minicuda.Lexer.spanned) ->
      (match t.tok with
      | Minicuda.Token.Ident name
        when !prev <> Minicuda.Token.Dot && not (List.mem name builtins) ->
        let n =
          match Hashtbl.find_opt fresh name with
          | Some n -> n
          | None ->
            let n = new_name () in
            Hashtbl.add fresh name n;
            n
        in
        let off = line_start.(t.line - 1) + t.col - 1 in
        edits := (off, String.length name, n) :: !edits
      | _ -> ());
      prev := t.tok)
    toks;
  let buf = Buffer.create (String.length src + 256) in
  let pos =
    List.fold_left
      (fun pos (off, len, n) ->
        Buffer.add_string buf (String.sub src pos (off - pos));
        Buffer.add_string buf n;
        off + len)
      0 (List.rev !edits)
  in
  Buffer.add_string buf (String.sub src pos (String.length src - pos));
  Buffer.contents buf

type variant = { v_app : string; v_file : string; v_source : string }

(* A run's compile-static passes, one per call: a fresh variant of each
   Table-2 app, in a seeded order.  The pass number is in the file names,
   so no two variants of a run share a name or a source; warm-up passes
   come from their own stream (and negative numbers), so the timed
   variants are never-seen. *)
let static_passes ?(warmup = false) ~seed () =
  let r = sub seed (if warmup then "compile-static-warmup" else "compile-static") in
  let pass = ref 0 in
  fun () ->
    incr pass;
    let n = if warmup then - !pass else !pass in
    List.map
      (fun app ->
        let w = Workloads.Registry.find app in
        let file = Printf.sprintf "v%d_%s.cu" n app in
        { v_app = app; v_file = file; v_source = rename r ~file w.Workloads.Common.source })
      (shuffle r Workloads.Registry.names)
