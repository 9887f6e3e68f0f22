(* In-memory spans around the calls the benchmark makes into each layer.

   A span has a name ("<layer>.<entry point>"), a start and an end, the
   span that encloses it and the op it belongs to.  Spans are kept in
   growable arrays and only summarised or written out when the run
   ends.  When tracing is off, [run] just calls its function. *)

let enabled = ref false

type t = {
  mutable n : int;
  mutable name : string array;
  mutable start : int array; (* ns *)
  mutable stop : int array;
  mutable parent : int array; (* index, -1 for an op's root span *)
  mutable op : int array;
  mutable alloc : float array; (* minor-heap words allocated inside *)
}

let spans =
  { n = 0; name = [||]; start = [||]; stop = [||]; parent = [||]; op = [||];
    alloc = [||] }

let current = ref (-1)
let current_op = ref (-1)

let grow () =
  let cap = max 1024 (2 * Array.length spans.name) in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 spans.n;
    b
  in
  spans.name <- ext spans.name "";
  spans.start <- ext spans.start 0;
  spans.stop <- ext spans.stop 0;
  spans.parent <- ext spans.parent (-1);
  spans.op <- ext spans.op (-1);
  spans.alloc <- ext spans.alloc 0.

let run name f =
  if not !enabled then f ()
  else begin
    if spans.n = Array.length spans.name then grow ();
    let i = spans.n in
    spans.n <- i + 1;
    spans.name.(i) <- name;
    spans.parent.(i) <- !current;
    spans.op.(i) <- !current_op;
    let saved = !current in
    current := i;
    let w0 = Gc.minor_words () in
    spans.start.(i) <- Obs.Clock.now_ns ();
    Fun.protect
      ~finally:(fun () ->
        spans.stop.(i) <- Obs.Clock.now_ns ();
        spans.alloc.(i) <- Gc.minor_words () -. w0;
        current := saved)
      f
  end

(* The root span of op [id]: every span opened inside belongs to it. *)
let op id f =
  current_op := id;
  Fun.protect ~finally:(fun () -> current_op := -1) (fun () -> run "op" f)

let dur i = spans.stop.(i) - spans.start.(i)

(* Time and minor words covered by each span's direct children. *)
let children () =
  let ns = Array.make spans.n 0 and w = Array.make spans.n 0. in
  for i = 0 to spans.n - 1 do
    let p = spans.parent.(i) in
    if p >= 0 then begin
      ns.(p) <- ns.(p) + dur i;
      w.(p) <- w.(p) +. spans.alloc.(i)
    end
  done;
  (ns, w)

(* Per-name totals over all spans: (self ns, self minor words, calls).
   Self = the span minus the spans directly inside it.  The root
   spans' self time is what no layer span covered ("op"). *)
let self_totals () =
  let child_ns, child_w = children () in
  let tbl = Hashtbl.create 32 in
  for i = 0 to spans.n - 1 do
    let ns, w, c =
      Option.value (Hashtbl.find_opt tbl spans.name.(i)) ~default:(0, 0., 0)
    in
    Hashtbl.replace tbl spans.name.(i)
      (ns + dur i - child_ns.(i), w +. spans.alloc.(i) -. child_w.(i), c + 1)
  done;
  tbl

(* Each op's root span duration in ns, in op order. *)
let op_durations () =
  let acc = ref [] in
  for i = spans.n - 1 downto 0 do
    if spans.parent.(i) < 0 then acc := dur i :: !acc
  done;
  !acc

(* Chrome trace-event JSON ("X" events; args carry op and parent). *)
let write_chrome path =
  let t0 = if spans.n = 0 then 0 else spans.start.(0) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"traceEvents\":[";
      for i = 0 to spans.n - 1 do
        if i > 0 then output_char oc ',';
        Printf.fprintf oc
          "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"id\":%d,\"parent\":%d}}"
          spans.name.(i)
          (float_of_int (spans.start.(i) - t0) /. 1e3)
          (float_of_int (dur i) /. 1e3)
          spans.op.(i) i spans.parent.(i)
      done;
      output_string oc "]}\n")
