(* Binary min-heap keyed by integer priority, used by the simulator's
   event loop to pick the next ready warp. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a option array;
  mutable size : int;
}

let create () = { keys = Array.make 64 max_int; vals = Array.make 64 None; size = 0 }

let is_empty t = t.size = 0
let size t = t.size

let grow t =
  let n = Array.length t.keys in
  let keys = Array.make (2 * n) max_int in
  let vals = Array.make (2 * n) None in
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.vals 0 vals 0 t.size;
  t.keys <- keys;
  t.vals <- vals

let swap t i j =
  let k = t.keys.(i) in
  t.keys.(i) <- t.keys.(j);
  t.keys.(j) <- k;
  let v = t.vals.(i) in
  t.vals.(i) <- t.vals.(j);
  t.vals.(j) <- v

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.keys.(i) < t.keys.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.keys.(l) < t.keys.(!smallest) then smallest := l;
  if r < t.size && t.keys.(r) < t.keys.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t key v =
  if t.size = Array.length t.keys then grow t;
  t.keys.(t.size) <- key;
  t.vals.(t.size) <- Some v;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let key = t.keys.(0) in
    let v = t.vals.(0) in
    t.size <- t.size - 1;
    t.keys.(0) <- t.keys.(t.size);
    t.vals.(0) <- t.vals.(t.size);
    t.vals.(t.size) <- None;
    if t.size > 0 then sift_down t 0;
    match v with Some v -> Some (key, v) | None -> assert false
  end

(* Would [push t k v; pop t] return [k] and leave the arrays arranged
   exactly as they are now?  The event loop uses this to keep stepping
   the warp it just popped without touching the heap; because it only
   skips *identity* push/pop pairs, every later pop sees the very same
   arrangement — and hence the very same tie-breaks among equal keys —
   as the unskipped schedule, keeping cycle counts bit-identical.

   Why these conditions: [push k] sifts [k] up the ancestor path of
   slot [n] (all the way, since [k] is below the root), shifting each
   ancestor one step down the path and parking [w = keys.((n-1)/2)] in
   slot [n].  [pop] then takes [k] from the root, moves [w] back to the
   root and sifts it down.  The net effect is the identity iff that
   sift-down retraces the same path, which at each path node [par ->
   cur] requires the displaced key [keys.(par)] to win the 3-way
   minimum: it must beat [w] strictly, and — when [cur] is a right
   child — also beat the left sibling if that sibling beats [w].  (When
   [cur] is a left child the right sibling can never win: the heap
   invariant puts it at >= keys.(par), and sift-down prefers the left
   child on ties.)  The walk terminates by itself: if [n] is even, slot
   [n-1] >= [w] by the invariant, so [w] stops at [(n-1)/2]. *)
let run_ahead_ok t k =
  let n = t.size in
  n = 0
  || k < t.keys.(0)
     &&
     let keys = t.keys in
     let w = keys.((n - 1) / 2) in
     let ok = ref true in
     let cur = ref ((n - 1) / 2) in
     while !ok && !cur > 0 do
       let par = (!cur - 1) / 2 in
       let kp = keys.(par) in
       if kp >= w then ok := false
       else if !cur land 1 = 0 then begin
         let ks = keys.(!cur - 1) in
         if ks < w && kp >= ks then ok := false
       end;
       cur := par
     done;
     !ok
