(* Growable flat int array: the building block of the packed trace
   buffer and of the analyzers' per-CTA access streams.  Appending is
   amortized O(1) and never allocates per element — the storage is a
   plain [int array] doubled on demand. *)

type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () = { data = Array.make (max capacity 1) 0; len = 0 }
let length t = t.len

let[@inline] get t i = t.data.(i)
let[@inline] set t i v = t.data.(i) <- v

let ensure t extra =
  let need = t.len + extra in
  if need > Array.length t.data then begin
    let cap = ref (Array.length t.data * 2) in
    while !cap < need do
      cap := !cap * 2
    done;
    let data = Array.make !cap 0 in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let[@inline] push t v =
  if t.len = Array.length t.data then ensure t 1;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let clear t = t.len <- 0

let iter t f =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc
