(* Simulated device global memory: a flat, byte-addressable space with a
   bump allocator (cudaMalloc).  Reads and writes are bounds-checked so
   out-of-range kernel accesses fault loudly instead of corrupting the
   simulation. *)

exception Fault of { addr : int; size : int; msg : string }

type t = {
  mutable data : Bytes.t;
  mutable brk : int; (* next free byte *)
  mutable allocs : (int * int) list; (* (base, size), most recent first *)
}

(* Address 0 stays unmapped so null-pointer dereferences fault. *)
let base_addr = 256

let create ?(capacity = 1 lsl 22) () =
  { data = Bytes.make capacity '\000'; brk = base_addr; allocs = [] }

let ensure t size =
  if size > Bytes.length t.data then begin
    let cap = max size (2 * Bytes.length t.data) in
    let bigger = Bytes.make cap '\000' in
    Bytes.blit t.data 0 bigger 0 (Bytes.length t.data);
    t.data <- bigger
  end

let align_up v a = (v + a - 1) / a * a

(* cudaMalloc: returns the device address of [size] fresh bytes, aligned
   to 256 bytes like the CUDA allocator guarantees. *)
let malloc t size =
  if size <= 0 then raise (Fault { addr = t.brk; size; msg = "malloc of size <= 0" });
  let addr = align_up t.brk 256 in
  ensure t (addr + size);
  t.brk <- addr + size;
  t.allocs <- (addr, size) :: t.allocs;
  addr

let check t addr size =
  if addr < base_addr || addr + size > t.brk then
    raise
      (Fault { addr; size; msg = Printf.sprintf "access outside allocations (brk=%d)" t.brk })

let read_u8 t addr =
  check t addr 1;
  Char.code (Bytes.get t.data addr)

let write_u8 t addr v =
  check t addr 1;
  Bytes.set t.data addr (Char.chr (v land 0xff))

let read_i32 t addr =
  check t addr 4;
  Int32.to_int (Bytes.get_int32_le t.data addr)

let write_i32 t addr v =
  check t addr 4;
  Bytes.set_int32_le t.data addr (Int32.of_int v)

let read_f32 t addr =
  check t addr 4;
  Int32.float_of_bits (Bytes.get_int32_le t.data addr)

let write_f32 t addr v =
  check t addr 4;
  Bytes.set_int32_le t.data addr (Int32.bits_of_float v)

let read_i64 t addr =
  check t addr 8;
  Int64.to_int (Bytes.get_int64_le t.data addr)

let write_i64 t addr v =
  check t addr 8;
  Bytes.set_int64_le t.data addr (Int64.of_int v)

(* Typed accessors shared by the simulator's ld/st paths. *)
let read t ~addr ~width ~fl : Value.t =
  match width, fl with
  | 1, false -> Value.I (read_u8 t addr)
  | 4, false -> Value.I (read_i32 t addr)
  | 4, true -> Value.F (read_f32 t addr)
  | 8, false -> Value.I (read_i64 t addr)
  | _ -> raise (Fault { addr; size = width; msg = "unsupported access width" })

let write t ~addr ~width ~fl (v : Value.t) =
  match width, fl with
  | 1, false -> write_u8 t addr (Value.to_int v land 0xff)
  | 4, false -> write_i32 t addr (Value.to_int v)
  | 4, true -> write_f32 t addr (Value.to_float v)
  | 8, false -> write_i64 t addr (Value.to_int v)
  | _ -> raise (Fault { addr; size = width; msg = "unsupported access width" })

(* Bulk copy between two memory spaces (cudaMemcpy's data movement). *)
let blit ~src ~src_addr ~dst ~dst_addr ~bytes =
  check src src_addr bytes;
  check dst dst_addr bytes;
  Bytes.blit src.data src_addr dst.data dst_addr bytes

(* Typed array helpers used by host drivers and tests. *)
let write_f32_array t addr values =
  Array.iteri (fun i v -> write_f32 t (addr + (4 * i)) v) values

let read_f32_array t addr n = Array.init n (fun i -> read_f32 t (addr + (4 * i)))

let write_i32_array t addr values =
  Array.iteri (fun i v -> write_i32 t (addr + (4 * i)) v) values

let read_i32_array t addr n = Array.init n (fun i -> read_i32 t (addr + (4 * i)))

let write_bool_array t addr values =
  Array.iteri (fun i v -> write_u8 t (addr + i) (if v then 1 else 0)) values

let read_bool_array t addr n = Array.init n (fun i -> read_u8 t (addr + i) <> 0)

let allocations t = t.allocs
