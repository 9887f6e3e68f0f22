(* The host runtime: models the CPU side of a CUDA program with the
   paper's mandatory instrumentation interposed.  Host drivers are OCaml
   functions that call this API; [in_function] maintains the CPU shadow
   stack, and the malloc/cudaMalloc/cudaMemcpy entry points record the
   allocation and transfer maps the data-centric profiler correlates
   (Section 3.1-(I), Section 3.2.2). *)

type t = {
  device : Gpusim.Gpu.device;
  prog : Ptx.Isa.prog;
  profiler : Profiler.Profile.t option;
  hostmem : Gpusim.Devmem.t; (* flat host address space *)
  mutable shadow : Profiler.Records.host_frame list; (* top first *)
  mutable launches : (string * Gpusim.Gpu.result) list; (* reversed *)
  bankmodel : bool; (* charge shared-memory bank-conflict replays *)
  block_x_override : int option;
      (* tuning knob: force this CTA width on every launch, rescaling
         grid.x so the total x-thread count never shrinks *)
}

(* Host-side traffic totals: allocation and PCIe-transfer volume, the
   denominators of the data-centric views. *)
let m_host_allocs = Obs.Metrics.counter "host.mallocs"
let m_dev_allocs = Obs.Metrics.counter "host.cuda_mallocs"
let m_h2d_bytes = Obs.Metrics.counter "host.memcpy.h2d_bytes"
let m_d2h_bytes = Obs.Metrics.counter "host.memcpy.d2h_bytes"

let create ?profiler ?(bankmodel = false) ?block_x_override ~arch ~prog () =
  (match block_x_override with
  | Some bx when bx <= 0 -> invalid_arg "Host.create: block_x_override must be > 0"
  | _ -> ());
  {
    device = Gpusim.Gpu.create_device arch;
    prog;
    profiler;
    hostmem = Gpusim.Devmem.create ();
    shadow = [];
    launches = [];
    bankmodel;
    block_x_override;
  }

let host_mem t = t.hostmem
let dev_mem t = t.device.Gpusim.Gpu.devmem
let arch t = t.device.Gpusim.Gpu.arch

(* Current CPU call path, outermost frame first. *)
let call_path t = List.rev t.shadow

(* Mandatory instrumentation of CPU calls and returns: brackets the body
   with a shadow-stack push/pop. *)
let in_function t ~func ~file ~line body =
  let frame =
    { Profiler.Records.frame_func = func; frame_file = file; frame_line = line }
  in
  t.shadow <- frame :: t.shadow;
  Fun.protect ~finally:(fun () ->
      match t.shadow with
      | _ :: rest -> t.shadow <- rest
      | [] -> ())
    body

let record_alloc t ~side ~base ~size ~label =
  match t.profiler with
  | Some p ->
    ignore
      (Profiler.Profile.record_alloc p ~side ~base ~size ~label ~path:(call_path t))
  | None -> ()

(* malloc on the host. *)
let malloc t ~label bytes =
  Obs.Metrics.incr m_host_allocs;
  let base = Gpusim.Devmem.malloc t.hostmem bytes in
  record_alloc t ~side:Profiler.Records.Host_side ~base ~size:bytes ~label;
  base

(* cudaMalloc on the device. *)
let cuda_malloc t ~label bytes =
  Obs.Metrics.incr m_dev_allocs;
  let base = Gpusim.Devmem.malloc (dev_mem t) bytes in
  record_alloc t ~side:Profiler.Records.Device_side ~base ~size:bytes ~label;
  base

let record_transfer t ~direction ~src ~dst ~bytes =
  match t.profiler with
  | Some p ->
    Profiler.Profile.record_transfer p ~direction ~src ~dst ~bytes
      ~path:(call_path t)
  | None -> ()

let memcpy_h2d t ~dst ~src ~bytes =
  Obs.Metrics.add m_h2d_bytes bytes;
  Gpusim.Devmem.blit ~src:t.hostmem ~src_addr:src ~dst:(dev_mem t) ~dst_addr:dst ~bytes;
  record_transfer t ~direction:Profiler.Records.Host_to_device ~src ~dst ~bytes

let memcpy_d2h t ~dst ~src ~bytes =
  Obs.Metrics.add m_d2h_bytes bytes;
  Gpusim.Devmem.blit ~src:(dev_mem t) ~src_addr:src ~dst:t.hostmem ~dst_addr:dst ~bytes;
  record_transfer t ~direction:Profiler.Records.Device_to_host ~src ~dst ~bytes

(* Kernel launch: wires the profiler's event sink into the simulator and
   closes the instance at kernel exit (the data-marshaling point). *)
let launch_kernel ?prog t ~kernel ~grid ~block ~args =
  let prog = Option.value prog ~default:t.prog in
  (* The block-x tuning knob: keep the driver's total x-thread count by
     rescaling grid.x around the forced CTA width (rounding up, so
     bounds-checked kernels stay correct at any width). *)
  let grid, block =
    match t.block_x_override with
    | Some bx when bx <> fst block ->
      let gx, gy = grid and ox, oy = block in
      let total_x = gx * ox in
      (((total_x + bx - 1) / bx, gy), (bx, oy))
    | _ -> (grid, block)
  in
  let result =
    match t.profiler with
    | Some p ->
      let instance, sink =
        Profiler.Profile.begin_instance p ~kernel ~host_path:(call_path t)
      in
      let r =
        Gpusim.Gpu.launch ~sink ~bankmodel:t.bankmodel t.device ~prog ~kernel
          ~grid ~block ~args ()
      in
      Profiler.Profile.finish_instance instance r;
      r
    | None ->
      Gpusim.Gpu.launch ~bankmodel:t.bankmodel t.device ~prog ~kernel ~grid
        ~block ~args ()
  in
  t.launches <- (kernel, result) :: t.launches;
  result

let launches t = List.rev t.launches

let total_kernel_cycles t =
  List.fold_left (fun acc (_, r) -> acc + r.Gpusim.Gpu.cycles) 0 t.launches

(* Shorthands for kernel argument values. *)
let iarg i = Gpusim.Value.I i
let farg f = Gpusim.Value.F f
