(* Analytic performance model for the paper-scale experiments.

   The paper's evaluation platform (40-core Cascade Lake nodes, up to 320
   MPI ranks, eight A6000 GPUs per node) is not available, so the
   strong-scaling figures are regenerated from a calibrated model of the
   implemented algorithms:

   - per-rank compute is work-units x calibrated unit times (anchored to
     the paper's sequential measurements: about 2.4e3 s per 100 steps for
     the DSL-generated CPU code, half that for the hand-written Fortran);
   - communication uses the alpha-beta machinery of [Prt.Cluster]
     (allreduce of the per-cell absorbed power for band partitioning, halo
     exchange of interface-cell intensities for cell partitioning);
   - GPU kernel time comes from the roofline model of [Gpu_sim.Spec] with
     the same cost annotation the executable hybrid target uses, and PCIe
     transfers follow the data-movement plan (intensity both ways, Io/beta
     up, every step).

   Every constant lives in the [calib] record below, so the sensitivity of
   each figure to the calibration is inspectable (and exercised by the
   ablation benches). *)

type calib = {
  (* CPU work *)
  dsl_dof_time : float;       (* s per intensity DOF update, DSL CPU code *)
  fortran_dof_time : float;   (* same, hand-written Fortran *)
  reduce_dof_time : float;    (* s per DOF in the absorbed-power reduction *)
  newton_cell_time : float;   (* s per cell for the Newton solve *)
  refresh_band_time : float;  (* s per (cell, band) for the Io/beta refresh *)
  boundary_dof_time : float;  (* s per boundary-face DOF (CPU callbacks) *)
  (* the Fortran code's temperature update is not parallelized (the
     "slightly different parallelization of one part of the calculation") *)
  fortran_temp_parallel : bool;
  (* per-rank synchronization-wait/imbalance growth: each additional rank
     adds this fraction of the sweep time as waiting inside collectives *)
  sync_jitter : float;
  network : Prt.Cluster.network;
  nvlink : Prt.Cluster.network;
  gpu : Gpu_sim.Spec.t;
  (* per-thread kernel cost annotation (same shape as the hybrid target) *)
  kernel_flops_per_dof : float;
  kernel_bytes_per_dof : float;
}

let default = {
  dsl_dof_time = 1.45e-6;
  fortran_dof_time = 0.72e-6;
  reduce_dof_time = 55e-9;
  newton_cell_time = 2.0e-6;
  refresh_band_time = 0.1e-6;
  boundary_dof_time = 0.6e-6;
  fortran_temp_parallel = false;
  sync_jitter = 0.005;
  network = { Prt.Cluster.alpha = 2e-6; beta = 1. /. 0.5e9 };
  (* A6000 NVLink 3 bridge: 56.25 GB/s per direction, same 2 us launch
     latency the executable Topology model charges *)
  nvlink = { Prt.Cluster.alpha = 2e-6; beta = 1. /. 56.25e9 };
  gpu = Gpu_sim.Spec.a6000;
  kernel_flops_per_dof = 124.;
  kernel_bytes_per_dof = 18.;
}

(* problem shape *)
type shape = {
  ncells : int;
  ndirs : int;
  nbands : int;
  nsteps : int;
  boundary_faces : int;
}

let paper_shape =
  {
    ncells = 120 * 120;
    ndirs = 20;
    nbands = 55;
    nsteps = 100;
    boundary_faces = 4 * 120;
  }

let shape_of_scenario (sc : Setup.scenario) =
  let disp = Dispersion.make ~n_la:sc.Setup.n_la_bands in
  {
    ncells = sc.Setup.nx * sc.Setup.ny;
    ndirs = sc.Setup.ndirs;
    nbands = Dispersion.nbands disp;
    nsteps = sc.Setup.nsteps;
    boundary_faces = 2 * (sc.Setup.nx + sc.Setup.ny);
  }

let ndofs s = s.ncells * s.ndirs * s.nbands

(* bands owned by the busiest rank *)
let max_bands s p = (s.nbands + p - 1) / p
let max_cells s p = (s.ncells + p - 1) / p

(* ------------------------------------------------------------------ *)
(* Per-step times (seconds) by strategy.  Each returns a breakdown.     *)
(* ------------------------------------------------------------------ *)

(* temperature update of a band-partitioned rank: local reduction over its
   DOF slice, allreduce of the per-cell absorbed power, then the per-cell
   Newton solve running redundantly on every rank (each band-parallel rank
   owns every cell — exactly what the implemented executor does), and the
   Io/beta refresh for the owned bands over all cells.  The allreduce is
   priced at the paper's one value per cell; the in-process executor
   sends one per (cell, band) so its band sum is order-exact. *)
let temp_band c s ~p =
  let mb = max_bands s p in
  let reduce = float_of_int (s.ncells * s.ndirs * mb) *. c.reduce_dof_time in
  let newton = float_of_int s.ncells *. c.newton_cell_time in
  let refresh = float_of_int (s.ncells * mb) *. c.refresh_band_time in
  let comm =
    if p = 1 then 0.
    else Prt.Cluster.allreduce c.network ~p ~bytes:(8 * s.ncells)
  in
  (reduce +. newton +. refresh), comm

(* waiting time inside collectives from load imbalance and system noise,
   growing with the rank count; attributed to communication *)
let sync_wait c ~p ~compute =
  if p <= 1 then 0. else compute *. c.sync_jitter *. float_of_int p

let step_cpu_serial c s =
  let intensity = float_of_int (ndofs s) *. c.dsl_dof_time in
  let boundary =
    float_of_int (s.boundary_faces * s.ndirs * s.nbands) *. c.boundary_dof_time
  in
  let temp, _ = temp_band c s ~p:1 in
  Prt.Breakdown.make ~intensity:(intensity +. boundary) ~temperature:temp
    ~communication:0. ()

let step_cpu_bands c s ~p =
  if p > s.nbands then invalid_arg "Perfmodel: more ranks than bands";
  let mb = max_bands s p in
  let intensity = float_of_int (s.ncells * s.ndirs * mb) *. c.dsl_dof_time in
  let boundary =
    float_of_int (s.boundary_faces * s.ndirs * mb) *. c.boundary_dof_time
  in
  let temp, comm = temp_band c s ~p in
  let comm = comm +. sync_wait c ~p ~compute:intensity in
  Prt.Breakdown.make ~intensity:(intensity +. boundary) ~temperature:temp
    ~communication:comm ()

(* interface cells of a square-ish RCB part of an nx x ny grid *)
let interface_cells s ~p =
  if p = 1 then 0
  else begin
    let part_cells = float_of_int s.ncells /. float_of_int p in
    let side = sqrt part_cells in
    int_of_float (ceil (4. *. side))
  end

let step_cpu_cells c s ~p =
  if p > s.ncells then invalid_arg "Perfmodel: more ranks than cells";
  let mc = max_cells s p in
  let comp = s.ndirs * s.nbands in
  let intensity = float_of_int (mc * comp) *. c.dsl_dof_time in
  let boundary =
    (* boundary faces shared among the ranks that own them *)
    float_of_int (s.boundary_faces * comp) /. float_of_int p *. c.boundary_dof_time
  in
  (* mesh-partitioned ranks solve the Newton update only for their own
     cells, so the whole temperature update scales *)
  let temp =
    (float_of_int (mc * comp) *. c.reduce_dof_time)
    +. (float_of_int mc *. c.newton_cell_time)
    +. (float_of_int (mc * s.nbands) *. c.refresh_band_time)
  in
  let comm =
    if p = 1 then 0.
    else begin
      let ifc = interface_cells s ~p in
      let bytes = ifc * comp * 8 in
      (* roughly four neighbours exchanging a quarter of the interface each,
         send and receive *)
      Prt.Cluster.halo_exchange c.network
        ~neighbour_bytes:[ bytes / 2; bytes / 2; bytes / 2; bytes / 2 ]
    end
  in
  let comm = comm +. sync_wait c ~p ~compute:intensity in
  Prt.Breakdown.make ~intensity:(intensity +. boundary) ~temperature:temp
    ~communication:comm ()

(* shared-memory pool over cell ranges (one process): the intensity sweep
   and its boundary part scale with the thread count, the temperature
   update stays serial on the base thread, and there is no network —
   the only overhead is barrier wait from load imbalance, modelled with
   the same jitter term as the collectives *)
let step_cpu_threads c s ~p =
  if p > s.ncells then invalid_arg "Perfmodel: more threads than cells";
  let mc = max_cells s p in
  let comp = s.ndirs * s.nbands in
  let intensity = float_of_int (mc * comp) *. c.dsl_dof_time in
  let boundary =
    float_of_int (s.boundary_faces * comp) /. float_of_int p *. c.boundary_dof_time
  in
  let temp, _ = temp_band c s ~p:1 in
  let barrier = sync_wait c ~p ~compute:intensity in
  Prt.Breakdown.make ~intensity:(intensity +. boundary) ~temperature:temp
    ~communication:barrier ()

(* MPI+threads hybrid: band-parallel ranks whose sweeps run on a t-thread
   pool — per-rank intensity shrinks by the thread count on top of the
   band slice, the allreduce still crosses ranks *)
let step_cpu_hybrid c s ~p ~t =
  if p > s.nbands then invalid_arg "Perfmodel: more ranks than bands";
  if t > s.ncells then invalid_arg "Perfmodel: more threads than cells";
  let mb = max_bands s p in
  let mc = max_cells s t in
  let intensity = float_of_int (mc * s.ndirs * mb) *. c.dsl_dof_time in
  let boundary =
    float_of_int (s.boundary_faces * s.ndirs * mb)
    /. float_of_int t *. c.boundary_dof_time
  in
  let temp, comm = temp_band c s ~p in
  let comm =
    comm
    +. sync_wait c ~p ~compute:intensity
    +. sync_wait c ~p:t ~compute:intensity
  in
  Prt.Breakdown.make ~intensity:(intensity +. boundary) ~temperature:temp
    ~communication:comm ()

let step_fortran c s ~p =
  if p > s.nbands then invalid_arg "Perfmodel: more ranks than bands";
  let mb = max_bands s p in
  let intensity =
    float_of_int (s.ncells * s.ndirs * mb) *. c.fortran_dof_time
  in
  let boundary =
    float_of_int (s.boundary_faces * s.ndirs * mb) *. c.fortran_dof_time
  in
  let temp, comm =
    if c.fortran_temp_parallel then
      let t, cm = temp_band c s ~p in
      (* Fortran's unit costs are about half the DSL's *)
      t /. 2., cm
    else begin
      (* the whole temperature update runs redundantly on every rank —
         the paper's "slightly different parallelization of one part" *)
      let t, _ = temp_band c s ~p:1 in
      t /. 2., if p = 1 then 0. else Prt.Cluster.allreduce c.network ~p ~bytes:(8 * s.ncells)
    end
  in
  let comm = comm +. sync_wait c ~p ~compute:intensity in
  Prt.Breakdown.make ~intensity:(intensity +. boundary) ~temperature:temp
    ~communication:comm ()

(* hybrid CPU/GPU, band partitioning across [p] (device, rank) pairs *)
let step_gpu c s ~p =
  if p > s.nbands then invalid_arg "Perfmodel: more ranks than bands";
  let mb = max_bands s p in
  let slice_dofs = s.ncells * s.ndirs * mb in
  let kernel =
    Gpu_sim.Spec.kernel_time c.gpu ~threads:slice_dofs
      ~flops:(c.kernel_flops_per_dof *. float_of_int slice_dofs)
      ~dram_bytes:(c.kernel_bytes_per_dof *. float_of_int slice_dofs)
  in
  let boundary =
    float_of_int (s.boundary_faces * s.ndirs * mb) *. c.boundary_dof_time
  in
  (* the boundary callback overlaps the kernel (Fig. 6) *)
  let intensity = Float.max kernel boundary in
  let temp, net_comm = temp_band c s ~p in
  let slice_bytes = 8 * slice_dofs in
  let io_bytes = 2 * 8 * s.ncells * mb in
  let pcie =
    Gpu_sim.Spec.transfer_time c.gpu ~bytes:slice_bytes (* D2H of I *)
    +. Gpu_sim.Spec.transfer_time c.gpu ~bytes:slice_bytes (* H2D of I *)
    +. Gpu_sim.Spec.transfer_time c.gpu ~bytes:io_bytes    (* H2D Io, beta *)
  in
  Prt.Breakdown.make ~intensity ~temperature:temp
    ~communication:(net_comm +. pcie) ()

(* 2-D band x cell decomposition: [p] SPMD ranks split the bands (as in
   [step_gpu]) and each rank drives [g] devices that tile the cells.
   Per-device kernel and PCIe work shrink by the device count; the tile
   frontier is refreshed every step by device-to-device peer copies —
   NVLink inside a node, staged through host PCIe (both directions) when
   the grid spills across [Gpu_sim.Topology.devices_per_node]. *)
let step_gpu_grid c s ~g ~p =
  if p > s.nbands then invalid_arg "Perfmodel: more ranks than bands";
  if g > s.ncells then invalid_arg "Perfmodel: more devices than cells";
  let mb = max_bands s p in
  let mc = max_cells s g in
  let comp = s.ndirs * mb in
  let dev_dofs = mc * comp in
  let kernel =
    Gpu_sim.Spec.kernel_time c.gpu ~threads:dev_dofs
      ~flops:(c.kernel_flops_per_dof *. float_of_int dev_dofs)
      ~dram_bytes:(c.kernel_bytes_per_dof *. float_of_int dev_dofs)
  in
  let boundary =
    float_of_int (s.boundary_faces * s.ndirs * mb) *. c.boundary_dof_time
  in
  (* the boundary callback overlaps the kernels, which run concurrently
     across devices: the step's intensity cost is the busiest device *)
  let intensity = Float.max kernel boundary in
  let temp, net_comm = temp_band c s ~p in
  (* per-device PCIe traffic: the owned slice both ways plus the Io/beta
     refresh, all concurrent across devices (critical path = busiest) *)
  let slice_bytes = 8 * dev_dofs in
  let io_bytes = 2 * 8 * mc * mb in
  let pcie =
    Gpu_sim.Spec.transfer_time c.gpu ~bytes:slice_bytes (* D2H of I *)
    +. Gpu_sim.Spec.transfer_time c.gpu ~bytes:slice_bytes (* H2D of I *)
    +. Gpu_sim.Spec.transfer_time c.gpu ~bytes:io_bytes    (* H2D Io, beta *)
  in
  let d2d =
    if g = 1 then 0.
    else begin
      let ifc = interface_cells s ~p:g in
      let bytes = ifc * comp * 8 in
      (* four frontier neighbours, a quarter of the interface each; the
         fraction of tile boundaries that are also node boundaries goes
         through host staging at twice the PCIe cost *)
      let dpn = Gpu_sim.Topology.devices_per_node in
      let nnodes = (g + dpn - 1) / dpn in
      let cross =
        if nnodes <= 1 then 0.
        else float_of_int (nnodes - 1) /. float_of_int (g - 1)
      in
      let msg = bytes / 4 in
      let nv = Prt.Cluster.p2p c.nvlink ~bytes:msg in
      let staged = 2. *. Gpu_sim.Spec.transfer_time c.gpu ~bytes:msg in
      4. *. (((1. -. cross) *. nv) +. (cross *. staged))
    end
  in
  let comm = net_comm +. pcie +. d2d +. sync_wait c ~p ~compute:intensity in
  Prt.Breakdown.make ~intensity ~temperature:temp ~communication:comm ()

(* modelled communication/computation overlap for the cell-parallel
   strategy: the halo messages are posted nonblocking before the interior
   sweep (the owned cells no neighbour needs), so up to
   min(interior sweep, exchange) seconds of the exchange leave the
   per-step critical path.  The jitter term stays: imbalance waiting is
   not hideable by reordering. *)
type overlap_model = {
  sync_step : float;     (* per-step seconds with a blocking exchange *)
  overlap_step : float;  (* same step with the exchange behind the sweep *)
  hidden : float;        (* exchange seconds off the critical path *)
}

let cells_overlap ?(calib = default) ?(shape = paper_shape) ~p () =
  let b =
    if p = 1 then step_cpu_serial calib shape else step_cpu_cells calib shape ~p
  in
  let sync_step = Prt.Breakdown.total b in
  let hidden =
    if p = 1 then 0.
    else begin
      let comp = shape.ndirs * shape.nbands in
      let ifc = interface_cells shape ~p in
      let interior = max 0 (max_cells shape p - ifc) in
      let interior_sweep =
        float_of_int (interior * comp) *. calib.dsl_dof_time
      in
      let bytes = ifc * comp * 8 in
      let exchange =
        Prt.Cluster.halo_exchange calib.network
          ~neighbour_bytes:[ bytes / 2; bytes / 2; bytes / 2; bytes / 2 ]
      in
      Float.min interior_sweep exchange
    end
  in
  { sync_step; overlap_step = sync_step -. hidden; hidden }

(* ------------------------------------------------------------------ *)
(* Whole-run times                                                      *)
(* ------------------------------------------------------------------ *)

type strategy =
  | Serial
  | Bands of int
  | Cells of int
  | Threads of int        (* shared-memory domain pool, one process *)
  | Hybrid of int * int   (* band-parallel ranks x pool threads *)
  | Gpu of int
  | Gpu_grid of int * int (* devices per rank x band-parallel ranks *)
  | Fortran of int

let step_breakdown ?(calib = default) ?(shape = paper_shape) strategy =
  match strategy with
  | Serial -> step_cpu_serial calib shape
  | Bands p -> if p = 1 then step_cpu_serial calib shape else step_cpu_bands calib shape ~p
  | Cells p -> if p = 1 then step_cpu_serial calib shape else step_cpu_cells calib shape ~p
  | Threads p ->
    if p = 1 then step_cpu_serial calib shape else step_cpu_threads calib shape ~p
  | Hybrid (p, t) ->
    if p = 1 then step_cpu_threads calib shape ~p:t
    else step_cpu_hybrid calib shape ~p ~t
  | Gpu p -> step_gpu calib shape ~p
  | Gpu_grid (g, p) ->
    if g = 1 then step_gpu calib shape ~p
    else step_gpu_grid calib shape ~g ~p
  | Fortran p -> step_fortran calib shape ~p

let run_breakdown ?calib ?(shape = paper_shape) strategy =
  Prt.Breakdown.scale (float_of_int shape.nsteps)
    (step_breakdown ?calib ~shape strategy)

let run_time ?calib ?shape strategy =
  Prt.Breakdown.total (run_breakdown ?calib ?shape strategy)

(* the paper's headline: GPU vs CPU at equal rank counts *)
let gpu_speedup ?calib ?shape ~p () =
  run_time ?calib ?shape (Bands p) /. run_time ?calib ?shape (Gpu p)

(* profiling-table metrics for the 1-GPU kernel (paper Section III-D) *)
let gpu_profile ?(calib = default) ?(shape = paper_shape) () =
  let n = ndofs shape in
  let flops = calib.kernel_flops_per_dof *. float_of_int n in
  let bytes = calib.kernel_bytes_per_dof *. float_of_int n in
  let kt =
    Gpu_sim.Spec.kernel_time calib.gpu ~threads:n ~flops ~dram_bytes:bytes
  in
  let spec = calib.gpu in
  let capacity =
    float_of_int (spec.Gpu_sim.Spec.sm_count * spec.Gpu_sim.Spec.max_threads_per_sm)
  in
  let occupancy = Float.min 1. (float_of_int n /. capacity) in
  ( occupancy *. 0.86,                                    (* SM utilization *)
    bytes /. kt /. spec.Gpu_sim.Spec.mem_bandwidth,       (* memory throughput *)
    flops /. kt /. spec.Gpu_sim.Spec.fp64_peak_flops )    (* FLOP fraction *)
