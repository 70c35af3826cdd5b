(* Batched multi-request GPU execution: Target_gpu.run_single's
   synchronous schedule generalized with a request axis.  N compatible
   problems share one simulated device and one stream; every kernel
   launch covers requests x cells x chunk threads, where the chunk is
   the component slice the solo executor would launch (the whole
   component range in one batched launch at O1/O2 — the
   Opt.batch_band_kernels shape — or one per-band slice at O0).

   Bit-identity with solo execution holds by construction: each thread
   runs the exact per-DOF update of the solo kernel against its own
   request's device buffers, requests touch disjoint memory, and all
   host phases (boundary, combine, post-step) run per request on that
   request's own state in submission order. *)

let m_batched_launches = Prt.Metrics.counter "serve.batched_launches"
let m_steps = Prt.Metrics.counter "solve.steps"

let compatible (ps : Finch.Problem.t array) =
  let open Finch in
  if Array.length ps = 0 then Error "empty batch"
  else begin
    let p0 = ps.(0) in
    let describe (p : Problem.t) =
      match p.Problem.target with
      | Config.Gpu { spec; devices = 1; ranks = 1 } ->
        Ok spec.Gpu_sim.Spec.name
      | Config.Gpu _ -> Error "multi-device GPU targets cannot be batched"
      | Config.Cpu _ -> Error "CPU targets cannot share batched launches"
      | Config.Auto -> Error "unresolved auto target cannot be batched"
    in
    let rec go i =
      if i >= Array.length ps then Ok ()
      else
        let p = ps.(i) in
        match describe p0, describe p with
        | Error e, _ | _, Error e -> Error e
        | Ok n0, Ok n when n0 <> n ->
          Error (Printf.sprintf "device specs differ (%s vs %s)" n0 n)
        | Ok _, Ok _ ->
          if p.Problem.overlap || p0.Problem.overlap then
            Error "overlapped transfers cannot be batched"
          else if p.Problem.nsteps <> p0.Problem.nsteps then
            Error "step counts differ"
          else if p.Problem.opt_level <> p0.Problem.opt_level then
            Error "optimizer levels differ"
          else if p.Problem.eval_mode <> p0.Problem.eval_mode then
            Error "evaluator modes differ"
          else go (i + 1)
    in
    go 1
  end

(* The IR image of the batched schedule [run] executes, derived from the
   shared solo program by the same transformation the executor applies:
   kernels keep one (request-major) batched launch, while every host
   phase and transfer — boundary, combine, callback, uploads, downloads
   — runs once per request inside an [Index "request"] loop.  Linting
   this tree (instead of only the per-request program) is what lets the
   analysis gate vet the batching rewrite itself. *)
let batched_ir ?post_io (ps : Finch.Problem.t array) =
  let open Finch in
  (match compatible ps with
   | Ok () -> ()
   | Error e -> invalid_arg ("Batch.batched_ir: " ^ e));
  let p0 = ps.(0) in
  let plan = Dataflow.plan_for_problem ?post_io p0 in
  let solo = Ir.build_gpu p0 ~transfers:(Dataflow.ir_transfers plan) in
  let per_request n =
    Ir.Loop { range = Ir.Index "request"; body = [ n ]; parallel = false }
  in
  let rec batchify (n : Ir.node) =
    match n with
    | Ir.Seq ns -> Ir.Seq (List.map batchify ns)
    | Ir.Loop l -> Ir.Loop { l with body = List.map batchify l.body }
    | Ir.Kernel k -> Ir.Kernel { k with kname = k.kname ^ "_batch" }
    | (Ir.Boundary_cpu _ | Ir.Callback _ | Ir.Swap_buffers _ | Ir.H2d _
      | Ir.D2h _) as n -> per_request n
    | n -> n
  in
  batchify solo

let check ?post_io (ps : Finch.Problem.t array) =
  let open Finch in
  let p0 = ps.(0) in
  let ctx = Finch_analysis.Ctx.of_problem ?post_io p0 in
  let plan = Dataflow.plan_for_problem ?post_io p0 in
  let comm =
    Option.map
      (fun pl -> Finch_analysis.Comm.Elaborate pl)
      (Finch_analysis.Comm.plan_of_problem p0)
  in
  Finch_analysis.Driver.check_ir ~plan ?comm ctx (batched_ir ?post_io ps)

let run ?post_io (ps : Finch.Problem.t array) =
  let open Finch in
  (match compatible ps with
   | Ok () -> ()
   | Error e -> invalid_arg ("Batch.run: " ^ e));
  let n = Array.length ps in
  let p0 = ps.(0) in
  let spec =
    match p0.Problem.target with
    | Config.Gpu { spec; _ } -> spec
    | Config.Cpu _ | Config.Auto -> assert false
  in
  let allreduce = Target_cpu.noop_allreduce in
  let hosts = Array.map (fun p -> Lower.build p) ps in
  let host0 = hosts.(0) in
  let ncells = host0.Lower.mesh.Fvm.Mesh.ncells in
  let ncomp = Fvm.Field.ncomp host0.Lower.u in
  Array.iter
    (fun (h : Lower.state) ->
      if
        h.Lower.mesh.Fvm.Mesh.ncells <> ncells
        || Fvm.Field.ncomp h.Lower.u <> ncomp
      then invalid_arg "Batch.run: unknown shapes differ")
    hosts;
  let plan = Dataflow.plan_for_problem ?post_io p0 in
  let dev = Gpu_sim.Memory.create_device spec in
  let clock = Gpu_sim.Stream.create_clock () in
  let stream = Gpu_sim.Stream.create dev in
  (* per-request device mirrors + device-bound state, as in the solo
     executor, all resident on the one shared device *)
  let tag r name = Printf.sprintf "r%d.%s" r name in
  let dev_fields =
    Array.mapi
      (fun r (host : Lower.state) ->
        List.map
          (fun (name, f) ->
            let buf =
              Gpu_sim.Memory.alloc dev ~label:(tag r name)
                ~size:(Fvm.Field.size f)
            in
            let view =
              Fvm.Field.of_bigarray ~name ~ncells:(Fvm.Field.ncells f)
                ~ncomp:(Fvm.Field.ncomp f) buf.Gpu_sim.Memory.device_data
            in
            name, (buf, view))
          host.Lower.fields)
      hosts
  in
  let u_new_bufs =
    Array.mapi
      (fun r (host : Lower.state) ->
        Gpu_sim.Memory.alloc dev ~label:(tag r "u_new")
          ~size:(Fvm.Field.size host.Lower.u_new))
      hosts
  in
  let dstates =
    Array.mapi
      (fun r (host : Lower.state) ->
        let dev_only = List.map (fun (nm, (_, v)) -> nm, v) dev_fields.(r) in
        let view =
          Fvm.Field.of_bigarray ~name:"u_new" ~ncells ~ncomp
            u_new_bufs.(r).Gpu_sim.Memory.device_data
        in
        Lower.rebind host ~fields:dev_only ~u_new:view)
      hosts
  in
  let interior_cost =
    let open Eval in
    let cv = cost host0.Lower.eq.Transform.rvol
    and cs = cost host0.Lower.eq.Transform.rsurf in
    let nfaces_per_cell =
      float_of_int (Array.length host0.Lower.mesh.Fvm.Mesh.cell_faces.(0))
    in
    let flops = (cv.flops +. (nfaces_per_cell *. cs.flops)) *. 4.0 in
    let dram = 8. *. (2. +. (0.25 *. float_of_int (cv.loads + cs.loads))) in
    { Gpu_sim.Kernel.flops_per_thread = flops; dram_bytes_per_thread = dram }
  in
  let nd =
    match host0.Lower.uvar.Entity.vindices with
    | first :: _ -> Entity.index_extent first
    | [] -> 1
  in
  let owned_comps = Array.init ncomp (fun c -> c) in
  (* launch shape: O0 keeps the solo executor's per-band chunks (the
     request axis still folds into each launch); O1/O2 take the batched
     cells x dirs x bands x requests shape *)
  let comp_chunks =
    match p0.Problem.opt_level with
    | Config.O0 when ncomp > nd && ncomp mod nd = 0 ->
      Array.init (ncomp / nd) (fun k -> Array.sub owned_comps (k * nd) nd)
    | _ -> [| owned_comps |]
  in
  (* one kernel per chunk, its thread space request-major: threads
     [r * ncells * n_chunk ..] update request r, exactly as the solo
     kernel's thread [cell * n_chunk + slot] does *)
  let make_kernel (chunk : int array) =
    let n_chunk = Array.length chunk in
    let per_req = ncells * n_chunk in
    Gpu_sim.Kernel.make ~name:"interior_update_batch" ~cost:interior_cost
      (fun tid ->
        let r = tid / per_req in
        let rest = tid mod per_req in
        let cell = rest / n_chunk and slot = rest mod n_chunk in
        let comp = chunk.(slot) in
        let dstate = dstates.(r) in
        let env = dstate.Lower.env in
        env.Eval.cell <- cell;
        Lower.set_ivals_of_comp dstate comp;
        let v =
          Fvm.Field.get dstate.Lower.u cell comp
          +. (!(dstate.Lower.dt) *. Lower.dof_rhs_interior dstate)
        in
        Fvm.Field.set dstate.Lower.u_new cell comp v)
  in
  let kernels = Array.map make_kernel comp_chunks in
  let launch_step () =
    Array.iteri
      (fun i k ->
        Prt.Metrics.incr m_batched_launches;
        Gpu_sim.Stream.kernel stream clock k
          ~nthreads:(n * ncells * Array.length comp_chunks.(i))
          ())
      kernels
  in
  let u_bdrys =
    Array.init n (fun r ->
        ignore r;
        Fvm.Field.create ~name:"u_bdry" ~ncells ~ncomp ())
  in
  let track = Prt.Trace.main in
  (* one-time uploads per request *)
  Array.iteri
    (fun r (host : Lower.state) ->
      List.iter
        (fun (name, (buf, _)) ->
          let hf = List.assoc name host.Lower.fields in
          Prt.Breakdown.record host.Lower.breakdown Prt.Breakdown.Communication
            (Gpu_sim.Memory.h2d dev buf (Fvm.Field.raw hf)))
        dev_fields.(r))
    hosts;
  let kernel_time_seen = ref 0. in
  let every_step_h2d =
    List.filter_map
      (fun tr ->
        if tr.Dataflow.tr_h2d_every_step then Some tr.Dataflow.tr_var
        else None)
      plan.Dataflow.transfers
  in
  let combine_boundary r =
    let host = hosts.(r) in
    for cell = 0 to ncells - 1 do
      Array.iter
        (fun comp ->
          let v =
            Fvm.Field.get host.Lower.u_new cell comp
            +. Fvm.Field.get u_bdrys.(r) cell comp
          in
          Fvm.Field.set host.Lower.u cell comp v)
        owned_comps
    done
  in
  let sanitize_scan r =
    if Fvm.Field.sanitize_enabled () then begin
      let host = hosts.(r) in
      let cnt = ref 0 in
      for cell = 0 to ncells - 1 do
        Array.iter
          (fun comp ->
            if Fvm.Field.is_poison (Fvm.Field.get host.Lower.u cell comp)
            then incr cnt)
          owned_comps
      done;
      Fvm.Field.record_poison !cnt
    end
  in
  for _ = 1 to p0.Problem.nsteps do
    Array.iter (fun host -> Lower.run_pre_step host ~allreduce) hosts;
    (* 1. one async batched launch per chunk, covering every request *)
    launch_step ();
    (* 2. boundary contributions on the CPU per request, overlapping
       the shared kernel *)
    Array.iteri
      (fun r (host : Lower.state) ->
        Prt.Breakdown.timed ~track host.Lower.breakdown Prt.Breakdown.Boundary
          (fun () ->
            Fvm.Field.fill u_bdrys.(r) 0.;
            Lower.boundary_contributions host ~into:u_bdrys.(r)))
      hosts;
    (* 3. synchronize once; the modelled kernel time is shared, charged
       in equal shares *)
    Gpu_sim.Stream.synchronize stream clock;
    let kdelta = dev.Gpu_sim.Memory.kernel_time -. !kernel_time_seen in
    kernel_time_seen := dev.Gpu_sim.Memory.kernel_time;
    Array.iter
      (fun (host : Lower.state) ->
        Prt.Breakdown.record host.Lower.breakdown Prt.Breakdown.Intensity
          (kdelta /. float_of_int n))
      hosts;
    (* 4. download / combine / post-step / re-upload, per request *)
    Array.iteri
      (fun r (host : Lower.state) ->
        let b = host.Lower.breakdown in
        Prt.Breakdown.record b Prt.Breakdown.Communication
          (Gpu_sim.Memory.d2h dev u_new_bufs.(r) (Fvm.Field.raw host.Lower.u_new));
        Prt.Breakdown.timed ~track b Prt.Breakdown.Intensity (fun () ->
            combine_boundary r);
        sanitize_scan r;
        Prt.Breakdown.timed ~track b Prt.Breakdown.Temperature (fun () ->
            Lower.run_post_step host ~allreduce);
        List.iter
          (fun name ->
            match List.assoc_opt name dev_fields.(r) with
            | Some (buf, _) ->
              let hf = List.assoc name host.Lower.fields in
              Prt.Breakdown.record b Prt.Breakdown.Communication
                (Gpu_sim.Memory.h2d dev buf (Fvm.Field.raw hf))
            | None -> ())
          every_step_h2d;
        host.Lower.time := !(host.Lower.time) +. !(host.Lower.dt);
        incr host.Lower.step)
      hosts
  done;
  if Prt.Metrics.enabled () then
    Array.iter (fun (p : Problem.t) -> Prt.Metrics.add m_steps p.Problem.nsteps) ps;
  Array.mapi
    (fun r (host : Lower.state) ->
      let gpu =
        { Target_gpu.state = host;
          device = dev;
          breakdown = host.Lower.breakdown;
          plan;
          profile_threads = n * ncells * ncomp }
      in
      ignore r;
      { Solve.u = host.Lower.u;
        fields = host.Lower.fields;
        breakdown = host.Lower.breakdown;
        gpu = Some gpu;
        states = [| host |] })
    hosts
