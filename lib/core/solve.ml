(* Top-level driver: dispatch a configured problem to its code-generation
   target and package the results, mirroring the paper's [solve(I)]. *)

type outcome = {
  u : Fvm.Field.t;                  (* gathered unknown after the run *)
  (* every variable as a serial run would hold it: band-indexed fields of
     band-split runs and cell fields of cell-parallel runs are gathered
     from their owning ranks *)
  fields : (string * Fvm.Field.t) list;
  breakdown : Prt.Breakdown.t;
  gpu : Target_gpu.result option;   (* present for GPU runs *)
  states : Lower.state array;
}

(* Which index is split by band-parallel runs.  Defaults to the last
   declared index (the paper's band index is declared after the direction
   index), overridable per call. *)
let default_band_index (p : Problem.t) =
  match List.rev p.Problem.indices with
  | i :: _ -> i.Entity.iname
  | [] -> raise (Problem.Problem_error "band-parallel run with no indices")

(* Post-solve metrics: steps taken (recorded once here rather than per
   step in the hot path). *)
let m_steps = Prt.Metrics.counter "solve.steps"

(* Package a CPU run, passing every field of rank 0 through [gather] so
   partitioned runs can reassemble what the ranks own. *)
let cpu_outcome ?(gather = fun _ f -> f) (r : Target_cpu.result) =
  let st = Target_cpu.primary r in
  let fields = List.map (fun (name, f) -> name, gather name f) st.Lower.fields in
  {
    u = List.assoc st.Lower.uvar.Entity.vname fields;
    fields;
    breakdown = r.Target_cpu.breakdown;
    gpu = None;
    states = r.Target_cpu.states;
  }

let solve_dispatch ?band_index ?post_io (p : Problem.t) =
  let band_split run =
    let index =
      match band_index with Some i -> i | None -> default_band_index p
    in
    let r = run ~index in
    cpu_outcome r ~gather:(fun name _ ->
        Target_cpu.gather_bands r.Target_cpu.states ~index name)
  in
  match p.Problem.target with
  | Config.Cpu Config.Serial -> cpu_outcome (Target_cpu.run_serial p)
  | Config.Cpu (Config.Band_parallel n) ->
    band_split (Target_cpu.run_band_parallel p ~nranks:n)
  | Config.Cpu (Config.Hybrid (nranks, ndomains)) ->
    band_split (Target_cpu.run_hybrid p ~nranks ~ndomains)
  | Config.Cpu (Config.Cell_parallel n) ->
    let r = Target_cpu.run_cell_parallel ~overlap:p.Problem.overlap p ~nranks:n in
    (* each rank updates only its owned cells, so every cell-located
       field is gathered from the owners *)
    let cell_located name =
      match Problem.find_variable p name with
      | Some v -> v.Entity.location = Entity.Cell
      | None -> false
    in
    cpu_outcome r ~gather:(fun name f ->
        if cell_located name then Target_cpu.gather_cells r name else f)
  | Config.Cpu (Config.Threaded n) ->
    (* workers share the base state's fields, so rank 0 already holds
       every field whole *)
    cpu_outcome (Target_cpu.run_threaded ?post_io p ~ndomains:n)
  | Config.Gpu _ ->
    let r = Target_gpu.run ?post_io p in
    let st = r.Target_gpu.state in
    {
      u = st.Lower.u;
      fields = st.Lower.fields;
      breakdown = r.Target_gpu.breakdown;
      gpu = Some r;
      states = [| st |];
    }
  | Config.Auto ->
    invalid_arg "Solve: unresolved auto target (run the tuner first)"

let solve ?band_index ?post_io (p : Problem.t) =
  let outcome =
    Prt.Trace.span ~cat:"solve" Prt.Trace.main "solve" (fun () ->
        solve_dispatch ?band_index ?post_io p)
  in
  Prt.Metrics.add m_steps p.Problem.nsteps;
  outcome

let field outcome name =
  match List.assoc_opt name outcome.fields with
  | Some f -> f
  | None -> raise (Problem.Problem_error ("solve outcome: no field " ^ name))
