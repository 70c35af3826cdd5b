(* The nonlinear temperature update — the paper's post-step user code.

   After each intensity step, the lattice temperature of every cell is
   recovered from the energy balance of the scattering operator:

     sum_b [ Omega * I0_b(T) - J_b ] * rate_b(T) = 0,
     J_b = sum_d w_d I_{d,b}            (angular integral of intensity)

   so that relaxation neither creates nor destroys energy during the next
   sweep.  The equation is scalar but nonlinear in T (Bose-Einstein
   statistics in I0_b, Holland rates in rate_b); it is solved per cell by a
   Newton iteration on the full Jacobian — the tabulated dI0/dT term plus
   the d rate/dT term from [Scattering.band_rate_dt] — so it converges
   quadratically (about 1.5 residual evaluations per update on the
   hotspot); the bisection fallback stays as a safety net.

   Cross-band coupling: in band-parallel runs every rank owns a band
   subset; the per-band terms are summed across ranks ("a reduction of
   intensity across bands"), after which each rank performs the
   (duplicated, cheap) Newton solve and refreshes I0 and beta = 1/tau for
   its own bands.  The reduction is exact: each rank fills a per-(cell,
   band) array only for the bands it owns, the allreduce adds exact
   zeros, and every rank (and the serial path) sums bands 0..nb-1 in
   order — so every plan solves bitwise the same scalar equation, and
   band-split runs equal serial bit for bit. *)

(* How the cross-band coupling is communicated in distributed runs:
   - [Scalar_energy] reduces the absorbed power with the current rates,
     G_c = sum_b (sum_d w_d I beta / vg), one partial per (cell, band) —
     the paper's "reduction of intensity across bands".  The paper
     reduces one number per cell; the per-band payload (ncells*nbands
     values, e.g. 17.2 KB per rank and step at 14x14 cells and 11
     resolved bands) buys the order-exact sum.  [Perfmodel] still
     prices the paper's scalar reduction;
   - [Per_band] reduces the per-band angular integrals J_b (ncells*nbands
     values) so the balance can be re-evaluated with rates at the updated
     temperature — exactly energy-conserving for the next sweep. *)
type reduction = Scalar_energy | Per_band

type model = {
  disp : Dispersion.t;
  eqtab : Equilibrium.t;
  angles : Angles.t;
  max_newton : int;
  tol : float; (* on |F| relative to the emission magnitude *)
  reduction : reduction;
}

let make ?(max_newton = 30) ?(tol = 1e-12) ?(reduction = Scalar_energy)
    ~disp ~eqtab ~angles () =
  { disp; eqtab; angles; max_newton; tol; reduction }

let nbands m = Dispersion.nbands m.disp

(* Residual F(T) and its exact derivative at T.  [jb] gives the per-band
   angular integral; [g] gives the pre-reduced absorbed power (scalar
   mode), in which case the J term is dropped from the emission sum.
   Energy density per (direction, band) is w * I / vg, so the scattering
   operator's energy balance carries a 1/vg weight per band:
     sum_b (rate_b(T) / vg_b) * (Omega I0_b(T) - J_b) = 0.
   The Jacobian has both the dI0/dT and the d rate/dT term, so Newton
   converges quadratically. *)
let residual_per_band m jb t =
  let omega = m.angles.Angles.total in
  let f = ref 0. and df = ref 0. in
  for b = 0 to nbands m - 1 do
    let band = Dispersion.band m.disp b in
    let r, dr = Scattering.band_rate_dt band t in
    let w = r /. band.Dispersion.vg and dw = dr /. band.Dispersion.vg in
    let e = (omega *. Equilibrium.i0 m.eqtab b t) -. jb b in
    f := !f +. (e *. w);
    df := !df +. (omega *. Equilibrium.di0 m.eqtab b t *. w) +. (e *. dw)
  done;
  !f, !df

let residual_scalar m g t =
  let omega = m.angles.Angles.total in
  let f = ref (-.g) and df = ref 0. in
  for b = 0 to nbands m - 1 do
    let band = Dispersion.band m.disp b in
    let r, dr = Scattering.band_rate_dt band t in
    let w = r /. band.Dispersion.vg and dw = dr /. band.Dispersion.vg in
    let e = omega *. Equilibrium.i0 m.eqtab b t in
    f := !f +. (e *. w);
    df := !df +. (omega *. Equilibrium.di0 m.eqtab b t *. w) +. (e *. dw)
  done;
  !f, !df

(* magnitude used for the relative convergence test *)
let emission_scale m t =
  let omega = m.angles.Angles.total in
  let acc = ref 0. in
  for b = 0 to nbands m - 1 do
    let band = Dispersion.band m.disp b in
    acc :=
      !acc
      +. (omega *. Equilibrium.i0 m.eqtab b t *. Scattering.band_rate band t
          /. band.Dispersion.vg)
  done;
  Float.max !acc 1e-300

exception No_convergence of float

(* Newton solves, bisection fallbacks and residual evaluations of the
   per-cell update; post_step tallies them locally and publishes once per
   call *)
let m_solves = Prt.Metrics.counter "bte.newton.solves"
let m_bisections = Prt.Metrics.counter "bte.newton.bisections"
let m_evals = Prt.Metrics.counter "bte.newton.evals"

type tally = { mutable bisections : int; mutable evals : int }

let new_tally () = { bisections = 0; evals = 0 }

(* [tally.bisections] counts the solves that gave up on Newton,
   [tally.evals] every residual evaluation *)
let newton_tally m residual ~guess tally =
  let t_lo = m.eqtab.Equilibrium.t_lo and t_hi = m.eqtab.Equilibrium.t_hi in
  let scale = emission_scale m (Float.max t_lo (Float.min t_hi guess)) in
  let residual t =
    tally.evals <- tally.evals + 1;
    residual t
  in
  let rec go t iter =
    if iter > m.max_newton then fallback ()
    else begin
      let f, df = residual t in
      if Float.abs f <= m.tol *. scale then t
      else if df <= 0. then fallback ()
      else begin
        let t' = t -. (f /. df) in
        let t' = Float.max t_lo (Float.min t_hi t') in
        if Float.abs (t' -. t) < 1e-13 *. t then t' else go t' (iter + 1)
      end
    end
  and fallback () =
    tally.bisections <- tally.bisections + 1;
    bisect t_lo t_hi 0
  and bisect lo hi iter =
    (* F is increasing in T (I0 and rates both increase), so bisection is
       safe whenever Newton stalls *)
    if iter > 200 then raise (No_convergence ((lo +. hi) /. 2.))
    else begin
      let mid = (lo +. hi) /. 2. in
      let f, _ = residual mid in
      if Float.abs f <= m.tol *. scale || hi -. lo < 1e-10 then mid
      else if f > 0. then bisect lo mid (iter + 1)
      else bisect mid hi (iter + 1)
    end
  in
  go (Float.max t_lo (Float.min t_hi guess)) 0

let newton_residual m residual ~guess =
  newton_tally m residual ~guess (new_tally ())

let newton m ~jb ~guess =
  newton_residual m (residual_per_band m jb) ~guess

let newton_scalar m ~g ~guess =
  newton_residual m (residual_scalar m g) ~guess

(* The post-step callback wired into the DSL problem.  Field names follow
   the BTE encoding: intensity "I" over [d; b], equilibrium "Io" over [b],
   rates "beta" over [b], temperature "T" (scalar). *)
let post_step m (ctx : Finch.Problem.step_ctx) =
  let mesh = ctx.Finch.Problem.st_mesh in
  let ncells = mesh.Fvm.Mesh.ncells in
  let nd = m.angles.Angles.ndirs in
  let nb = nbands m in
  let fi = ctx.Finch.Problem.st_field "I" in
  let fio = ctx.Finch.Problem.st_field "Io" in
  let fbeta = ctx.Finch.Problem.st_field "beta" in
  let ft = ctx.Finch.Problem.st_field "T" in
  let b_off, b_len = ctx.Finch.Problem.st_index_range "b" in
  let cells =
    match ctx.Finch.Problem.st_cells with
    | Some cs -> cs
    | None -> Array.init ncells (fun c -> c)
  in
  let weight = m.angles.Angles.weight in
  (* Per-(cell, band) partials, each written only by its band's owner.
     Band-split ranks hold zeros for the bands they do not own, so the
     cross-rank sum adds exact zeros and every plan sees the serial
     values. *)
  let per_band value =
    let a = Array.make (ncells * nb) 0. in
    Array.iter
      (fun cell ->
        for b = b_off to b_off + b_len - 1 do
          a.((cell * nb) + b) <- value cell b
        done)
      cells;
    if ctx.Finch.Problem.st_nranks > 1 && b_len < nb then
      ctx.Finch.Problem.st_allreduce a;
    a
  in
  (* the angular integral sum_d w_d I_(d,b) * scale *)
  let angular cell b scale =
    let acc = ref 0. in
    for d = 0 to nd - 1 do
      acc := !acc +. (weight.(d) *. Fvm.Field.get fi cell (d + (b * nd)) *. scale)
    done;
    !acc
  in
  let tally = new_tally () in
  let update residual_of =
    Array.iter
      (fun cell ->
        let guess = Fvm.Field.get ft cell 0 in
        let t = newton_tally m (residual_of cell) ~guess tally in
        Fvm.Field.set ft cell 0 t;
        for b = b_off to b_off + b_len - 1 do
          let band = Dispersion.band m.disp b in
          Fvm.Field.set fio cell b (Equilibrium.i0 m.eqtab b t);
          Fvm.Field.set fbeta cell b (Scattering.band_rate band t)
        done)
      cells;
    Prt.Metrics.add m_solves (Array.length cells);
    Prt.Metrics.add m_bisections tally.bisections;
    Prt.Metrics.add m_evals tally.evals
  in
  match m.reduction with
  | Scalar_energy ->
    (* absorbed power per (cell, band) with the current (pre-update)
       rates, summed over bands 0..nb-1 in order on every rank *)
    let g =
      per_band (fun cell b ->
          let vg = (Dispersion.band m.disp b).Dispersion.vg in
          angular cell b (Fvm.Field.get fbeta cell b /. vg))
    in
    update (fun cell ->
        let acc = ref 0. in
        for b = 0 to nb - 1 do
          acc := !acc +. g.((cell * nb) + b)
        done;
        residual_scalar m !acc)
  | Per_band ->
    (* per-band angular integrals J_b; the balance is evaluated with the
       rates at the updated temperature *)
    let j = per_band (fun cell b -> angular cell b 1.) in
    update (fun cell -> residual_per_band m (fun b -> j.((cell * nb) + b)))
