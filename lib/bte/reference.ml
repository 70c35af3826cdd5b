(* Hand-written reference BTE solver.

   Plays the role of the paper's previously-developed Fortran code: a
   direct, single-purpose implementation of exactly the same model
   (structured grid, first-order upwind, forward Euler, Holland scattering,
   per-cell Newton temperature update) against which the DSL-generated
   solver is verified ("our solutions matched theirs") and benchmarked
   (the Fortran code runs about twice as fast sequentially).

   Flat arrays, no DSL machinery, no callbacks — what a domain scientist
   would write by hand for this one problem. *)

type t = {
  sc : Setup.scenario;
  disp : Dispersion.t;
  angles : Angles.t;
  eqtab : Equilibrium.t;
  tmodel : Temperature.model;
  nx : int;
  ny : int;
  nd : int;
  nb : int;
  dx : float;
  dy : float;
  dt : float;
  (* per-(d,b) advection velocities *)
  vx : float array;
  vy : float array;
  refl_x : int array; (* direction reflected about a wall with x-normal *)
  refl_y : int array;
  (* state: i.(cell*ncomp + d + b*nd) *)
  mutable i : float array;
  mutable i_new : float array;
  io : float array;   (* ncells*nb *)
  beta : float array; (* ncells*nb *)
  temp : float array; (* ncells *)
  hot_wall : float -> float; (* top-wall temperature profile of x *)
  mutable time : float;
  mutable steps_done : int;
}

let ncells t = t.nx * t.ny
let ncomp t = t.nd * t.nb

let create (sc : Setup.scenario) =
  let disp = Dispersion.make ~n_la:sc.Setup.n_la_bands in
  let nb = Dispersion.nbands disp in
  let angles = Angles.make_2d ~ndirs:sc.Setup.ndirs in
  let eqtab =
    Equilibrium.make ~omega_total:angles.Angles.total
      ~t_lo:(Float.max 2. (Float.min sc.Setup.t_cold sc.Setup.t_hot /. 2.))
      ~t_hi:(2. *. Float.max sc.Setup.t_cold sc.Setup.t_hot)
      disp
  in
  let tmodel = Temperature.make ~disp ~eqtab ~angles () in
  let nd = sc.Setup.ndirs in
  let nx = sc.Setup.nx and ny = sc.Setup.ny in
  let n = nx * ny in
  let vx = Array.make (nd * nb) 0. and vy = Array.make (nd * nb) 0. in
  for b = 0 to nb - 1 do
    let vg = (Dispersion.band disp b).Dispersion.vg in
    for d = 0 to nd - 1 do
      vx.(d + (b * nd)) <- vg *. angles.Angles.sx.(d);
      vy.(d + (b * nd)) <- vg *. angles.Angles.sy.(d)
    done
  done;
  let refl_x = Array.init nd (fun d -> Angles.reflect angles d [| 1.; 0. |]) in
  let refl_y = Array.init nd (fun d -> Angles.reflect angles d [| 0.; 1. |]) in
  let i0_cold = Array.init nb (fun b -> Equilibrium.i0 eqtab b sc.Setup.t_cold) in
  let i = Array.make (n * nd * nb) 0. in
  for c = 0 to n - 1 do
    for b = 0 to nb - 1 do
      for d = 0 to nd - 1 do
        i.((c * nd * nb) + d + (b * nd)) <- i0_cold.(b)
      done
    done
  done;
  let io = Array.make (n * nb) 0. and beta = Array.make (n * nb) 0. in
  for c = 0 to n - 1 do
    for b = 0 to nb - 1 do
      io.((c * nb) + b) <- i0_cold.(b);
      beta.((c * nb) + b) <-
        Scattering.band_rate (Dispersion.band disp b) sc.Setup.t_cold
    done
  done;
  let hot_wall x =
    let xr = x -. sc.Setup.hot_center in
    sc.Setup.t_cold
    +. ((sc.Setup.t_hot -. sc.Setup.t_cold)
        *. exp (-2. *. xr *. xr /. (sc.Setup.hot_radius *. sc.Setup.hot_radius)))
  in
  let dt = Float.min sc.Setup.dt (Setup.cfl_dt sc disp) in
  {
    sc;
    disp;
    angles;
    eqtab;
    tmodel;
    nx;
    ny;
    nd;
    nb;
    dx = sc.Setup.lx /. float_of_int nx;
    dy = sc.Setup.ly /. float_of_int ny;
    dt;
    vx;
    vy;
    refl_x;
    refl_y;
    i;
    i_new = Array.make (n * nd * nb) 0.;
    io;
    beta;
    temp = Array.make n sc.Setup.t_cold;
    hot_wall;
    time = 0.;
    steps_done = 0;
  }

(* one forward-Euler intensity sweep *)
let sweep t =
  let nx = t.nx and ny = t.ny and nd = t.nd and nb = t.nb in
  let nc = nd * nb in
  let i = t.i and i_new = t.i_new in
  let inv_dx = 1. /. t.dx and inv_dy = 1. /. t.dy in
  for cy = 0 to ny - 1 do
    for cx = 0 to nx - 1 do
      let c = (cy * nx) + cx in
      let base = c * nc in
      let x_cell = (float_of_int cx +. 0.5) *. t.dx in
      let t_top = t.hot_wall x_cell in
      for b = 0 to nb - 1 do
        let io_b = t.io.((c * nb) + b) in
        let beta_b = t.beta.((c * nb) + b) in
        for d = 0 to nd - 1 do
          let k = d + (b * nd) in
          let u = i.(base + k) in
          let vx = t.vx.(k) and vy = t.vy.(k) in
          (* ghost/neighbour values *)
          let u_w =
            if cx > 0 then i.(base - nc + k)
            else i.(base + t.refl_x.(d) + (b * nd)) (* left symmetry *)
          in
          let u_e =
            if cx < nx - 1 then i.(base + nc + k)
            else i.(base + t.refl_x.(d) + (b * nd)) (* right symmetry *)
          in
          let u_s =
            if cy > 0 then i.(base - (nx * nc) + k)
            else Equilibrium.i0 t.eqtab b t.sc.Setup.t_cold (* cold wall *)
          in
          let u_n =
            if cy < ny - 1 then i.(base + (nx * nc) + k)
            else Equilibrium.i0 t.eqtab b t_top (* hot-spot wall *)
          in
          let f_e = if vx > 0. then vx *. u else vx *. u_e in
          let f_w = if vx > 0. then vx *. u_w else vx *. u in
          let f_n = if vy > 0. then vy *. u else vy *. u_n in
          let f_s = if vy > 0. then vy *. u_s else vy *. u in
          let adv = ((f_e -. f_w) *. inv_dx) +. ((f_n -. f_s) *. inv_dy) in
          i_new.(base + k) <- u +. (t.dt *. (((io_b -. u) *. beta_b) -. adv))
        done
      done
    done
  done

(* temperature update: per-cell Newton on the absorbed power with current
   rates (the same scalar-energy formulation as the DSL solver's default,
   summed the same way: one partial per band, then the bands in order),
   then refresh Io and beta *)
let temperature_update t =
  let n = ncells t in
  let nd = t.nd and nb = t.nb in
  let nc = nd * nb in
  for c = 0 to n - 1 do
    let base = c * nc in
    let g = ref 0. in
    for b = 0 to nb - 1 do
      let vg = (Dispersion.band t.disp b).Dispersion.vg in
      let w = t.beta.((c * nb) + b) /. vg in
      let gb = ref 0. in
      for d = 0 to nd - 1 do
        gb :=
          !gb
          +. (t.angles.Angles.weight.(d) *. t.i.(base + d + (b * nd)) *. w)
      done;
      g := !g +. !gb
    done;
    let tc = Temperature.newton_scalar t.tmodel ~g:!g ~guess:t.temp.(c) in
    t.temp.(c) <- tc;
    for b = 0 to nb - 1 do
      t.io.((c * nb) + b) <- Equilibrium.i0 t.eqtab b tc;
      t.beta.((c * nb) + b) <-
        Scattering.band_rate (Dispersion.band t.disp b) tc
    done
  done

let step t =
  sweep t;
  (* swap buffers *)
  let tmp = t.i in
  t.i <- t.i_new;
  t.i_new <- tmp;
  temperature_update t;
  t.time <- t.time +. t.dt;
  t.steps_done <- t.steps_done + 1

let run t ~nsteps =
  for _ = 1 to nsteps do
    step t
  done

(* intensity value accessor matching the DSL field layout (comp = d + b*nd) *)
let intensity t ~cell ~comp = t.i.((cell * ncomp t) + comp)
let temperature t ~cell = t.temp.(cell)

(* measured DOF-update throughput (DOF-updates per second) of the sweep,
   used to calibrate the performance model against this machine *)
let measure_sweep_rate t ~repeats =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to repeats do
    sweep t
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  float_of_int (repeats * ncells t * ncomp t) /. elapsed
