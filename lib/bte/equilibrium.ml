(* Band-integrated equilibrium intensity I0_b(T) and its temperature
   derivative.

   The equilibrium phonon intensity per unit solid angle is

     I0_b(T) = (1/Omega) * deg_p * integral over the band of
                 hbar*omega * vg(omega) * D(omega) * f_BE(omega, T) domega

   with D the 3-D isotropic density of states and Omega the total angular
   measure of the discretization (2*pi in the 2-D setting).  Each band is
   integrated with a midpoint rule; values and derivatives are tabulated on
   a dense temperature grid for O(1) lookup in the per-cell Newton solve. *)

type t = {
  disp : Dispersion.t;
  omega_total : float;
  t_lo : float;
  t_hi : float;
  dt_grid : float;
  ntemps : int;
  (* i0.(b).(k): I0 of band b at grid temperature k *)
  i0 : float array array;
  di0 : float array array; (* dI0/dT on the same grid *)
}

(* Bose-Einstein occupation and its temperature derivative written in
   terms of x = hbar w / (kb T) and e = expm1 x, so the table builder can
   share one expm1 between the two *)
let f_of_e e = 1. /. e
let df_of_e x t e = x /. t *. (e +. 1.) /. (e *. e)

let f_bose w t =
  let x = Constants.hbar *. w /. (Constants.kb *. t) in
  (* guard very small x: expm1 keeps precision *)
  f_of_e (Float.expm1 x)

(* d f_BE / dT *)
let df_bose w t =
  let x = Constants.hbar *. w /. (Constants.kb *. t) in
  df_of_e x t (Float.expm1 x)

(* spectral integrand hbar w vg D(w) for one branch *)
let spectral branch w =
  Constants.hbar *. w *. Dispersion.vg_of_omega branch w *. Dispersion.dos branch w

let quad_points = 32

let quad_step (b : Dispersion.band) =
  (b.Dispersion.w_hi -. b.Dispersion.w_lo) /. float_of_int quad_points

(* midpoint of quadrature cell [i] *)
let quad_node (b : Dispersion.band) dw i =
  b.Dispersion.w_lo +. ((float_of_int i +. 0.5) *. dw)

(* integral over one band of spectral * f(w) *)
let band_integral (b : Dispersion.band) f =
  let deg = Dispersion.degeneracy b.Dispersion.branch in
  let dw = quad_step b in
  let acc = ref 0. in
  for i = 0 to quad_points - 1 do
    let w = quad_node b dw i in
    acc := !acc +. (spectral b.Dispersion.branch w *. f w)
  done;
  deg *. !acc *. dw

let i0_exact tbl b t =
  let band = tbl.disp.Dispersion.bands.(b) in
  band_integral band (fun w -> f_bose w t) /. tbl.omega_total

let di0_exact tbl b t =
  let band = tbl.disp.Dispersion.bands.(b) in
  band_integral band (fun w -> df_bose w t) /. tbl.omega_total

(* The table is [i0_exact]/[di0_exact] at every grid temperature, with the
   temperature-independent work hoisted: each band's quadrature nodes and
   spectral weights are computed once, and each (node, temperature) pair
   takes one expm1 for both sums.  Every floating-point operation happens
   in the same order as in the direct quadrature, so the entries are
   bit-identical to it. *)
let make ?(t_lo = 50.) ?(t_hi = 600.) ?(dt_grid = 0.5) ~omega_total disp =
  if t_hi <= t_lo || dt_grid <= 0. then invalid_arg "Equilibrium.make";
  let ntemps = int_of_float (ceil ((t_hi -. t_lo) /. dt_grid)) + 1 in
  let nb = Dispersion.nbands disp in
  let tbl =
    {
      disp;
      omega_total;
      t_lo;
      t_hi;
      dt_grid;
      ntemps;
      i0 = Array.make_matrix nb ntemps 0.;
      di0 = Array.make_matrix nb ntemps 0.;
    }
  in
  let hw = Array.make quad_points 0. and s = Array.make quad_points 0. in
  for b = 0 to nb - 1 do
    let band = disp.Dispersion.bands.(b) in
    let deg = Dispersion.degeneracy band.Dispersion.branch in
    let dw = quad_step band in
    for i = 0 to quad_points - 1 do
      let w = quad_node band dw i in
      hw.(i) <- Constants.hbar *. w;
      s.(i) <- spectral band.Dispersion.branch w
    done;
    let i0_row = tbl.i0.(b) and di0_row = tbl.di0.(b) in
    for k = 0 to ntemps - 1 do
      let t = t_lo +. (float_of_int k *. dt_grid) in
      let kt = Constants.kb *. t in
      let acc = ref 0. and dacc = ref 0. in
      for i = 0 to quad_points - 1 do
        let x = hw.(i) /. kt in
        let e = Float.expm1 x in
        acc := !acc +. (s.(i) *. f_of_e e);
        dacc := !dacc +. (s.(i) *. df_of_e x t e)
      done;
      i0_row.(k) <- deg *. !acc *. dw /. omega_total;
      di0_row.(k) <- deg *. !dacc *. dw /. omega_total
    done
  done;
  tbl

let clamp tbl t = Float.min tbl.t_hi (Float.max tbl.t_lo t)

(* linear interpolation on the grid *)
let interp table tbl b t =
  let t = clamp tbl t in
  let x = (t -. tbl.t_lo) /. tbl.dt_grid in
  let k = int_of_float x in
  let k = min k (tbl.ntemps - 2) in
  let frac = x -. float_of_int k in
  let row : float array = table.(b) in
  ((1. -. frac) *. row.(k)) +. (frac *. row.(k + 1))

let i0 tbl b t = interp tbl.i0 tbl b t
let di0 tbl b t = interp tbl.di0 tbl b t

(* total equilibrium energy density at T: sum over bands of Omega * I0 / vg *)
let energy_density tbl t =
  let acc = ref 0. in
  for b = 0 to Dispersion.nbands tbl.disp - 1 do
    let vg = (Dispersion.band tbl.disp b).Dispersion.vg in
    acc := !acc +. (tbl.omega_total *. i0 tbl b t /. vg)
  done;
  !acc
