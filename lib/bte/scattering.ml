(* Holland-model relaxation times, combined by Matthiessen's rule.

   Rates depend on frequency, branch and local temperature; the solver
   refreshes per-cell 1/tau values in the temperature-update step because
   of this T dependence. *)

let rate_impurity w = Constants.a_impurity *. (w ** 4.)

let rate_la w t = Constants.b_l *. w *. w *. (t ** 3.)

let rate_ta w t =
  if w < Constants.omega_half_ta then Constants.b_tn *. w *. (t ** 4.)
  else begin
    let x = Constants.hbar *. w /. (Constants.kb *. t) in
    Constants.b_tu *. w *. w /. sinh x
  end

(* combined scattering rate 1/tau for a branch at (omega, T) *)
let rate branch w t =
  let r =
    rate_impurity w
    +.
    match branch with
    | Dispersion.LA -> rate_la w t
    | Dispersion.TA -> rate_ta w t
  in
  (* guard against pathological tiny rates at omega -> 0: they would make
     the explicit scheme's relaxation term stiff-free but the intensity
     unbounded in time; floor at a conservative value *)
  Float.max r 1e4

let tau branch w t = 1. /. rate branch w t

(* per-band rate at the band centre *)
let band_rate (b : Dispersion.band) t = rate b.Dispersion.branch b.Dispersion.w_center t

(* [band_rate] and its temperature derivative from one evaluation of the
   branch term: d/dT of w^2 T^3 is 3 r/T, of w T^4 is 4 r/T, and of
   w^2 / sinh x with x = hbar w / (kb T) is r x coth(x) / T (cosh taken as
   sqrt (1 + sinh^2), so the umklapp case costs one sinh).  Impurity
   scattering and the floor do not depend on T.  The rate is bitwise
   [band_rate]'s. *)
let band_rate_dt (b : Dispersion.band) t =
  let w = b.Dispersion.w_center in
  let r, dr =
    match b.Dispersion.branch with
    | Dispersion.LA ->
      let r = rate_la w t in
      r, 3. *. r /. t
    | Dispersion.TA when w < Constants.omega_half_ta ->
      let r = Constants.b_tn *. w *. (t ** 4.) in
      r, 4. *. r /. t
    | Dispersion.TA ->
      let x = Constants.hbar *. w /. (Constants.kb *. t) in
      let s = sinh x in
      let r = Constants.b_tu *. w *. w /. s in
      r, r *. x *. Float.sqrt (1. +. (s *. s)) /. s /. t
  in
  let r = rate_impurity w +. r in
  if r < 1e4 then 1e4, 0. else r, dr
let band_tau b t = 1. /. band_rate b t
