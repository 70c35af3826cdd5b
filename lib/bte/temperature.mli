(** The nonlinear temperature update — the paper's post-step user code.

    Per cell, the lattice temperature solves the scattering operator's
    energy balance (energy density per (d,b) is w I / vg, hence the 1/vg
    weights):

      sum_b (rate_b(T) / vg_b) (Omega I0_b(T) - J_b) = 0,
      J_b = sum_d w_d I_(d,b).

    Newton iteration with the tabulated dI0/dT as Jacobian and a bisection
    fallback (the residual is increasing in T). *)

(** Distributed-reduction flavour for the cross-band coupling:
    [Scalar_energy] reduces one absorbed-power value per cell (the
    paper's "reduction of intensity across bands" — cheapest payload,
    rates frozen at their pre-update values); [Per_band] reduces the
    per-band angular integrals so the balance is evaluated with updated
    rates — exactly energy-conserving for the next sweep. *)
type reduction = Scalar_energy | Per_band

type model = {
  disp : Dispersion.t;
  eqtab : Equilibrium.t;
  angles : Angles.t;
  max_newton : int;
  tol : float;
  reduction : reduction;
}

val make :
  ?max_newton:int -> ?tol:float -> ?reduction:reduction ->
  disp:Dispersion.t -> eqtab:Equilibrium.t -> angles:Angles.t -> unit -> model
(** Defaults: 30 Newton iterations, relative tolerance 1e-12 on the
    residual, [Scalar_energy] reduction. *)

val nbands : model -> int
(** Number of resolved phonon bands. *)

val residual_per_band : model -> (int -> float) -> float -> float * float
(** [residual_per_band m jb t]: the energy balance
    sum_b (rate_b(T)/vg_b) (Omega I0_b(T) - J_b) with J_b = [jb b], and
    its Jacobian estimate (the dI0/dT term only; d rate / dT is
    omitted). *)

val residual_scalar : model -> float -> float -> float * float
(** [residual_scalar m g t]: the balance against a pre-reduced absorbed
    power [g], sum_b Omega I0_b(T) rate_b(T)/vg_b - g, and the same
    Jacobian estimate. *)

val emission_scale : model -> float -> float
(** Emission magnitude at T, the reference for the relative convergence
    test (floored at 1e-300). *)

exception No_convergence of float

val newton_residual : model -> (float -> float * float) -> guess:float -> float
(** Root of a residual/Jacobian function in [t_lo, t_hi] of the table:
    Newton from the clamped [guess], falling back to bisection when the
    iteration cap is hit or the slope is not positive. Raises
    {!No_convergence} if bisection does not converge in 200 halvings. *)

val newton : model -> jb:(int -> float) -> guess:float -> float
(** {!newton_residual} on {!residual_per_band}. *)

val newton_scalar : model -> g:float -> guess:float -> float
(** {!newton_residual} on {!residual_scalar}. *)

val post_step : model -> Finch.Problem.step_ctx -> unit
(** The callback wired into the DSL problem; expects fields "I" (over
    [d; b]), "Io" and "beta" (over [b]) and "T". Performs the configured
    cross-rank reduction through [st_allreduce] when bands are
    partitioned, then refreshes T, Io and beta. Adds the call's Newton
    solves and bisection fallbacks to the [bte.newton.solves] and
    [bte.newton.bisections] counters once, at the end. *)
