(** The nonlinear temperature update — the paper's post-step user code.

    Per cell, the lattice temperature solves the scattering operator's
    energy balance (energy density per (d,b) is w I / vg, hence the 1/vg
    weights):

      sum_b (rate_b(T) / vg_b) (Omega I0_b(T) - J_b) = 0,
      J_b = sum_d w_d I_(d,b).

    Newton iteration on the full Jacobian (tabulated dI0/dT plus
    d rate/dT from {!Scattering.band_rate_dt}), with a bisection fallback
    (the residual is increasing in T). *)

(** Distributed-reduction flavour for the cross-band coupling:
    [Scalar_energy] reduces the absorbed power with rates frozen at
    their pre-update values (the paper's "reduction of intensity across
    bands"), one partial per (cell, band) so the band sum is order-exact
    on every plan; [Per_band] reduces the per-band angular integrals so
    the balance is evaluated with updated rates — exactly
    energy-conserving for the next sweep. *)
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
    its exact derivative (both the dI0/dT and the d rate/dT terms). *)

val residual_scalar : model -> float -> float -> float * float
(** [residual_scalar m g t]: the balance against a pre-reduced absorbed
    power [g], sum_b Omega I0_b(T) rate_b(T)/vg_b - g, and its exact
    derivative. *)

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
    partitioned — a per-(cell, band) array summed over bands in order,
    so every plan gets the serial values bit for bit — then refreshes
    T, Io and beta. Adds the call's Newton solves, bisection fallbacks
    and residual evaluations to the [bte.newton.solves],
    [bte.newton.bisections] and [bte.newton.evals] counters once, at the
    end. *)
