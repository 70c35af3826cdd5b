(** Band-integrated Bose-Einstein equilibrium intensity I0_b(T) and its
    temperature derivative, tabulated on a dense temperature grid for the
    O(1) lookups the per-cell Newton solve needs.

    I0_b(T) = (deg_p / Omega) * integral over the band of
              hbar w vg(w) D(w) f_BE(w, T) dw. *)

type t = {
  disp : Dispersion.t;
  omega_total : float;
  t_lo : float;
  t_hi : float;
  dt_grid : float;
  ntemps : int;
  i0 : float array array;
  di0 : float array array;
}

val f_bose : float -> float -> float
(** [f_bose w t]: Bose-Einstein occupation 1 / (exp(hbar w / kb T) - 1),
    evaluated with [expm1] so small arguments keep their precision. *)

val df_bose : float -> float -> float
(** [df_bose w t]: the occupation's temperature derivative
    d f_BE / dT at frequency [w]. *)

val spectral : Dispersion.branch -> float -> float
(** hbar w vg D(w). *)

val quad_points : int
(** Midpoint-rule nodes per band (32). *)

val band_integral : Dispersion.band -> (float -> float) -> float
(** Midpoint-rule integral of spectral * f over a band, including the
    branch degeneracy. *)

val i0_exact : t -> int -> float -> float
(** Direct quadrature (no table). *)

val di0_exact : t -> int -> float -> float
(** Direct quadrature of dI0_b/dT (no table). *)

val make :
  ?t_lo:float -> ?t_hi:float -> ?dt_grid:float -> omega_total:float ->
  Dispersion.t -> t
(** Tabulate I0 and dI0/dT for every band at
    [t_lo + k * dt_grid] (defaults 50 K, 600 K, 0.5 K) up to [t_hi].
    Each band's nodes and spectral weights are computed once and each
    (node, temperature) pair takes one [expm1] for both sums, in the same
    operation order as {!i0_exact}/{!di0_exact}: every entry is
    bit-identical to the direct quadrature at its grid temperature.
    Raises [Invalid_argument] unless [t_lo < t_hi] and [dt_grid > 0]. *)

val i0 : t -> int -> float -> float
(** Linear interpolation in the table; temperature clamped to the grid. *)

val di0 : t -> int -> float -> float
(** Linear interpolation of dI0/dT; temperature clamped to the grid. *)

val energy_density : t -> float -> float
(** Total equilibrium phonon energy density at T:
    sum over bands of Omega * I0_b / vg_b. *)
