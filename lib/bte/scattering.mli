(** Holland-model relaxation times, combined by Matthiessen's rule.
    Rates depend on frequency, branch and local temperature, which is why
    the solver refreshes per-cell 1/tau values after every temperature
    update. *)

val rate_impurity : float -> float
(** [rate_impurity w]: isotope/impurity scattering A w^4. *)

val rate_la : float -> float -> float
(** [rate_la w t]: LA three-phonon scattering B_L w^2 T^3. *)

val rate_ta : float -> float -> float
(** [rate_ta w t]: TA scattering — normal B_TN w T^4 below the half-zone
    frequency, umklapp B_TU w^2 / sinh(hbar w / kb T) above it. *)

val rate : Dispersion.branch -> float -> float -> float
(** [rate branch omega t] = combined 1/tau, floored away from zero to keep
    the explicit scheme well-behaved at omega -> 0. *)

val tau : Dispersion.branch -> float -> float -> float
(** [tau branch omega t] = 1 / {!rate}. *)

val band_rate : Dispersion.band -> float -> float
(** Rate at the band centre. *)

val band_rate_dt : Dispersion.band -> float -> float * float
(** [band_rate_dt band t] = ({!band_rate} [band t], d rate / dT), both
    from one evaluation of the branch term. The derivative is 3 r/T for
    LA, 4 r/T for TA normal and r x coth(x) / T for TA umklapp
    (x = hbar w / kb T); impurity scattering contributes nothing, and a
    floored rate has derivative 0. *)

val band_tau : Dispersion.band -> float -> float
(** Relaxation time at the band centre, 1 / {!band_rate}. *)
