(** Phase-time accounting — the currency of the paper's execution-time
    breakdowns (Figs. 5 and 8): intensity solve / temperature update /
    communication (plus boundary and other). *)

type t = {
  mutable intensity : float;  (** seconds updating the intensity field *)
  mutable temperature : float;  (** seconds in the temperature inversion *)
  mutable communication : float;  (** seconds in halo / host-device traffic *)
  mutable boundary : float;  (** seconds in boundary callbacks *)
  mutable other : float;  (** everything not attributed above *)
}
(** Mutable per-phase second counters.  When tracing is on this record is
    a materialised view of the [cat:"phase"] span stream — {!of_events}
    recomputes it from a drained trace. *)

val zero : unit -> t
(** A fresh all-zero breakdown. *)

val make :
  intensity:float -> temperature:float -> communication:float ->
  ?boundary:float -> ?other:float -> unit -> t
(** Build a breakdown from known phase times (analytic-model side). *)

val total : t -> float
(** Sum of all phases, in seconds. *)

val add : t -> t -> t
(** Componentwise sum (fresh record; arguments unchanged). *)

val scale : float -> t -> t
(** [scale c b] multiplies every phase by [c] (fresh record). *)

type percentages = {
  pct_intensity : float;
  pct_temperature : float;
  pct_communication : float;
  pct_boundary : float;
  pct_other : float;
}

val percentages : t -> percentages
(** Phase shares of {!total}, in percent (all zero when total is 0). *)

val pp : Format.formatter -> t -> unit
(** Print the paper-style one-line summary (percentages + total). *)

type phase = Intensity | Temperature | Communication | Boundary | Other
(** The accounting categories of the paper's Figs. 5 and 8. *)

val phase_name : phase -> string
(** Lower-case span name of a phase (["intensity"], ...), the [cat:"phase"]
    event naming used in traces. *)

val record : t -> phase -> float -> unit
(** Add [dt] seconds to a phase. *)

val timed : ?track:Trace.track -> t -> phase -> (unit -> 'a) -> 'a
(** Run a thunk, recording its wall-clock duration against a phase.
    Under {!Spmd.run}, the part of it the rank spent suspended at a
    collective or a wait ({!Spmd.suspended_s}) — time other ranks ran —
    is recorded as communication instead, so a rank's phases count only
    its own running segments.  With [?track] (and tracing enabled) the
    section is also emitted as a [cat:"phase"] span named {!phase_name}
    on that track, with a ["suspended_s"] argument when it suspended, so
    the same measurement feeds both the accumulator and the trace. *)

val of_events : Trace.event list -> t
(** Rebuild a breakdown from drained trace events: sums the durations of
    [cat:"phase"] spans per phase, moving each span's ["suspended_s"]
    argument to communication as {!timed} does.  For a traced run this
    agrees with the accumulated record up to clock-read jitter. *)

val sum_distinct : t list -> t
(** Sum a list of breakdowns counting each {e physical} record once.
    Aggregators use this instead of folding {!add} so that aliased
    records — the caller participating as pool worker 0, or a rebound
    device state sharing its host's record — are not double-counted. *)
