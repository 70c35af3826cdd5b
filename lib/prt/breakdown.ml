(* Phase-time accounting: the paper's execution-time breakdowns (Figs. 5
   and 8) split wall time into "solve for intensity", "temperature update"
   and "communication".  This module is the common currency for both the
   analytic performance model and the instrumented real runs. *)

type t = {
  mutable intensity : float;     (* s spent updating I *)
  mutable temperature : float;   (* s spent in the temperature update *)
  mutable communication : float; (* s in MPI-like or host<->device traffic *)
  mutable boundary : float;      (* s in boundary callbacks *)
  mutable other : float;
}

let zero () =
  { intensity = 0.; temperature = 0.; communication = 0.; boundary = 0.; other = 0. }

let make ~intensity ~temperature ~communication ?(boundary = 0.) ?(other = 0.) () =
  { intensity; temperature; communication; boundary; other }

let total b = b.intensity +. b.temperature +. b.communication +. b.boundary +. b.other

let add a b =
  {
    intensity = a.intensity +. b.intensity;
    temperature = a.temperature +. b.temperature;
    communication = a.communication +. b.communication;
    boundary = a.boundary +. b.boundary;
    other = a.other +. b.other;
  }

let scale c b =
  {
    intensity = c *. b.intensity;
    temperature = c *. b.temperature;
    communication = c *. b.communication;
    boundary = c *. b.boundary;
    other = c *. b.other;
  }

type percentages = {
  pct_intensity : float;
  pct_temperature : float;
  pct_communication : float;
  pct_boundary : float;
  pct_other : float;
}

let percentages b =
  let t = total b in
  if t <= 0. then
    { pct_intensity = 0.; pct_temperature = 0.; pct_communication = 0.;
      pct_boundary = 0.; pct_other = 0. }
  else
    {
      pct_intensity = 100. *. b.intensity /. t;
      pct_temperature = 100. *. b.temperature /. t;
      pct_communication = 100. *. b.communication /. t;
      pct_boundary = 100. *. b.boundary /. t;
      pct_other = 100. *. b.other /. t;
    }

let pp ppf b =
  let p = percentages b in
  Format.fprintf ppf
    "intensity %.1f%% | temperature %.1f%% | communication %.1f%%%s (total %.3g s)"
    p.pct_intensity p.pct_temperature p.pct_communication
    (if b.boundary > 0. then Printf.sprintf " | boundary %.1f%%" p.pct_boundary
     else "")
    (total b)

(* Wall-clock phase timer for instrumented real runs. *)
type phase = Intensity | Temperature | Communication | Boundary | Other

let record b phase dt =
  match phase with
  | Intensity -> b.intensity <- b.intensity +. dt
  | Temperature -> b.temperature <- b.temperature +. dt
  | Communication -> b.communication <- b.communication +. dt
  | Boundary -> b.boundary <- b.boundary +. dt
  | Other -> b.other <- b.other +. dt

let phase_name = function
  | Intensity -> "intensity"
  | Temperature -> "temperature"
  | Communication -> "communication"
  | Boundary -> "boundary"
  | Other -> "other"

let phase_of_name = function
  | "intensity" -> Some Intensity
  | "temperature" -> Some Temperature
  | "communication" -> Some Communication
  | "boundary" -> Some Boundary
  | "other" -> Some Other
  | _ -> None

(* A phase counts only the running rank's own time: under [Spmd], the
   seconds a section spent suspended at a collective or a wait (while
   peer ranks ran) go to communication instead.  Split records the
   section as [total - suspended] of [phase] plus [suspended] of
   communication. *)
let record_split b phase ~total ~suspended =
  record b phase (total -. suspended);
  if suspended > 0. then record b Communication suspended

(* Phase sections are also trace spans (cat "phase") when tracing is on,
   carrying their suspended seconds as a "suspended_s" argument: the
   accumulator [t] is then just a materialised view of the span stream —
   [of_events] recomputes it from the trace. *)
let timed ?track b phase f =
  let t0 = Unix.gettimeofday () and s0 = Spmd.suspended_s () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  let suspended = Spmd.suspended_s () -. s0 in
  record_split b phase ~total:(t1 -. t0) ~suspended;
  (match track with
   | Some tr ->
     let args = if suspended > 0. then [ "suspended_s", suspended ] else [] in
     Trace.complete tr ~cat:"phase" (phase_name phase) ~args ~t0 ~t1
   | None -> ());
  r

let of_events evs =
  let b = zero () in
  List.iter
    (fun ev ->
      if ev.Trace.ev_cat = "phase" && ev.Trace.ev_dur >= 0. then
        match phase_of_name ev.Trace.ev_name with
        | Some p ->
          let suspended =
            Option.value ~default:0.
              (List.assoc_opt "suspended_s" ev.Trace.ev_args)
          in
          record_split b p ~total:(ev.Trace.ev_dur *. 1e-6) ~suspended
        | None -> ())
    evs;
  b

(* Sum a list of breakdowns, counting each physical record once.  Guards
   aggregation against aliasing: when the caller participates as pool
   worker 0 (or a rebound device state shares its host's record), the
   same mutable record can appear under two names — summing it twice
   would double-count the caller's phase time. *)
let sum_distinct bs =
  let seen = ref [] in
  List.fold_left
    (fun acc b ->
      if List.exists (fun s -> s == b) !seen then acc
      else begin
        seen := b :: !seen;
        add acc b
      end)
    (zero ()) bs
