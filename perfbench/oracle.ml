(* The output oracle: every result is compared against a serial,
   closure-evaluated, O0 solve of the same request (memoised per request,
   run with observability off and outside every timed window).

   - The gathered unknown [outcome.u] must be bit-exact on serial,
     threads and cells plans, and within a relative 1e-10 on band-split
     and GPU plans (their reductions and boundary terms round
     differently) — the bounds of the solver test-suite.
   - The returned solution field (T) must be within 1e-8 K.

   A [cells:N] result whose [u] matches but whose T does not is a
   solution-view mismatch: [Finch.solve] on [cells:N] returns rank 0's
   local view of T while gathering only the unknown (the [Cell_parallel]
   branch of lib/core/solve.ml).  Those are counted per plan, apart from
   the failures, so a fix there shows as the count falling to 0.  Any
   other disagreement, a T-only one on any other plan included, is a
   mismatch and fails the operation. *)

type verdict = Match | Solution_view | Mismatch of string

let u_rel_tol = 1e-10
let t_abs_tol = 1e-8

let checked = ref 0
let mismatches = ref 0
let view_by_plan : (string, int) Hashtbl.t = Hashtbl.create 8
let any_mismatch = ref false

(* Host seconds spent checking results (oracle solves, and the plan
   lookups that tell which plan an auto request ran as), so callers can
   take it out of the windows they time. *)
let spent = ref 0.

let reset_counts () =
  checked := 0;
  mismatches := 0;
  Hashtbl.reset view_by_plan

let solution_views () = Hashtbl.fold (fun _ n acc -> acc + n) view_by_plan 0

let oracle_request (r : Finch.Solve_request.t) =
  { r with
    Finch.Solve_request.backend = Finch.Config.Cpu Finch.Config.Serial;
    eval_mode = Finch.Config.Closure;
    opt_level = Finch.Config.O0;
    overlap = false;
    deadline_s = None;
    label = None }

let memo : (string, Fvm.Field.t * Fvm.Field.t) Hashtbl.t = Hashtbl.create 32

let solve_exn req =
  match Finch.prepare req with
  | Error e -> failwith (Finch.Solve_error.to_string e)
  | Ok prep -> (
    match Finch.solve_prepared req prep with
    | Error e -> failwith (Finch.Solve_error.to_string e)
    | Ok res -> res)

let timed f =
  let t0 = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () -> spent := !spent +. (Unix.gettimeofday () -. t0))

let expected req =
  let oreq = oracle_request req in
  let key = Finch.Solve_request.to_string oreq in
  match Hashtbl.find_opt memo key with
  | Some v -> v
  | None ->
    let res = Layers.quiet (fun () -> solve_exn oreq) in
    let v =
      Fvm.Field.copy res.Finch.Solve_result.outcome.Finch.Solve.u,
      Fvm.Field.copy res.Finch.Solve_result.solution
    in
    Hashtbl.replace memo key v;
    v

(* Solve the oracle for [req] ahead of a timed window. *)
let prime req = timed (fun () -> ignore (expected req))

let same_shape a b =
  Fvm.Field.ncells a = Fvm.Field.ncells b && Fvm.Field.ncomp a = Fvm.Field.ncomp b

(* Largest |a - b| over all entries; NaN anywhere reads as infinity. *)
let max_diff a b =
  Fvm.Field.fold a
    (fun acc cell comp x ->
      let d = Float.abs (x -. Fvm.Field.get b cell comp) in
      if Float.is_nan d then infinity else Float.max acc d)
    0.

let exact_plan (req : Finch.Solve_request.t) =
  match req.Finch.Solve_request.backend with
  | Finch.Config.Cpu
      (Finch.Config.Serial | Finch.Config.Threaded _ | Finch.Config.Cell_parallel _) ->
    true
  | Finch.Config.Cpu (Finch.Config.Band_parallel _ | Finch.Config.Hybrid _)
  | Finch.Config.Gpu _ | Finch.Config.Auto ->
    false

let compare_result (ran_as : Finch.Solve_request.t) (res : Finch.Solve_result.t) =
  let u_ref, t_ref = expected ran_as in
  let u = res.Finch.Solve_result.outcome.Finch.Solve.u in
  let t = res.Finch.Solve_result.solution in
  if not (same_shape u u_ref && same_shape t t_ref) then
    Mismatch "field shapes differ from the oracle"
  else
    let du = max_diff u u_ref in
    let u_ok =
      if exact_plan ran_as then du = 0.
      else du /. Fvm.Field.max_abs u_ref <= u_rel_tol
    in
    let dt = max_diff t t_ref in
    if not u_ok then Mismatch (Printf.sprintf "intensity differs by %g" du)
    else if dt <= t_abs_tol then Match
    else
      match ran_as.Finch.Solve_request.backend with
      | Finch.Config.Cpu (Finch.Config.Cell_parallel _) -> Solution_view
      | _ -> Mismatch (Printf.sprintf "T differs by %g K" dt)

(* Check one result of a request that ran as [ran_as] (the concrete plan
   an auto request resolved to).  Returns false when the operation
   failed the oracle. *)
let check ~(ran_as : Finch.Solve_request.t) (res : Finch.Solve_result.t) =
  timed (fun () ->
      incr checked;
      match compare_result ran_as res with
      | Match -> true
      | Solution_view ->
        let k = Layers.plan_key ran_as in
        Hashtbl.replace view_by_plan k
          (1 + Option.value ~default:0 (Hashtbl.find_opt view_by_plan k));
        true
      | Mismatch why ->
        incr mismatches;
        any_mismatch := true;
        Printf.eprintf "oracle mismatch: %s on %s\n%!" why
          (Finch.Solve_request.summary ran_as);
        false)

(* The oracle itself against the hand-written reference solver, on one
   fixed hotspot shape, so the check does not rest on the DSL alone.
   Returns the max |dT| in K; a failure marks the run incorrect. *)
let check_reference () =
  timed (fun () ->
      let req =
        Finch.Solve_request.make ~nx:10 ~ny:10 ~ndirs:4 ~nbands:4 ~nsteps:12
          ~opt_level:Finch.Config.O0 "hotspot"
      in
      let res = Layers.quiet (fun () -> solve_exn req) in
      let base = Option.get (Bte.Setup.base_of_scenario "hotspot") in
      let r = Bte.Reference.create (Bte.Setup.scenario_of_request base req) in
      Bte.Reference.run r ~nsteps:req.Finch.Solve_request.nsteps;
      let u = res.Finch.Solve_result.outcome.Finch.Solve.u in
      let t = res.Finch.Solve_result.solution in
      let du =
        Fvm.Field.fold u
          (fun acc cell comp x ->
            let b = Bte.Reference.intensity r ~cell ~comp in
            Float.max acc (Float.abs (x -. b) /. (1e-30 +. Float.abs b)))
          0.
      in
      let dt =
        Fvm.Field.fold t
          (fun acc cell _ x ->
            Float.max acc (Float.abs (x -. Bte.Reference.temperature r ~cell)))
          0.
      in
      if not (du <= u_rel_tol && dt <= t_abs_tol && Fvm.Field.ncells t = Bte.Reference.ncells r)
      then begin
        any_mismatch := true;
        Printf.eprintf "oracle vs reference solver: intensity rel %g, T %g K\n%!" du dt
      end;
      dt)

(* Per-layer rows: totals plus the solution-view count of every plan. *)
let metrics () =
  [ "oracle.checked", float_of_int !checked, "count";
    "oracle.mismatches", float_of_int !mismatches, "count";
    "oracle.solution_view_mismatches", float_of_int (solution_views ()), "count" ]
  @ List.map
      (fun p ->
        let n =
          Hashtbl.fold
            (fun k v acc -> if Layers.bucket Layers.known_plans k = p then acc + v else acc)
            view_by_plan 0
        in
        "oracle.solution_view_mismatches." ^ p, float_of_int n, "count")
      (Layers.known_plans @ [ "other" ])

let pp_solution_views oc =
  Printf.fprintf oc "oracle: %d checked, %d mismatches, %d solution-view mismatches\n"
    !checked !mismatches (solution_views ());
  List.iter
    (fun (k, n) ->
      Printf.fprintf oc "  %s: %d result(s) with the gathered unknown exact but T off\n" k n)
    (List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) view_by_plan []))
