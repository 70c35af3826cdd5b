(* The three workloads.  Each is generated from the run's seed, in one
   thread: the only extra domains are the ones the program spawns itself
   (threads:2 spawns one; SPMD ranks are cooperative fibers).

   A workload is a set-up (timed by the caller, repeated [setups] times)
   and a sequence of blocks; block [i]'s inputs depend only on the seed
   and [i], so a traced pass can repeat an untraced pass exactly. *)

open Finch

let now = Unix.gettimeofday

type env = {
  root : string;  (* directory of this run's caches, inside the working tree *)
  seed : int;
  mutable generation : int;
}

let rng env parts = Random.State.make (Array.of_list (env.seed :: parts))

(* Cold caches: empty in-process memos and a cache directory never used
   before, for both the codegen and the tuner; the serve program cache
   is emptied too. *)
let fresh_caches env =
  env.generation <- env.generation + 1;
  let dir = Filename.concat env.root (string_of_int env.generation) in
  Finch_codegen.Codegen.clear_memo ();
  Finch_codegen.Codegen.set_cache_dir (Filename.concat dir "codegen");
  Finch_tune.Tune.clear_memo ();
  Finch_tune.Tune.set_cache_dir (Filename.concat dir "tune");
  Finch_serve.Programs.clear ()

(* Scenario registration and codegen install, as every entry point does
   at start-up. *)
let register () =
  Bte.Setup.register_scenarios ();
  Layers.instrument_scenarios ();
  Finch_codegen.Codegen.install ~post_io:Bte.Setup.post_io ()

(* What a run measured. *)
type acc = {
  mutable attempted : int;
  mutable failed : int;
  mutable latencies : (string * float) list;
    (* s, completed operations, keyed by request type *)
  mutable window_s : float;  (* host wall of the measured operations *)
  mutable dof_steps : float;  (* DOF x steps of completed operations *)
  mutable first_solves : (string * float) list;
    (* s, requests met on cold caches, keyed by request type *)
  mutable block_rates : float list;  (* DOF x steps per second, per block *)
}

let new_acc () =
  { attempted = 0; failed = 0; latencies = []; window_s = 0.; dof_steps = 0.;
    first_solves = []; block_rates = [] }

(* The block's DOF x steps per second of the window it added. *)
let push_window_rate acc ~dof0 ~window0 =
  acc.block_rates <-
    ((acc.dof_steps -. dof0) /. (acc.window_s -. window0)) :: acc.block_rates

let dof_steps (req : Solve_request.t) (res : Solve_result.t) =
  let u = res.Solve_result.outcome.Solve.u in
  float_of_int (Fvm.Field.ncells u * Fvm.Field.ncomp u)
  *. float_of_int req.Solve_request.nsteps

let target spec =
  match Config.target_of_string spec with
  | Ok t -> t
  | Error e -> invalid_arg e

let with_backend spec eval (r : Solve_request.t) =
  { r with Solve_request.backend = target spec; eval_mode = eval }

(* Requests of one type repeat across blocks or set-ups: same scenario,
   shape and backend, other temperatures. *)
let op_type (r : Solve_request.t) =
  Printf.sprintf "%s %dx%d d%d b%d s%d %s/%s" r.Solve_request.scenario
    r.Solve_request.nx r.Solve_request.ny r.Solve_request.ndirs
    r.Solve_request.nbands r.Solve_request.nsteps
    (Config.target_name r.Solve_request.backend)
    (Config.eval_mode_name r.Solve_request.eval_mode)

let report_error what (req : Solve_request.t) msg =
  Printf.eprintf "%s failed: %s (%s)\n%!" what msg (Solve_request.summary req)

(* Prepare and solve one concrete request: the result and the host-wall
   window [t0, t1] from request to result. *)
let solve_once (req : Solve_request.t) =
  let t0 = now () in
  let r =
    match Finch.prepare req with
    | Error e -> Error (Solve_error.to_string e)
    | Ok prep -> (
      match Layers.timed "solve" (fun () -> Finch.solve_prepared req prep) with
      | Ok res -> Ok res
      | Error e -> Error (Solve_error.to_string e))
  in
  r, t0, now ()

(* Oracle-check a finished operation and count it.  [ran_as] is the
   concrete plan the request ran as.  Returns the result when it
   passed. *)
let settle acc ~what ~(ran_as : Solve_request.t) r =
  acc.attempted <- acc.attempted + 1;
  match r with
  | Error msg ->
    acc.failed <- acc.failed + 1;
    report_error what ran_as msg;
    None
  | Ok res ->
    if Oracle.check ~ran_as res then Some res
    else begin
      acc.failed <- acc.failed + 1;
      None
    end

(* ------------------------------------------------------------------ *)
(* campaign: a few long solves rotating through a fixed plan list.     *)

module Campaign = struct
  (* serial/native is the plain single-threaded baseline; the others
     each put a different executor on the path *)
  let plans =
    [ "serial", Config.Native; "threads:2", Config.Native; "cells:2", Config.Native;
      "bands:2", Config.Closure; "gpu:a6000", Config.Closure ]

  let meshes env =
    let r = rng env [ 0 ] in
    let t_hot () = 309.5 +. Random.State.float r 1. in
    let hot = t_hot () in
    let corner = t_hot () in
    [ Solve_request.make ~nx:14 ~ny:14 ~ndirs:8 ~nbands:8 ~nsteps:8 ~t_hot:hot "hotspot";
      Solve_request.make ~nx:14 ~ny:14 ~ndirs:8 ~nbands:8 ~nsteps:8 ~t_hot:corner "corner" ]

  let warm_request base (spec, eval) k =
    with_backend spec eval
      { base with Solve_request.nsteps = 1; t_hot = Some (330. +. float_of_int k) }

  let setups = 7

  (* Warm the caches: one single-step solve per plan and mesh.  Each is
     the plan's first contact with the fresh caches and is kept as a
     first-solve sample. *)
  let setup env k acc =
    fresh_caches env;
    register ();
    List.iter
      (fun base ->
        List.iter
          (fun plan ->
            let req = warm_request base plan k in
            let r, t0, t1 = solve_once req in
            match settle acc ~what:"warm-up" ~ran_as:req r with
            | Some _ -> acc.first_solves <- (op_type req, t1 -. t0) :: acc.first_solves
            | None -> ())
          plans)
      (meshes env)

  let before_window env = List.iter Oracle.prime (meshes env)

  (* A block's rate is the geometric mean over the plan list of each
     plan's DOF x steps per second of solve wall, so the slowest executor
     weighs as much as the fastest. *)
  let block env i acc =
    let n = List.length plans in
    let rotated = List.init n (fun j -> List.nth plans ((i + j) mod n)) in
    let rates =
      List.map
      (fun (spec, eval) ->
        let dof = ref 0. and wall = ref 0. in
        List.iter
          (fun base ->
            let req = with_backend spec eval base in
            let mark = Layers.begin_op () in
            let r, t0, t1 = solve_once req in
            let ds = match r with Ok res -> dof_steps req res | Error _ -> 0. in
            Layers.end_op mark ~t0 ~t1 ~steps:req.Solve_request.nsteps ~dof_steps:ds;
            acc.window_s <- acc.window_s +. (t1 -. t0);
            match settle acc ~what:"solve" ~ran_as:req r with
            | Some res ->
              let w = res.Solve_result.wall_s in
              acc.latencies <- (op_type req, t1 -. t0) :: acc.latencies;
              acc.dof_steps <- acc.dof_steps +. ds;
              dof := !dof +. ds;
              wall := !wall +. w;
              Layers.solve_done ~ran_as:req res ~busy_s:w ~dof_steps:ds
            | None -> ())
          (meshes env);
        (* a plan whose solves all failed contributes nothing *)
        if !wall > 0. then !dof /. !wall else nan)
      rotated
    in
    match List.filter (fun r -> not (Float.is_nan r)) rates with
    | [] -> ()
    | ok -> acc.block_rates <- Stats.geomean ok :: acc.block_rates
end

(* ------------------------------------------------------------------ *)
(* sweep: a closed-loop parameter sweep through one scheduler.         *)

module Sweep = struct
  let clients = 8

  (* half the clients ask for the (co-batchable) simulated GPU, a quarter
     for serial/native, a quarter let the tuner choose *)
  let backend_of_client c =
    if c < 4 then "gpu:a6000", Config.Closure
    else if c < 6 then "serial", Config.Native
    else "auto", Config.Closure

  let scenarios = [ "hotspot"; "corner" ]

  let base scenario t_hot =
    Solve_request.make ~nx:12 ~ny:12 ~ndirs:4 ~nbands:4 ~nsteps:6 ~t_hot scenario

  (* the swept parameter: eight hot-spot temperatures drawn from the seed *)
  let t_hots env =
    let r = rng env [ 1 ] in
    Array.init 8 (fun k -> 302. +. (2. *. float_of_int k) +. Random.State.float r 1.)

  let request env ~round ~client =
    let r = rng env [ 2; round; client ] in
    let scenario = if Random.State.bool r then "hotspot" else "corner" in
    let t_hot = (t_hots env).(Random.State.int r 8) in
    let spec, eval = backend_of_client client in
    with_backend spec eval (base scenario t_hot)

  (* Tickets awaiting resolution, stamped by the scheduler's own clock:
     the scheduler reads [now] right after resolving a ticket, so the
     first reading that finds a ticket resolved is its done time. *)
  let pending : (Finch_serve.Scheduler.ticket * float ref) list ref = ref []

  let clock () =
    let t = now () in
    List.iter
      (fun (tk, done_at) ->
        if !done_at = 0. && Finch_serve.Scheduler.outcome tk <> None then done_at := t)
      !pending;
    t

  (* the scheduler the last set-up warmed *)
  let scheduler = ref None

  (* The plan auto requests of one shape resolve to, read back from the
     tuner's warm memo with observability off and outside the timed
     windows. *)
  let auto_plans : (string, Finch_tune.Plan.t) Hashtbl.t = Hashtbl.create 8

  let ran_as (req : Solve_request.t) =
    if req.Solve_request.backend <> Config.Auto then req
    else
      let sc = Solve_request.batch_key req in
      let plan =
        match Hashtbl.find_opt auto_plans sc with
        | Some p -> p
        | None ->
          let p =
            Oracle.timed (fun () ->
                Layers.quiet (fun () ->
                    match Finch_tune.Tune.plan ~post_io:Bte.Setup.post_io req with
                    | Ok d -> d.Finch_tune.Tune.dc_plan
                    | Error e -> failwith ("sweep: tuner: " ^ e)))
          in
          Hashtbl.replace auto_plans sc p;
          p
      in
      Finch_tune.Plan.apply plan req

  let result_of tk =
    match Finch_serve.Scheduler.outcome tk with
    | Some (Finch_serve.Scheduler.Completed res) -> Ok res
    | Some (Finch_serve.Scheduler.Rejected m) -> Error ("rejected: " ^ m)
    | Some (Finch_serve.Scheduler.Timed_out _) -> Error "timed out"
    | None -> Error "unresolved"

  let submit s req =
    let done_at = ref 0. in
    let ts = now () in
    let tk = Finch_serve.Scheduler.submit s req in
    pending := (tk, done_at) :: !pending;
    tk, ts, done_at

  let new_scheduler () =
    Hashtbl.reset auto_plans;
    let s = Finch_serve.Scheduler.create ~post_io:Bte.Setup.post_io ~now:clock () in
    scheduler := Some s;
    s

  (* Submit one request alone and drain: its submit-to-done wall. *)
  let solo s acc ~what (req : Solve_request.t) =
    let tk, ts, _ = submit s req in
    Finch_serve.Scheduler.drain s;
    let t1 = now () in
    pending := [];
    match settle acc ~what ~ran_as:(ran_as req) (result_of tk) with
    | Some _ -> Some (op_type req, t1 -. ts)
    | None -> None

  (* one client of each backend class *)
  let class_clients = [ 0; 4; 6 ]

  let class_request env ~scenario ~client k =
    { (request env ~round:0 ~client) with
      Solve_request.scenario; t_hot = Some (330. +. float_of_int k) }

  let setups = 15

  (* Warm the tuner, program cache and codegen: every scenario x backend
     class once, each alone.  Each request is its type's first contact
     with the fresh caches and is kept as a first-solve sample. *)
  let setup env k acc =
    fresh_caches env;
    register ();
    let s = new_scheduler () in
    List.iter
      (fun scenario ->
        List.iter
          (fun client ->
            match solo s acc ~what:"warm-up" (class_request env ~scenario ~client k) with
            | Some sample -> acc.first_solves <- sample :: acc.first_solves
            | None -> ())
          class_clients)
      scenarios

  let before_window env =
    Array.iter
      (fun t_hot ->
        List.iter (fun sc -> Oracle.prime (base sc t_hot)) scenarios)
      (t_hots env)

  (* One closed-loop round: every client has one request outstanding;
     the scheduler co-batches and drains them. *)
  let block env i acc =
    let s = Option.get !scheduler in
    let dof0 = acc.dof_steps and window0 = acc.window_s in
    let reqs = List.init clients (fun client -> request env ~round:i ~client) in
    let mark = Layers.begin_op () in
    let t0 = now () in
    let tickets = List.map (fun req -> req, submit s req) reqs in
    Layers.timed "serve" (fun () -> Finch_serve.Scheduler.drain s);
    let t1 = now () in
    pending := [];
    let results =
      List.map
        (fun (req, (tk, ts, done_at)) ->
          req, ran_as req, result_of tk, ts, if !done_at > 0. then !done_at else t1)
        tickets
    in
    let steps = List.fold_left (fun n (_, ran, _, _, _) -> n + ran.Solve_request.nsteps) 0 results in
    let ds =
      List.fold_left
        (fun a (_, ran, r, _, _) ->
          match r with Ok res -> a +. dof_steps ran res | Error _ -> a)
        0. results
    in
    Layers.end_op mark ~t0 ~t1 ~steps ~dof_steps:ds;
    acc.window_s <- acc.window_s +. (t1 -. t0);
    (* co-batched results share one batch wall: count it once per plan *)
    let seen = Hashtbl.create 8 in
    List.iteri
      (fun client ((req : Solve_request.t), ran, r, ts, done_at) ->
        match settle acc ~what:"request" ~ran_as:ran r with
        | Some res ->
          let latency = done_at -. ts in
          let d = dof_steps ran res in
          (* every request of the sweep is its own type *)
          acc.latencies <- (Printf.sprintf "%d/%d" i client, latency) :: acc.latencies;
          acc.dof_steps <- acc.dof_steps +. d;
          let plan = Layers.plan_key ran in
          let wall = res.Solve_result.wall_s in
          let busy = if Hashtbl.mem seen (plan, wall) then 0. else wall in
          Hashtbl.replace seen (plan, wall) ();
          Layers.solve_done ~ran_as:ran res ~busy_s:busy ~dof_steps:d;
          if !Layers.recording then
            Layers.sample "queue_wait_ms" ((latency -. wall) *. 1e3);
          if req.Solve_request.backend = Config.Auto then Layers.tuned ~plan None
        | None -> ())
      results;
    push_window_rate acc ~dof0 ~window0
end

(* ------------------------------------------------------------------ *)
(* first_contact: requests never seen before, each on cold caches.     *)

module First_contact = struct
  (* band counts mixed so auto lands on cells:4/native (4 bands, 4
     directions) as well as on gpu:a6000:2 *)
  let shapes =
    [ "hotspot", 12, 12, 4, 4; "corner", 12, 12, 4, 4; "hotspot", 16, 16, 8, 8;
      "corner", 16, 16, 8, 4 ]

  let steps = 4

  let setups = 30

  (* One single-step serial solve per shape pays the process's one-time
     costs (code paging, scenario construction paths, the tuner's
     machine probe) before anything is timed as a first contact; no
     cache the requests use is filled. *)
  let setup env _k acc =
    fresh_caches env;
    register ();
    ignore (Finch_tune.Tune.detect_profile ());
    List.iter
      (fun (scenario, nx, ny, ndirs, nbands) ->
        let req = Solve_request.make ~nx ~ny ~ndirs ~nbands ~nsteps:1 scenario in
        let r, _, _ = solve_once req in
        ignore (settle acc ~what:"warm-up" ~ran_as:req r))
      shapes

  let before_window _ = ()

  (* bte_sim run's request path: tune, prepare, analysis gate, optimizer,
     solve *)
  let first_solve (req : Solve_request.t) =
    match
      Layers.timed "tune_resolve" (fun () ->
          Finch_tune.Tune.resolve ~post_io:Bte.Setup.post_io req)
    with
    | Error e -> req, Error ("tuner: " ^ e)
    | Ok (ran_as, decision) ->
      if req.Solve_request.backend = Config.Auto then
        Layers.tuned ~plan:(Layers.plan_key ran_as) decision;
      let r =
        match Finch.prepare ran_as with
        | Error e -> Error (Solve_error.to_string e)
        | Ok prep ->
          let report =
            Layers.timed "analysis" (fun () ->
                Finch_analysis.Driver.check_problem ?post_io:prep.pr_post_io
                  prep.pr_problem)
          in
          if !Layers.recording then begin
            Layers.add "analysis.errors" (float_of_int report.Finch_analysis.Driver.errors);
            Layers.add "analysis.warnings" (float_of_int report.Finch_analysis.Driver.warnings)
          end;
          if report.Finch_analysis.Driver.errors > 0 then
            Error
              (Printf.sprintf "analysis found %d error(s)"
                 report.Finch_analysis.Driver.errors)
          else begin
            ignore
              (Layers.timed "opt" (fun () ->
                   Finch_opt.Opt.optimize_problem ?post_io:prep.pr_post_io
                     prep.pr_problem));
            match
              Layers.timed "solve" (fun () -> Finch.solve_prepared ran_as prep)
            with
            | Ok res -> Ok res
            | Error e -> Error (Solve_error.to_string e)
          end
      in
      ran_as, r

  (* One hot-spot temperature per shape, drawn from the seed.  The codegen
     and tuner cache keys do not depend on temperatures, so clearing the
     caches is what makes every request a first contact; sharing the
     temperature lets one oracle solve serve each shape. *)
  let t_hot env j = 309.5 +. Random.State.float (rng env [ 4; j ]) 1.

  (* One cycle: every shape once under auto and once under serial/native,
     in a seeded order. *)
  let block env i acc =
    let dof0 = acc.dof_steps and window0 = acc.window_s in
    let r = rng env [ 3; i ] in
    let keyed = List.mapi (fun j s -> Random.State.bits r, (j, s)) shapes in
    let order = List.map snd (List.sort compare keyed) in
    List.iter
      (fun (j, (scenario, nx, ny, ndirs, nbands)) ->
        List.iter
          (fun (spec, eval) ->
            let req =
              with_backend spec eval
                (Solve_request.make ~nx ~ny ~ndirs ~nbands ~nsteps:steps
                   ~t_hot:(t_hot env j) ~label:(Printf.sprintf "cycle %d shape %d" i j)
                   scenario)
            in
            fresh_caches env;
            let mark = Layers.begin_op () in
            let t0 = now () in
            let ran_as, res = first_solve req in
            let t1 = now () in
            let ds = match res with Ok x -> dof_steps ran_as x | Error _ -> 0. in
            Layers.end_op mark ~t0 ~t1 ~steps:ran_as.Solve_request.nsteps ~dof_steps:ds;
            acc.window_s <- acc.window_s +. (t1 -. t0);
            match settle acc ~what:"first solve" ~ran_as res with
            | Some x ->
              acc.latencies <- (op_type req, t1 -. t0) :: acc.latencies;
              acc.first_solves <- (op_type req, t1 -. t0) :: acc.first_solves;
              acc.dof_steps <- acc.dof_steps +. ds;
              Layers.solve_done ~ran_as x ~busy_s:x.Solve_result.wall_s ~dof_steps:ds
            | None -> ())
          [ "auto", Config.Closure; "serial", Config.Native ])
      order;
    push_window_rate acc ~dof0 ~window0
end
