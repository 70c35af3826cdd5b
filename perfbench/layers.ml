(* Per-layer observation for the traced run.

   The benchmark records its own spans around the public calls it makes
   (and around the registered scenario constructors, which is where
   [Finch.prepare] spends its time, so preparations made inside the
   tuner and the scheduler are seen too).  Around each operation it
   snapshots the [Prt.Metrics] counters and drains the [Prt.Trace]
   buffer, summing what the per-layer metrics need; nothing is kept per
   event, so a long traced run stays small. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* The benchmark's own spans                                           *)

type span = { layer : string; t0 : float; t1 : float }

let recording = ref false
let spans : span list ref = ref []

let timed layer f =
  if not !recording then f ()
  else begin
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        spans := { layer; t0; t1 = now () } :: !spans)
  end

(* Run [f] with tracing, metrics and span recording off: oracle solves
   and the benchmark's own lookups must not appear in any layer figure. *)
let quiet f =
  let tr = Prt.Trace.enabled () and me = Prt.Metrics.enabled () in
  let rc = !recording in
  Prt.Trace.disable ();
  Prt.Metrics.disable ();
  recording := false;
  Fun.protect f ~finally:(fun () ->
      if tr then Prt.Trace.enable ();
      if me then Prt.Metrics.enable ();
      recording := rc)

(* Re-register the scenario constructors behind a "prepare" span.  Must run
   after every [Bte.Setup.register_scenarios], which replaces them. *)
let instrument_scenarios () =
  List.iter
    (fun name ->
      match Hashtbl.find_opt Finch.scenario_registry name with
      | Some build ->
        Finch.register_scenario name (fun req ->
            timed "prepare" (fun () -> build req))
      | None -> ())
    [ "hotspot"; "corner" ]

(* ------------------------------------------------------------------ *)
(* Plan keys: the metric-name spelling of the plan a request ran as.   *)

let plan_key (req : Finch.Solve_request.t) =
  String.map
    (fun c -> if c = ':' then '_' else c)
    (Finch.Config.target_name req.Finch.Solve_request.backend)
  ^ "."
  ^ Finch.Config.eval_mode_name req.Finch.Solve_request.eval_mode

(* Plans the workloads run (campaign's list, and what the tuner picks
   for the sweep and first_contact shapes); anything else is "other". *)
let known_plans =
  [ "serial.native"; "threads_2.native"; "cells_2.native"; "bands_2.closure";
    "gpu_a6000.closure"; "cells_4.native"; "gpu_a6000_2.closure" ]

let tuner_plans = [ "cells_4.native"; "gpu_a6000_2.closure" ]

let bucket known key = if List.mem key known then key else "other"

(* Host-clock executors: the phase breakdown of a GPU plan mixes in
   modelled device time, so only CPU plans feed [phase.*]. *)
let is_cpu (req : Finch.Solve_request.t) =
  match req.Finch.Solve_request.backend with
  | Finch.Config.Cpu _ -> true
  | Finch.Config.Gpu _ | Finch.Config.Auto -> false

(* ------------------------------------------------------------------ *)
(* Accumulated figures of one traced pass                              *)

let sums : (string, float) Hashtbl.t = Hashtbl.create 64
let samples : (string, float list) Hashtbl.t = Hashtbl.create 8

let add name v =
  Hashtbl.replace sums name
    (v +. Option.value ~default:0. (Hashtbl.find_opt sums name))

let get name = Option.value ~default:0. (Hashtbl.find_opt sums name)

let sample name v =
  Hashtbl.replace samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let get_samples name = Option.value ~default:[] (Hashtbl.find_opt samples name)

let reset () =
  Hashtbl.reset sums;
  Hashtbl.reset samples;
  spans := []

(* ------------------------------------------------------------------ *)
(* Operation boundaries                                                *)

type mark = { counters : (string * int) list; words : float; hist : float array }

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let h_batch = Prt.Metrics.histogram "serve.batch_size"
let h_barrier = Prt.Metrics.histogram "pool.barrier_wait_ns"

let hist_marks () =
  [| float_of_int (Prt.Metrics.hist_count h_batch); Prt.Metrics.hist_sum h_batch;
     Prt.Metrics.hist_sum h_barrier |]

let begin_op () =
  if not !recording then None
  else begin
    Prt.Trace.clear ();
    spans := [];
    Some
      { counters = Prt.Metrics.counter_values (); words = alloc_words ();
        hist = hist_marks () }
  end

(* Counters whose per-step figures are normalised by the steps of the
   operations that moved them (a GPU byte count over GPU steps only). *)
let per_step_counters =
  [ "gpu.kernel_launches"; "gpu.h2d_bytes"; "gpu.d2h_bytes"; "gpu.d2d_bytes";
    "halo.bytes"; "halo.rounds" ]

let phase_names = [ "intensity"; "temperature"; "communication"; "boundary"; "other" ]

(* [end_op mark ~t0 ~t1 ~steps ~dof_steps] folds one operation's window
   [t0, t1] (host wall) into the sums.  [steps] counts the solver steps
   the operation ran, [dof_steps] its DOF x steps. *)
let end_op mark ~t0 ~t1 ~steps ~dof_steps =
  match mark with
  | None -> ()
  | Some m ->
    let words = alloc_words () -. m.words in
    let after = Prt.Metrics.counter_values () in
    List.iter
      (fun (name, v) ->
        let d = v - Option.value ~default:0 (List.assoc_opt name m.counters) in
        if d <> 0 then begin
          add ("ctr." ^ name) (float_of_int d);
          if List.mem name per_step_counters then
            add ("steps." ^ name) (float_of_int steps)
        end)
      after;
    let h = hist_marks () in
    add "serve.batch_count" (h.(0) -. m.hist.(0));
    add "serve.batch_members" (h.(1) -. m.hist.(1));
    add "pool.barrier_wait_ns" (h.(2) -. m.hist.(2));
    add "alloc.words" words;
    add "alloc.dof_steps" dof_steps;
    List.iter
      (fun (ev : Prt.Trace.event) ->
        if ev.Prt.Trace.ev_pid = Prt.Trace.host_pid && ev.Prt.Trace.ev_dur >= 0.
           && ev.Prt.Trace.ev_name = "tune:plan" then begin
          add "tune.calls" 1.;
          add "tune.busy_s" (ev.Prt.Trace.ev_dur *. 1e-6)
        end)
      (Prt.Trace.events ());
    Prt.Trace.clear ();
    let inside = List.filter (fun s -> s.t0 >= t0 && s.t1 <= t1) !spans in
    List.iter
      (fun s ->
        let d = s.t1 -. s.t0 in
        add (s.layer ^ ".calls") 1.;
        add (s.layer ^ ".busy_s") d;
        if s.layer = "prepare" then sample "prepare_ms" (d *. 1e3))
      inside;
    let covered = Stats.union_length (List.map (fun s -> s.t0, s.t1) inside) in
    add "op.wall_s" (t1 -. t0);
    add "op.uncovered_s" (Float.max 0. (t1 -. t0 -. covered));
    spans := []

(* A finished solve [res] that ran as [ran_as]: [busy_s] host wall,
   [dof_steps] its DOF x steps.  The result's phase breakdown counts
   only on host-clock plans. *)
let solve_done ~(ran_as : Finch.Solve_request.t) (res : Finch.Solve_result.t) ~busy_s
    ~dof_steps =
  if !recording then begin
    let k = bucket known_plans (plan_key ran_as) in
    add ("solve." ^ k ^ ".busy_s") busy_s;
    add ("solve." ^ k ^ ".dof_steps") dof_steps;
    if is_cpu ran_as then begin
      let b = res.Finch.Solve_result.breakdown in
      add "phase.intensity" b.Prt.Breakdown.intensity;
      add "phase.temperature" b.Prt.Breakdown.temperature;
      add "phase.communication" b.Prt.Breakdown.communication;
      add "phase.boundary" b.Prt.Breakdown.boundary;
      add "phase.other" b.Prt.Breakdown.other
    end
  end

(* The tuner's decision for one auto request. *)
let tuned ~plan (d : Finch_tune.Tune.decision option) =
  if !recording then begin
    add ("tune.chosen." ^ bucket tuner_plans plan) 1.;
    match d with
    | None -> ()
    | Some d ->
      List.iter
        (fun (c : Finch_tune.Tune.candidate) ->
          match c.Finch_tune.Tune.cd_verdict with
          | Finch_tune.Tune.Legal -> add "tune.gated" 1.
          | Finch_tune.Tune.Rejected _ ->
            add "tune.gated" 1.;
            add "tune.gate_rejected" 1.
          | Finch_tune.Tune.Scored | Finch_tune.Tune.Unpredictable _ -> ())
        d.Finch_tune.Tune.dc_candidates
  end

(* ------------------------------------------------------------------ *)
(* Count determinism: figures that must repeat exactly for one seed    *)

let deterministic_counters =
  [ "opt.loops_fused"; "opt.kernels_fused"; "opt.steps_fused";
    "opt.assigns_eliminated"; "opt.transfers_coalesced"; "opt.h2d_hoisted";
    "opt.passes_rejected"; "tune.candidates_scored"; "codegen.cache_misses";
    "serve.batches"; "serve.batched_launches"; "halo.bytes"; "halo.rounds";
    "spmd.p2p_msgs"; "spmd.p2p_bytes"; "spmd.barriers"; "spmd.allreduce_bytes";
    "gpu.kernel_launches"; "gpu.h2d_bytes"; "gpu.d2h_bytes"; "gpu.d2d_bytes" ]

let counts () =
  List.map (fun c -> c, get ("ctr." ^ c)) deterministic_counters
  @ List.map
      (fun p -> "tune.chosen." ^ p, get ("tune.chosen." ^ p))
      (tuner_plans @ [ "other" ])

(* ------------------------------------------------------------------ *)
(* The per-layer metric table                                          *)

let ratio a b = if b > 0. then a /. b else 0.

let per_step name = ratio (get ("ctr." ^ name)) (get ("steps." ^ name))

(* [metrics ~untraced_wall ~count_mismatches ~oracle] lists every
   per-layer metric as (name, value, unit).  [untraced_wall] is the op
   wall of the untraced pass over the same operations. *)
let metrics ~untraced_wall ~count_mismatches ~oracle =
  let c name = get ("ctr." ^ name) in
  let solve_rows =
    List.concat_map
      (fun p ->
        let busy = get ("solve." ^ p ^ ".busy_s") in
        [ "solve." ^ p ^ ".busy_s", busy, "s";
          "solve." ^ p ^ ".mdof_steps_per_s",
          ratio (get ("solve." ^ p ^ ".dof_steps")) busy /. 1e6,
          "Mdof_steps/s" ])
      (known_plans @ [ "other" ])
  in
  let prep_ms = get_samples "prepare_ms" in
  let hits = c "codegen.cache_hits" and misses = c "codegen.cache_misses" in
  let phits = c "serve.program_hits" and pmisses = c "serve.program_misses" in
  let op_wall = get "op.wall_s" in
  [ "finch.prepare.calls", get "prepare.calls", "count";
    "finch.prepare.busy_s", get "prepare.busy_s", "s";
    "finch.prepare.p50_ms", (if prep_ms = [] then 0. else Stats.median prep_ms), "ms";
    "tune.calls", get "tune.calls", "count";
    "tune.busy_s", get "tune.busy_s", "s";
    "tune.cache_hits", c "tune.cache_hits", "count";
    "tune.cache_misses", c "tune.cache_misses", "count";
    "tune.candidates_scored", c "tune.candidates_scored", "count";
    "tune.gate_reject_ratio", ratio (get "tune.gate_rejected") (get "tune.gated"), "ratio" ]
  @ List.map
      (fun p -> "tune.chosen." ^ p, get ("tune.chosen." ^ p), "count")
      (tuner_plans @ [ "other" ])
  @ [ "analysis.calls", get "analysis.calls", "count";
      "analysis.busy_s", get "analysis.busy_s", "s";
      "analysis.errors", get "analysis.errors", "count";
      "analysis.warnings", get "analysis.warnings", "count";
      "opt.busy_s", get "opt.busy_s", "s";
      "opt.loops_fused", c "opt.loops_fused", "count";
      "opt.kernels_fused", c "opt.kernels_fused", "count";
      "opt.steps_fused", c "opt.steps_fused", "count";
      "opt.passes_rejected", c "opt.passes_rejected", "count";
      "codegen.compile_s", c "codegen.compile_ns" *. 1e-9, "s";
      "codegen.cache_hits", hits, "count";
      "codegen.cache_misses", misses, "count";
      "codegen.hit_ratio", ratio hits (hits +. misses), "ratio" ]
  @ solve_rows
  @ List.map (fun p -> "phase." ^ p ^ "_s", get ("phase." ^ p), "s") phase_names
  @ [ "solve.alloc_words_per_dof_step",
      ratio (get "alloc.words") (get "alloc.dof_steps"), "words";
      "gpu.kernel_launches_per_step", per_step "gpu.kernel_launches", "count/step";
      "gpu.h2d_bytes_per_step", per_step "gpu.h2d_bytes", "B/step";
      "gpu.d2h_bytes_per_step", per_step "gpu.d2h_bytes", "B/step";
      "gpu.d2d_bytes_per_step", per_step "gpu.d2d_bytes", "B/step";
      "gpu.modelled_kernel_s", c "gpu.kernel_ns" *. 1e-9, "model_s";
      "halo.bytes_per_step", per_step "halo.bytes", "B/step";
      "halo.rounds_per_step", per_step "halo.rounds", "count/step";
      "spmd.p2p_msgs", c "spmd.p2p_msgs", "count";
      "spmd.barriers", c "spmd.barriers", "count";
      "spmd.allreduce_bytes", c "spmd.allreduce_bytes", "B";
      "pool.regions", c "pool.regions", "count";
      "pool.barrier_wait_s", get "pool.barrier_wait_ns" *. 1e-9, "s";
      "serve.drain_busy_s", get "serve.busy_s", "s";
      "serve.queue_wait_p50_ms",
      (match get_samples "queue_wait_ms" with [] -> 0. | l -> Stats.median l), "ms";
      "serve.program_hit_ratio", ratio phits (phits +. pmisses), "ratio";
      "serve.batches", c "serve.batches", "count";
      "serve.batch_size_mean",
      ratio (get "serve.batch_members") (get "serve.batch_count"), "count";
      "serve.batched_launches", c "serve.batched_launches", "count";
      "serve.batch_fallbacks", c "serve.batch_fallbacks", "count";
      "serve.rejected", c "serve.rejected", "count";
      "serve.timed_out", c "serve.timed_out", "count";
      "bench.unattributed_frac", ratio (get "op.uncovered_s") op_wall, "ratio";
      "bench.trace_overhead_frac", ratio (op_wall -. untraced_wall) untraced_wall, "ratio";
      "bench.count_mismatches", float_of_int count_mismatches, "count" ]
  @ oracle
