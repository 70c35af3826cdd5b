(* Repository benchmark entry point.

     main.exe --workload campaign|sweep|first_contact --seed N
              --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing and metrics
   off.  --trace 1 runs the same operations in several passes, traced
   and untraced (see [traced_run]); the last traced pass gives the
   per-layer metrics, and the traced passes must report identical
   counts.  Every result is checked against the oracle
   (oracle.ml).  The last line of standard output is one JSON object
   {correct, attempted, failed, metrics}; see README.md. *)

let now = Unix.gettimeofday

module type WORKLOAD = sig
  val setups : int  (* set-ups per end-to-end run *)
  val setup : Workloads.env -> int -> Workloads.acc -> unit
  val before_window : Workloads.env -> unit
  val block : Workloads.env -> int -> Workloads.acc -> unit
end

let workloads : (string * (module WORKLOAD)) list =
  [ "campaign", (module Workloads.Campaign);
    "sweep", (module Workloads.Sweep);
    "first_contact", (module Workloads.First_contact) ]

(* Blocks a timed window runs at least.  The peak resident set is read
   after the set-ups and this many blocks, so it does not grow with the
   number of blocks (each loading native code) a host fits in the
   window. *)
let min_blocks = 2

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb -> kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

(* Host seconds [f] took, less the time spent in the oracle. *)
let time_without_oracle f =
  let o0 = !Oracle.spent and t0 = now () in
  f ();
  now () -. t0 -. (!Oracle.spent -. o0)

(* Run blocks until the timed window reaches [seconds] (at least
   [min_blocks]), or exactly [blocks] of them, calling [after_block] with
   the count of blocks run so far after each.  Returns the block count
   and each block's completed operations per second of window. *)
let run_blocks ?(after_block = ignore) (module W : WORKLOAD) env acc ~stop =
  let i = ref 0 and req_rates = ref [] in
  let continue () =
    match stop with
    | `Seconds s -> !i < min_blocks || acc.Workloads.window_s < s
    | `Blocks n -> !i < n
  in
  while continue () do
    let done0 = List.length acc.Workloads.latencies and window0 = acc.Workloads.window_s in
    W.block env !i acc;
    req_rates :=
      float_of_int (List.length acc.Workloads.latencies - done0)
      /. (acc.Workloads.window_s -. window0)
      :: !req_rates;
    incr i;
    after_block !i
  done;
  !i, !req_rates

let observe ~traced =
  Layers.recording := traced;
  if traced then begin
    Prt.Trace.enable ();
    Prt.Metrics.enable ()
  end
  else begin
    Prt.Trace.disable ();
    Prt.Metrics.disable ()
  end

(* Latency samples padded with one entry per failed operation: a failed
   or refused request counts as missing, i.e. as waiting the whole
   window. *)
let with_missing (acc : Workloads.acc) samples =
  samples
  @ List.init acc.Workloads.failed (fun i ->
        Printf.sprintf "failed %d" i, acc.Workloads.window_s)

(* Rates and set-up times are interquartile means over blocks and
   set-ups (see [Stats.iqm]). *)
let end_to_end (acc : Workloads.acc) ~req_rates ~setup_times ~peak_rss =
  let lat p = Stats.typed_percentile p (with_missing acc acc.Workloads.latencies) in
  let first p = Stats.typed_percentile p (with_missing acc acc.Workloads.first_solves) in
  let attempted = float_of_int acc.Workloads.attempted in
  [ "mdof_steps_per_s", Stats.iqm acc.Workloads.block_rates /. 1e6, "Mdof_steps/s";
    "req_per_s", Stats.iqm req_rates, "1/s";
    "latency_p50_ms", lat 50. *. 1e3, "ms";
    "latency_p90_ms", lat 90. *. 1e3, "ms";
    "first_solve_p50_s", first 50., "s";
    "first_solve_p90_s", first 90., "s";
    "setup_s", Stats.iqm setup_times, "s";
    "peak_rss_mb", peak_rss, "MB";
    "completed_frac", (attempted -. float_of_int acc.Workloads.failed) /. attempted, "ratio" ]

let plain_run (module W : WORKLOAD) env ~seconds =
  observe ~traced:false;
  let acc = Workloads.new_acc () in
  let setup_times =
    List.init W.setups (fun k -> time_without_oracle (fun () -> W.setup env k acc))
  in
  W.before_window env;
  let peak_rss = ref nan in
  let blocks, req_rates =
    run_blocks (module W) env acc ~stop:(`Seconds seconds)
      ~after_block:(fun n -> if n = min_blocks then peak_rss := peak_rss_mb ())
  in
  Printf.printf "%d block(s), %d operation(s) in %.2f s measured\n" blocks
    acc.Workloads.attempted acc.Workloads.window_s;
  acc, end_to_end acc ~req_rates ~setup_times ~peak_rss:!peak_rss

(* One pass of the traced run: a fresh set-up, then the blocks. *)
let pass (module W : WORKLOAD) env k ~traced ~stop =
  observe ~traced:false;
  Layers.reset ();
  Oracle.reset_counts ();
  let acc = Workloads.new_acc () in
  W.setup env k acc;
  W.before_window env;
  observe ~traced;
  let blocks, _ = run_blocks (module W) env acc ~stop in
  observe ~traced:false;
  acc, blocks

(* Four passes over the same blocks: an untraced one that fixes how many
   blocks fit in a quarter of the window (and warms the process), a
   traced one, an untraced one timed against the last, traced, one.  The
   two traced passes must report the same counts. *)
let traced_run (module W : WORKLOAD) env ~seconds =
  let _, blocks =
    pass (module W) env 0 ~traced:false ~stop:(`Seconds (seconds /. 4.))
  in
  ignore (pass (module W) env 1 ~traced:true ~stop:(`Blocks blocks));
  let first = Layers.counts () in
  let untraced, _ = pass (module W) env 2 ~traced:false ~stop:(`Blocks blocks) in
  let acc, _ = pass (module W) env 3 ~traced:true ~stop:(`Blocks blocks) in
  let second = Layers.counts () in
  let differing =
    List.filter (fun (name, v) -> List.assoc_opt name first <> Some v) second
  in
  List.iter
    (fun (name, v) ->
      Printf.eprintf "count not repeated: %s = %g then %g\n%!" name
        (Option.value ~default:nan (List.assoc_opt name first)) v)
    differing;
  Printf.printf "%d block(s) per pass; %d count(s) checked for determinism, %d differ\n"
    blocks (List.length second) (List.length differing);
  ( acc,
    Layers.metrics ~untraced_wall:untraced.Workloads.window_s
      ~count_mismatches:(List.length differing) ~oracle:(Oracle.metrics ()),
    differing = [] )

let json_line ~correct ~attempted ~failed metrics =
  Finch.Json.to_string
    (Finch.Json.Obj
       [ "correct", Finch.Json.Bool correct;
         "attempted", Finch.Json.Num (float_of_int attempted);
         "failed", Finch.Json.Num (float_of_int failed);
         "metrics",
         Finch.Json.Obj
           (List.map
              (fun (name, v, unit) ->
                name, Finch.Json.Obj [ "value", Finch.Json.Num v; "unit", Finch.Json.Str unit ])
              metrics) ])

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [ "--workload", Arg.Set_string workload, "NAME campaign, sweep or first_contact";
      "--seed", Arg.Set_int seed, "N input seed";
      "--seconds", Arg.Set_int seconds, "S length of the timed window";
      "--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)" ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (campaign, sweep, first_contact)\n" !workload;
      exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let root =
    List.fold_left Filename.concat (Sys.getcwd ())
      [ "_build"; "perfbench"; Printf.sprintf "run-%d" (Unix.getpid ()) ]
  in
  rm_rf root;
  let env = { Workloads.root; seed = !seed; generation = 0 } in
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () ->
      Workloads.register ();
      let ref_dt = Oracle.check_reference () in
      Printf.printf "oracle vs hand-written reference solver: max |dT| %g K\n" ref_dt;
      let seconds = float_of_int !seconds in
      let acc, metrics, counts_repeat =
        if !trace = 0 then
          let acc, m = plain_run w env ~seconds in
          acc, m, true
        else traced_run w env ~seconds
      in
      Oracle.pp_solution_views stdout;
      let correct = counts_repeat && not !Oracle.any_mismatch in
      print_endline
        (json_line ~correct ~attempted:acc.Workloads.attempted
           ~failed:acc.Workloads.failed metrics))
