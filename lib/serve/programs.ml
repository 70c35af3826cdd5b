(* Program cache for the serve scheduler: content-hash the naive lowered
   program and memoize the optimized IR plus the analysis verdict, so a
   stream of compatible requests pays the optimize-and-verify pipeline
   once.  The emitted program text is value-independent (coefficients are
   referenced by name), so e.g. a temperature sweep collapses onto one
   entry; anything that changes the program shape (dims, steps, backend,
   opt level, evaluator) is folded in via the request's batch key. *)

let m_hits = Prt.Metrics.counter "serve.program_hits"
let m_misses = Prt.Metrics.counter "serve.program_misses"

type entry = {
  key : string;
  ir : Finch.Ir.node;
  stats : Finch_opt.Opt.stats;
  rejected : int;
  analysis : Finch_analysis.Driver.report;
}

let cache : (string, entry) Hashtbl.t = Hashtbl.create 16

(* The naive (pre-optimizer) program of a configured problem: the same
   tree the analysis gate and the optimizer start from. *)
let naive_source ?post_io (p : Finch.Problem.t) =
  let ir =
    match p.Finch.Problem.target with
    | Finch.Config.Gpu _ ->
      let plan = Finch.Dataflow.plan_for_problem ?post_io p in
      Finch.Ir.build_gpu p ~transfers:(Finch.Dataflow.ir_transfers plan)
    | Finch.Config.Cpu _ -> Finch.Ir.build_cpu p
    | Finch.Config.Auto ->
      invalid_arg "Programs: unresolved auto target (tune before lookup)"
  in
  Finch.Emit_source.to_julia ir

(* The cache key: the digest of the naive program text and the request's
   batch key — the one place the key scheme is written down. *)
let key_of ?post_io (req : Finch.Solve_request.t) (prep : Finch.prepared) =
  let source = naive_source ?post_io prep.Finch.pr_problem in
  Digest.to_hex
    (Digest.string (source ^ "|" ^ Finch.Solve_request.batch_key req))

let build_entry ?post_io ~key (prep : Finch.prepared) =
  let p = prep.Finch.pr_problem in
  let res = Finch_opt.Opt.optimize_problem ?post_io p in
  let report = Finch_analysis.Driver.check_problem ?post_io p in
  { key;
    ir = res.Finch_opt.Opt.ir;
    stats = res.Finch_opt.Opt.stats;
    rejected = List.length res.Finch_opt.Opt.rejected;
    analysis = report }

let lookup ?post_io (req : Finch.Solve_request.t) (prep : Finch.prepared) =
  let key = key_of ?post_io req prep in
  match Hashtbl.find_opt cache key with
  | Some e ->
    Prt.Metrics.incr m_hits;
    e
  | None ->
    Prt.Metrics.incr m_misses;
    let e = build_entry ?post_io ~key prep in
    Hashtbl.add cache key e;
    e

let check_uncached ?post_io (req : Finch.Solve_request.t)
    (prep : Finch.prepared) =
  build_entry ?post_io ~key:(key_of ?post_io req prep) prep

let size () = Hashtbl.length cache
let codegen_programs () = Finch_codegen.Codegen.memo_size ()
let clear () = Hashtbl.reset cache
