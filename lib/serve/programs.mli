(** Program cache: content-hash a request's lowered program to reuse the
    optimized IR and its analysis verdict across requests.

    The key is the digest of the naive program's emitted text (which is
    value-independent — coefficients appear by name, so a temperature
    sweep hashes identically) combined with the request's
    {!Finch.Solve_request.batch_key} (dimensions, step count, backend,
    optimizer level, evaluator).  A hit skips the per-request
    optimize-and-verify pipeline entirely; a miss runs
    [Finch_opt.Opt.optimize_problem] plus the
    [Finch_analysis.Driver.check_problem] gate once and memoizes both.
    Native-mode compiled objects are additionally reused one level down
    by the [finch_codegen] memo, whose occupancy {!codegen_programs}
    reports.

    Counters: [serve.program_hits] / [serve.program_misses]. *)

type entry = {
  key : string;  (** content hash; equal keys ⇒ co-batchable programs *)
  ir : Finch.Ir.node;  (** the optimized program *)
  stats : Finch_opt.Opt.stats;  (** accepted-rewrite counts *)
  rejected : int;  (** optimizer passes vetoed by the analyses *)
  analysis : Finch_analysis.Driver.report;  (** the verification verdict *)
}

val key_of :
  ?post_io:Finch.Dataflow.callback_io ->
  Finch.Solve_request.t ->
  Finch.prepared ->
  string
(** The cache key of a prepared request (no optimization is run). *)

val lookup :
  ?post_io:Finch.Dataflow.callback_io ->
  Finch.Solve_request.t ->
  Finch.prepared ->
  entry
(** Fetch or build the entry for a prepared request, bumping the
    hit/miss counters. *)

val check_uncached :
  ?post_io:Finch.Dataflow.callback_io ->
  Finch.Solve_request.t ->
  Finch.prepared ->
  entry
(** Run the optimize-and-verify pipeline without consulting or filling
    the cache (the unbatched baseline's per-request cost; no counters
    are touched). *)

val size : unit -> int
(** Number of cached programs. *)

val codegen_programs : unit -> int
(** Occupancy of the [finch_codegen] in-process memo — the compiled
    native objects reused under this cache. *)

val clear : unit -> unit
(** Drop all entries (counters are kept). *)
