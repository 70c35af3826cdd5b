(** Process-wide metrics: counters, gauges, and log2-bucket histograms
    with text and JSON dumps.

    Instrumented layers create their handles at module-initialisation
    time, so the well-known names ([halo.bytes], [pool.barrier_wait_ns],
    [gpu.kernel_launches], [spmd.allreduce_bytes], [solve.steps],
    ...) are always registered and appear in dumps even at zero.
    Creation is idempotent — requesting an existing name returns the
    same handle — which is also how consumers read values.  Updates are
    atomic, safe from any domain, and gated on {!enabled}: a disabled
    update costs one atomic load.  Naming conventions live in
    [docs/OBSERVABILITY.md]. *)

type counter
(** A monotonically increasing integer, e.g. bytes moved or launches. *)

type gauge
(** A float that can move both ways, e.g. a pool size or an occupancy. *)

type histogram
(** A log2-bucketed distribution: bucket [i] counts observations [v]
    with [2^(i-1) < v <= 2^i] (bucket 0 takes [v <= 1]), plus exact
    count/sum/max — so e.g. [pool.barrier_wait_ns] yields the number of
    waits, total wait, and tail shape at once. *)

val enable : unit -> unit
(** Switch metric updates on. *)

val disable : unit -> unit
(** Switch metric updates off (values are kept). *)

val enabled : unit -> bool
(** Whether updates are currently recorded.  Sites may check this to
    skip computing expensive update arguments. *)

val counter : string -> counter
(** [counter name] returns the counter registered under [name], creating
    it at zero on first use.
    @raise Invalid_argument if [name] is registered as another kind. *)

val gauge : string -> gauge
(** [gauge name] returns the gauge registered under [name].
    @raise Invalid_argument if [name] is registered as another kind. *)

val histogram : string -> histogram
(** [histogram name] returns the histogram registered under [name].
    @raise Invalid_argument if [name] is registered as another kind. *)

val add : counter -> int -> unit
(** [add c n] increments [c] by [n] (no-op while disabled). *)

val incr : counter -> unit
(** [incr c] is [add c 1]. *)

val value : counter -> int
(** Current value of a counter (readable even while disabled). *)

val set : gauge -> float -> unit
(** [set g x] stores [x] in [g] (no-op while disabled). *)

val gauge_value : gauge -> float
(** Current value of a gauge. *)

val observe : histogram -> float -> unit
(** [observe h v] records one observation (no-op while disabled). *)

val hist_count : histogram -> int
(** Number of observations recorded. *)

val hist_sum : histogram -> float
(** Exact sum of all observations. *)

val hist_max : histogram -> float
(** Largest observation recorded (0 if none). *)

val hist_mean : histogram -> float
(** [hist_sum / hist_count], or 0 with no observations. *)

val hist_bucket : histogram -> int -> int
(** [hist_bucket h i] is the count in log2 bucket [i]. *)

val bucket_of : float -> int
(** The bucket index an observation falls into: smallest [i] with
    [v <= 2^i], clamped to [0 .. 63].  Exposed for tests. *)

val counter_values : unit -> (string * int) list
(** Snapshot of every registered counter, sorted by name.  Diffing two
    snapshots yields the per-operation counter deltas the facade attaches
    to each {!Solve} result; readable even while disabled. *)

val reset_all : unit -> unit
(** Zero every registered metric (registrations are kept). *)

val dump_text : unit -> string
(** Human-readable dump, one line per metric, sorted by name (histograms
    add a second line listing non-empty buckets). *)

val dump_json : unit -> string
(** JSON object keyed by metric name, each value carrying [type] plus
    the kind's fields ([value], or [count]/[sum]/[max]/[buckets]). *)
