(** Effects-based SPMD executor: a miniature in-process MPI.

    Rank programs are plain functions performing collectives and
    nonblocking point-to-point operations; the scheduler suspends each
    rank where it blocks (capturing its continuation), performs the due
    combination or delivery, and resumes runnable ranks in rank order.
    Execution is deterministic, so distributed solvers can be verified
    bit-for-bit against sequential references.

    Point-to-point semantics: messages are matched by (source,
    destination, tag) in FIFO posting order, as MPI orders matching per
    rank pair and tag.  Matching is eager — the payload is delivered the
    moment both sides are posted — so {!wait} suspends only until the
    counterpart appears, and computation issued between {!isend}/{!irecv}
    and {!wait} genuinely overlaps other ranks' progress. *)

type request
(** Handle to a posted {!isend} or {!irecv}, completed by {!wait}. *)

exception Spmd_error of string
(** Raised on anything that would hang or crash a real MPI run, with the
    offending rank ids and tag in the message: collective mismatches
    (ranks blocked at different collectives, or finished while others
    wait), allreduce length disagreements, send/recv payload length
    mismatches, unmatched isend/irecv at program end, and deadlocks
    (every live rank blocked on something no other rank will provide). *)

val barrier : unit -> unit
(** Block until every rank reaches a barrier. Must be called from inside
    {!run}. *)

val allreduce_sum : float array -> unit
(** Elementwise sum across all ranks, in place: after the call every
    rank's array holds the global sums. Must be called from inside
    {!run}. *)

val isend : dst:int -> tag:int -> float array -> request
(** [isend ~dst ~tag data] posts a nonblocking send of [data] to rank
    [dst].  The payload is snapshotted at post time (an eager buffered
    send), so the caller may overwrite [data] immediately.  Returns at
    once; {!wait} the request to confirm delivery.  Must be called from
    inside {!run}. *)

val irecv : src:int -> tag:int -> float array -> request
(** [irecv ~src ~tag buf] posts a nonblocking receive from rank [src]
    into [buf], whose length must equal the matching send's payload
    length.  [buf] must not be read until {!wait} on the returned
    request completes.  Must be called from inside {!run}. *)

val wait : request -> unit
(** Block until the request's message has been delivered.  Returns
    immediately if it already was; otherwise the rank suspends and other
    ranks run until the counterpart operation is posted. *)

val waitall : request list -> unit
(** {!wait} each request in order. *)

val request_done : request -> bool
(** Whether the request's message has been delivered (no suspension). *)

val suspended_s : unit -> float
(** Seconds the calling rank has spent suspended at collectives and
    waits since {!run} started it — wall time during which other ranks
    ran.  0 outside {!run}.  {!Breakdown.timed} subtracts the part of a
    phase spent suspended and charges it to communication. *)

val run : nranks:int -> (int -> unit) -> unit
(** [run ~nranks program] executes [program rank] for every rank under
    the scheduler and returns when all ranks finish.  Raises
    {!Spmd_error} if any rank can no longer make progress or if posted
    messages are left unmatched at the end.

    Instrumentation: with {!Trace.enable}, each rank's stretches between
    suspension points become [cat:"spmd"] ["compute"] spans on its
    ["spmd rank R"] track; barriers, allreduces, [isend]/[irecv]
    postings, deliveries and already-complete waits are instant markers,
    and a suspended {!wait} becomes a ["wait"] span covering the
    suspension.  With {!Metrics.enable}, [spmd.barriers],
    [spmd.allreduces], [spmd.allreduce_bytes] (8 bytes x length x ranks
    per reduce), [spmd.p2p_msgs], [spmd.p2p_bytes] (8 bytes x length per
    delivered message) and [spmd.waits] are accumulated, and each
    delivery charges {!Cluster.account_p2p}. *)
