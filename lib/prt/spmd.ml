(* Effects-based SPMD executor: a miniature MPI.

   Rank programs are plain functions that perform collectives ([barrier],
   [allreduce_sum]) and nonblocking point-to-point operations ([isend],
   [irecv], [wait]).  The scheduler runs each rank until it suspends
   (capturing its continuation), performs whatever combination or delivery
   is due, and resumes runnable ranks in rank order.  This gives
   deterministic message-passing semantics inside a single process —
   debuggable and bit-identical to a sequential reference — which is how
   the distributed BTE strategies are verified.

   Point-to-point semantics: messages are matched by (source, destination,
   tag) in FIFO posting order, like MPI's ordered matching per rank pair
   and tag.  [isend] snapshots its payload at post time (an eager buffered
   send), so the caller may reuse the array immediately; [irecv]'s buffer
   must not be read until [wait] returns.  Matching is eager: the moment
   both sides are posted, the payload is delivered, so a [wait] suspends
   only when the counterpart has not been posted yet — and a suspended
   wait that can never complete (every other rank blocked or finished) is
   a deadlock, reported as [Spmd_error] naming each blocked rank.

   Collective mismatches (some ranks finished or at a different collective
   while others wait) are detected and reported with the offending rank
   ids, as a real MPI run would deadlock. *)

type request = {
  req_kind : [ `Send | `Recv ];
  req_src : int;
  req_dst : int;
  req_tag : int;
  req_buf : float array;
    (* `Send: snapshot of the payload; `Recv: the caller's buffer *)
  mutable req_done : bool;
}

type _ Effect.t +=
  | Barrier : unit Effect.t
  | Allreduce_sum : float array -> unit Effect.t
      (* in-place elementwise sum across all ranks *)
  | Isend : int * int * float array -> request Effect.t (* dst, tag, data *)
  | Irecv : int * int * float array -> request Effect.t (* src, tag, buf *)
  | Wait : request -> unit Effect.t

exception Spmd_error of string

let barrier () = Effect.perform Barrier
let allreduce_sum a = Effect.perform (Allreduce_sum a)
let isend ~dst ~tag data = Effect.perform (Isend (dst, tag, data))
let irecv ~src ~tag buf = Effect.perform (Irecv (src, tag, buf))
let wait r = Effect.perform (Wait r)
let waitall rs = List.iter wait rs
let request_done r = r.req_done

(* Observability: each uninterrupted stretch of a rank between two
   suspension points is a "compute" span on its "spmd rank R" track;
   collectives and message postings are instant events, and a suspended
   [wait] becomes a "wait" span covering the suspension.  Counters account
   the modelled traffic (an allreduce moves each rank's 8*len payload; a
   delivered message moves 8*len once and is also charged to the
   alpha-beta cluster model via [Cluster.account_p2p]). *)
let m_barriers = Metrics.counter "spmd.barriers"
let m_allreduces = Metrics.counter "spmd.allreduces"
let m_allreduce_bytes = Metrics.counter "spmd.allreduce_bytes"
let m_p2p_msgs = Metrics.counter "spmd.p2p_msgs"
let m_p2p_bytes = Metrics.counter "spmd.p2p_bytes"
let m_waits = Metrics.counter "spmd.waits"

let segment rank f =
  if Trace.enabled () then Trace.span ~cat:"spmd" (Trace.rank rank) "compute" f
  else f ()

(* Seconds the running rank has spent suspended at collectives and waits.
   [run] keeps one accumulator per rank and publishes the running rank's
   in this domain-local slot whenever it resumes one, so a phase timer
   around code that may suspend can subtract the time other ranks ran.
   Outside [run] the slot holds a fresh zero. *)
let suspended_key : float ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0.)

let suspended_s () = !(Domain.DLS.get suspended_key)

type suspended =
  | Running
  | At_barrier of (unit, unit) Effect.Deep.continuation
  | At_allreduce of float array * (unit, unit) Effect.Deep.continuation
  | At_wait of request * (unit, unit) Effect.Deep.continuation
  | Finished

(* Unmatched posted operations, FIFO per (src, dst, tag). *)
type mailbox = (int * int * int, request Queue.t) Hashtbl.t

let mailbox_queue (mb : mailbox) key =
  match Hashtbl.find_opt mb key with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.add mb key q;
    q

let describe_request (r : request) =
  match r.req_kind with
  | `Send ->
    Printf.sprintf "isend from rank %d to rank %d (tag %d, %d values)"
      r.req_src r.req_dst r.req_tag (Array.length r.req_buf)
  | `Recv ->
    Printf.sprintf "irecv on rank %d from rank %d (tag %d)" r.req_dst
      r.req_src r.req_tag

(* Deliver a matched send/recv pair: copy payload, complete both, and
   account the message (metrics + alpha-beta cluster model + trace). *)
let deliver (snd_req : request) (rcv_req : request) =
  let len = Array.length snd_req.req_buf in
  if Array.length rcv_req.req_buf <> len then
    raise
      (Spmd_error
         (Printf.sprintf
            "isend/irecv length mismatch: rank %d -> rank %d (tag %d): send \
             has %d values, recv buffer has %d"
            snd_req.req_src snd_req.req_dst snd_req.req_tag len
            (Array.length rcv_req.req_buf)));
  Array.blit snd_req.req_buf 0 rcv_req.req_buf 0 len;
  snd_req.req_done <- true;
  rcv_req.req_done <- true;
  let bytes = 8 * len in
  Metrics.incr m_p2p_msgs;
  Metrics.add m_p2p_bytes bytes;
  Cluster.account_p2p ~bytes ();
  if Trace.enabled () then
    Trace.instant ~cat:"spmd" (Trace.rank rcv_req.req_dst) "deliver"
      ~args:
        [ "src", float_of_int snd_req.req_src;
          "tag", float_of_int snd_req.req_tag;
          "bytes", float_of_int bytes ]

let run ~nranks (program : int -> unit) =
  if nranks < 1 then invalid_arg "Spmd.run";
  let states = Array.make nranks Running in
  (* per-rank suspended seconds, and the wall-clock time each suspended
     rank stopped at *)
  let suspended = Array.init nranks (fun _ -> ref 0.) in
  let since = Array.make nranks 0. in
  let suspend rank state =
    since.(rank) <- Unix.gettimeofday ();
    states.(rank) <- state
  in
  (* run a rank's segment with its accumulator published *)
  let run_segment rank f =
    Domain.DLS.set suspended_key suspended.(rank);
    segment rank f
  in
  (* resume a suspended rank, charging the suspension to its accumulator *)
  let wake rank k =
    states.(rank) <- Running;
    let acc = suspended.(rank) in
    acc := !acc +. (Unix.gettimeofday () -. since.(rank));
    run_segment rank (fun () -> Effect.Deep.continue k ())
  in
  let sendbox : mailbox = Hashtbl.create 64 in
  let recvbox : mailbox = Hashtbl.create 64 in
  let check_peer op rank peer =
    if peer < 0 || peer >= nranks then
      raise
        (Spmd_error
           (Printf.sprintf "%s on rank %d: peer rank %d outside 0..%d" op rank
              peer (nranks - 1)))
  in
  let post_isend rank dst tag data =
    check_peer "isend" rank dst;
    let req =
      { req_kind = `Send; req_src = rank; req_dst = dst; req_tag = tag;
        req_buf = Array.copy data; req_done = false }
    in
    if Trace.enabled () then
      Trace.instant ~cat:"spmd" (Trace.rank rank) "isend"
        ~args:
          [ "dst", float_of_int dst; "tag", float_of_int tag;
            "bytes", float_of_int (8 * Array.length data) ];
    let key = rank, dst, tag in
    let pending = mailbox_queue recvbox key in
    if Queue.is_empty pending then Queue.push req (mailbox_queue sendbox key)
    else deliver req (Queue.pop pending);
    req
  in
  let post_irecv rank src tag buf =
    check_peer "irecv" rank src;
    let req =
      { req_kind = `Recv; req_src = src; req_dst = rank; req_tag = tag;
        req_buf = buf; req_done = false }
    in
    if Trace.enabled () then
      Trace.instant ~cat:"spmd" (Trace.rank rank) "irecv"
        ~args:[ "src", float_of_int src; "tag", float_of_int tag ];
    let key = src, rank, tag in
    let pending = mailbox_queue sendbox key in
    if Queue.is_empty pending then Queue.push req (mailbox_queue recvbox key)
    else deliver (Queue.pop pending) req;
    req
  in
  let start rank =
    let open Effect.Deep in
    match_with program rank
      {
        retc = (fun () -> states.(rank) <- Finished);
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Barrier ->
              Some
                (fun (k : (a, unit) continuation) ->
                  suspend rank (At_barrier k))
            | Allreduce_sum arr ->
              Some
                (fun (k : (a, unit) continuation) ->
                  suspend rank (At_allreduce (arr, k)))
            | Isend (dst, tag, data) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  continue k (post_isend rank dst tag data))
            | Irecv (src, tag, buf) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  continue k (post_irecv rank src tag buf))
            | Wait req ->
              Some
                (fun (k : (a, unit) continuation) ->
                  Metrics.incr m_waits;
                  if req.req_done then begin
                    if Trace.enabled () then
                      Trace.instant ~cat:"spmd" (Trace.rank rank) "wait"
                        ~args:[ "tag", float_of_int req.req_tag ];
                    continue k ()
                  end
                  else suspend rank (At_wait (req, k)))
            | _ -> None);
      }
  in
  let outer = Domain.DLS.get suspended_key in
  Fun.protect ~finally:(fun () -> Domain.DLS.set suspended_key outer)
  @@ fun () ->
  for r = 0 to nranks - 1 do
    run_segment r (fun () -> start r)
  done;
  let describe_state rank = function
    | Running -> Printf.sprintf "rank %d running" rank
    | At_barrier _ -> Printf.sprintf "rank %d at barrier" rank
    | At_allreduce (a, _) ->
      Printf.sprintf "rank %d at allreduce (%d values)" rank (Array.length a)
    | At_wait (req, _) ->
      Printf.sprintf "rank %d waiting on %s" rank (describe_request req)
    | Finished -> Printf.sprintf "rank %d finished" rank
  in
  let check_unmatched () =
    let leftovers = ref [] in
    let collect (mb : mailbox) =
      Hashtbl.iter
        (fun _ q -> Queue.iter (fun r -> leftovers := r :: !leftovers) q)
        mb
    in
    collect sendbox;
    collect recvbox;
    match
      List.sort
        (fun a b -> compare (a.req_src, a.req_dst, a.req_tag) (b.req_src, b.req_dst, b.req_tag))
        !leftovers
    with
    | [] -> ()
    | rs ->
      raise
        (Spmd_error
           (Printf.sprintf "unmatched at program end: %s"
              (String.concat "; " (List.map describe_request rs))))
  in
  let resume_wait r req k =
    if Trace.enabled () then
      Trace.complete (Trace.rank r) ~cat:"spmd" "wait" ~t0:since.(r)
        ~t1:(Unix.gettimeofday ())
        ~args:
          [ "tag", float_of_int req.req_tag;
            "bytes", float_of_int (8 * Array.length req.req_buf) ];
    wake r k
  in
  let rec drive () =
    (* 1. progress: resume (in rank order) any rank whose waited request
       completed; resumed ranks may deliver further messages, so rescan *)
    let progressed = ref false in
    Array.iteri
      (fun r s ->
        match s with
        | At_wait (req, k) when req.req_done ->
          progressed := true;
          resume_wait r req k
        | _ -> ())
      states;
    if !progressed then drive ()
    else begin
      (* 2. no runnable wait: all remaining ranks sit at collectives (or
         are stuck).  Classify. *)
      let barriers = ref [] and reduces = ref [] in
      let nfinished = ref 0 and nwaiting = ref 0 in
      Array.iteri
        (fun r s ->
          match s with
          | At_barrier k -> barriers := (r, k) :: !barriers
          | At_allreduce (a, k) -> reduces := (r, a, k) :: !reduces
          | At_wait _ -> incr nwaiting
          | Finished -> incr nfinished
          | Running -> raise (Spmd_error "internal: rank still marked running"))
        states;
      if !nfinished = nranks then check_unmatched ()
      else begin
        (match List.rev !barriers, List.rev !reduces with
         | bs, [] when List.length bs = nranks ->
           Metrics.incr m_barriers;
           List.iter
             (fun (r, k) ->
               if Trace.enabled () then
                 Trace.instant ~cat:"spmd" (Trace.rank r) "barrier";
               wake r k)
             bs
         | [], rs when List.length rs = nranks ->
           (match rs with
            | [] -> ()
            | (r0, first, _) :: rest ->
              let len = Array.length first in
              List.iter
                (fun (r, a, _) ->
                  if Array.length a <> len then
                    raise
                      (Spmd_error
                         (Printf.sprintf
                            "allreduce length mismatch: rank %d has %d \
                             values, rank %d has %d"
                            r (Array.length a) r0 len)))
                rest;
              let acc = Array.make len 0. in
              List.iter
                (fun (_, a, _) ->
                  for i = 0 to len - 1 do
                    acc.(i) <- acc.(i) +. a.(i)
                  done)
                rs;
              List.iter (fun (_, a, _) -> Array.blit acc 0 a 0 len) rs;
              Metrics.incr m_allreduces;
              Metrics.add m_allreduce_bytes (8 * len * nranks));
           List.iter
             (fun (r, a, k) ->
               if Trace.enabled () then
                 Trace.instant ~cat:"spmd" (Trace.rank r) "allreduce"
                   ~args:[ "bytes", float_of_int (8 * Array.length a) ];
               wake r k)
             rs
         | _ ->
           (* mixed collectives, or waits that can never complete: every
              live rank is blocked on something no other rank will
              provide — a deadlock.  Name each blocked rank. *)
           let blocked =
             Array.to_list
               (Array.mapi
                  (fun r s ->
                    match s with
                    | Finished -> None
                    | s -> Some (describe_state r s))
                  states)
             |> List.filter_map Fun.id
           in
           raise
             (Spmd_error
                (Printf.sprintf
                   "deadlock (%d of %d ranks finished): %s"
                   !nfinished nranks
                   (String.concat "; " blocked))));
        drive ()
      end
    end
  in
  drive ()
