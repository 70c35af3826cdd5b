(** Hybrid CPU/GPU code-generation target (paper Sec. II-B, Fig. 6).

    Per step: async interior kernel on the simulated device (one thread
    per DOF, flattened loops, boundary faces skipped) → CPU boundary
    callbacks overlapping it → synchronize, download, combine → host
    post-step → re-upload of the variables the data-movement plan marks
    as per-step device inputs. Kernels really execute on device buffers
    (distinct memory), so the numerics are testable against the CPU
    targets; timings come from the roofline model. *)

exception Gpu_error of string

type result = {
  state : Lower.state;         (** host-side state *)
  device : Gpu_sim.Memory.device;
  breakdown : Prt.Breakdown.t; (** modelled GPU/transfers + real CPU time *)
  plan : Dataflow.plan;
  profile_threads : int;       (** grid size, for the profiler report *)
}

val run_single :
  ?post_io:Dataflow.callback_io -> ?info:Lower.rankinfo ->
  ?allreduce:(float array -> unit) -> ?overlap:bool -> spec:Gpu_sim.Spec.t ->
  Problem.t -> result
(** One (device, rank) pair; [info] restricts it to a band slice.  With
    [~overlap:true] the per-step transfers run on a second (copy) stream
    against a double-buffered unknown: the result download is enqueued
    behind the kernel and overlaps the boundary host work, next-step
    uploads stay in flight until the following launch joins them.
    Numerics are bit-identical; only the modelled timeline and the
    Communication share of the breakdown change. *)

val run_multi :
  ?post_io:Dataflow.callback_io -> ?overlap:bool -> spec:Gpu_sim.Spec.t ->
  ranks:int -> Problem.t -> result * result array
(** Band-partitioned multi-device run under the SPMD runtime; the first
    component has rank 0's state, every field gathered from its band
    owners ({!Target_cpu.gather_bands}: the unknown, Io, beta read as in
    a single-device run), and the summed breakdown. *)

val run : ?post_io:Dataflow.callback_io -> Problem.t -> result
(** Dispatch on the problem's GPU target (ranks <= 1: single device).
    Raises {!Gpu_error} if the target is not a GPU. *)
