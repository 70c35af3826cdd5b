(** Top-level driver — the paper's [solve(I)]: dispatch a configured
    problem to its code-generation target and package the results. *)

type outcome = {
  u : Fvm.Field.t;                      (** gathered unknown after the run *)
  fields : (string * Fvm.Field.t) list;
      (** every variable as a serial run would hold it: on band-split
          runs ([bands:N], [hybrid:RxD]) each band-indexed field is
          gathered from the ranks owning its bands, on cell-parallel runs
          every cell field from its owning ranks; rank 0's view
          otherwise *)
  breakdown : Prt.Breakdown.t;
  gpu : Target_gpu.result option;       (** present for GPU runs *)
  states : Lower.state array;
}

val default_band_index : Problem.t -> string
(** The index split by band-parallel runs when none is given: the last
    declared index. *)

val solve :
  ?band_index:string -> ?post_io:Dataflow.callback_io -> Problem.t -> outcome

val field : outcome -> string -> Fvm.Field.t
