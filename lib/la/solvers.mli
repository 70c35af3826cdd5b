(** Iterative sparse solvers: Jacobi-preconditioned conjugate gradients
    (the workhorse for SPD systems from mesh discretizations) and plain
    Jacobi iteration for comparison. *)

type stats = {
  iterations : int;
  residual : float; (** relative: ||b - Ax|| / ||b|| *)
  converged : bool;
}

val dot : float array -> float array -> float
val axpy : float -> float array -> float array -> unit
val norm2 : float array -> float

val cg :
  ?precond:bool -> ?tol:float -> ?max_iter:int -> Csr.t ->
  b:float array -> x:float array -> stats
(** [x] is the initial guess and receives the solution. Bails out (with
    [converged = false]) if the matrix is detected non-SPD. *)

val jacobi :
  ?tol:float -> ?max_iter:int -> Csr.t -> b:float array -> x:float array ->
  stats
