(* Iterative sparse solvers: conjugate gradients with an optional Jacobi
   preconditioner.  Dense direct solves are deliberately absent — meshes
   make SPD sparse systems, and CG is what a production code would reach
   for first. *)

type stats = {
  iterations : int;
  residual : float;   (* relative, ||b - Ax|| / ||b|| *)
  converged : bool;
}

let dot a b =
  let s = ref 0. in
  for i = 0 to Array.length a - 1 do
    s := !s +. (a.(i) *. b.(i))
  done;
  !s

let axpy alpha x y =
  (* y := y + alpha x *)
  for i = 0 to Array.length y - 1 do
    y.(i) <- y.(i) +. (alpha *. x.(i))
  done

let norm2 a = sqrt (dot a a)

(* Preconditioned conjugate gradients; [x] is used as the initial guess
   and overwritten with the solution. *)
let cg ?(precond = true) ?(tol = 1e-10) ?(max_iter = 2000) (a : Csr.t) ~b ~x =
  let n = Array.length b in
  if Csr.nrows a <> n || Array.length x <> n then
    invalid_arg "Solvers.cg: size mismatch";
  let inv_diag =
    if precond then
      Array.map (fun d -> if Float.abs d > 0. then 1. /. d else 1.) (Csr.diagonal a)
    else Array.make n 1.
  in
  let r = Array.make n 0. in
  Csr.spmv a x r;
  for i = 0 to n - 1 do
    r.(i) <- b.(i) -. r.(i)
  done;
  let z = Array.mapi (fun i ri -> inv_diag.(i) *. ri) r in
  let p = Array.copy z in
  let ap = Array.make n 0. in
  let bnorm = Float.max (norm2 b) 1e-300 in
  let rz = ref (dot r z) in
  let iters = ref 0 in
  let res = ref (norm2 r /. bnorm) in
  while !res > tol && !iters < max_iter do
    Csr.spmv a p ap;
    let pap = dot p ap in
    if pap <= 0. then iters := max_iter (* not SPD: bail out *)
    else begin
      let alpha = !rz /. pap in
      axpy alpha p x;
      axpy (-.alpha) ap r;
      for i = 0 to n - 1 do
        z.(i) <- inv_diag.(i) *. r.(i)
      done;
      let rz' = dot r z in
      let beta = rz' /. !rz in
      for i = 0 to n - 1 do
        p.(i) <- z.(i) +. (beta *. p.(i))
      done;
      rz := rz';
      incr iters;
      res := norm2 r /. bnorm
    end
  done;
  { iterations = !iters; residual = !res; converged = !res <= tol }

(* Jacobi iteration — kept for comparison/teaching and as a fallback for
   non-symmetric systems. *)
let jacobi ?(tol = 1e-10) ?(max_iter = 5000) (a : Csr.t) ~b ~x =
  let n = Array.length b in
  let d = Csr.diagonal a in
  let x' = Array.make n 0. in
  let bnorm = Float.max (norm2 b) 1e-300 in
  let iters = ref 0 in
  let res = ref infinity in
  while !res > tol && !iters < max_iter do
    for r = 0 to n - 1 do
      let acc = ref b.(r) in
      Csr.iter_row a r (fun c v -> if c <> r then acc := !acc -. (v *. x.(c)));
      x'.(r) <- !acc /. d.(r)
    done;
    Array.blit x' 0 x 0 n;
    (* true residual *)
    let rvec = Csr.mul a x in
    let rn = ref 0. in
    for i = 0 to n - 1 do
      let e = b.(i) -. rvec.(i) in
      rn := !rn +. (e *. e)
    done;
    res := sqrt !rn /. bnorm;
    incr iters
  done;
  { iterations = !iters; residual = !res; converged = !res <= tol }
