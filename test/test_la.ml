(* Sparse linear algebra: CSR construction and products, and the CG and
   Jacobi solvers. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- CSR ---------- *)

let test_csr_triplets () =
  let m =
    La.Csr.of_triplets ~nrows:3 ~ncols:3
      [ 0, 0, 1.; 0, 0, 2.; 1, 2, 5.; 2, 1, -1.; 2, 2, 4.; 1, 2, 0. ]
  in
  check_int "nnz after merge" 4 (La.Csr.nnz m);
  Tutil.check_close "duplicates summed" 3. (La.Csr.get m 0 0);
  Tutil.check_close "entry" 5. (La.Csr.get m 1 2);
  Tutil.check_close "missing entry is zero" 0. (La.Csr.get m 1 0);
  Alcotest.(check (array (float 0.))) "diagonal" [| 3.; 0.; 4. |] (La.Csr.diagonal m)

let test_csr_spmv () =
  let m = La.Csr.of_triplets ~nrows:2 ~ncols:3 [ 0, 0, 1.; 0, 2, 2.; 1, 1, 3. ] in
  let y = La.Csr.mul m [| 1.; 2.; 3. |] in
  Alcotest.(check (array (float 1e-12))) "Ax" [| 7.; 6. |] y

let test_csr_validation () =
  match La.Csr.of_triplets ~nrows:2 ~ncols:2 [ 2, 0, 1. ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range triplet must be rejected"

let test_csr_symmetry () =
  let sym = La.Csr.of_triplets ~nrows:2 ~ncols:2 [ 0, 1, 2.; 1, 0, 2.; 0, 0, 1.; 1, 1, 1. ] in
  check_bool "symmetric" true (La.Csr.is_symmetric sym);
  let asym = La.Csr.of_triplets ~nrows:2 ~ncols:2 [ 0, 1, 2.; 1, 0, 1. ] in
  check_bool "asymmetric" false (La.Csr.is_symmetric asym)

(* ---------- solvers ---------- *)

let laplace_1d n =
  (* tridiagonal SPD [2 -1] of size n *)
  let triplets = ref [] in
  for i = 0 to n - 1 do
    triplets := (i, i, 2.) :: !triplets;
    if i > 0 then triplets := (i, i - 1, -1.) :: !triplets;
    if i < n - 1 then triplets := (i, i + 1, -1.) :: !triplets
  done;
  La.Csr.of_triplets ~nrows:n ~ncols:n !triplets

let test_cg_solves () =
  let n = 50 in
  let a = laplace_1d n in
  let x_true = Array.init n (fun i -> sin (float_of_int i /. 7.)) in
  let b = La.Csr.mul a x_true in
  let x = Array.make n 0. in
  let stats = La.Solvers.cg a ~b ~x in
  check_bool "converged" true stats.La.Solvers.converged;
  check_bool "few iterations" true (stats.La.Solvers.iterations <= n);
  Array.iteri
    (fun i v -> Tutil.check_close ~eps:1e-7 "solution" x_true.(i) v)
    x

let test_cg_vs_jacobi () =
  let n = 30 in
  let a = laplace_1d n in
  let b = Array.make n 1. in
  let x1 = Array.make n 0. and x2 = Array.make n 0. in
  let s1 = La.Solvers.cg a ~b ~x:x1 in
  let s2 = La.Solvers.jacobi ~max_iter:20000 ~tol:1e-8 a ~b ~x:x2 in
  check_bool "both converge" true
    (s1.La.Solvers.converged && s2.La.Solvers.converged);
  check_bool "cg much faster" true
    (s1.La.Solvers.iterations * 5 < s2.La.Solvers.iterations);
  Array.iteri (fun i v -> Tutil.check_close ~eps:1e-5 "agree" x1.(i) v) x2

let suite =
  ( "la",
    [
      Alcotest.test_case "csr triplets" `Quick test_csr_triplets;
      Alcotest.test_case "csr spmv" `Quick test_csr_spmv;
      Alcotest.test_case "csr validation" `Quick test_csr_validation;
      Alcotest.test_case "csr symmetry" `Quick test_csr_symmetry;
      Alcotest.test_case "cg solves" `Quick test_cg_solves;
      Alcotest.test_case "cg vs jacobi" `Quick test_cg_vs_jacobi;
    ] )
