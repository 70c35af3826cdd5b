(* Quickstart: the advection-reaction equation from Section II of the paper,

     du/dt = -k*u - div(b u),

   entered in conservation form as  "-k*u - surface(upwind(b, u))".

   Demonstrates the full DSL pipeline: entity declaration, string input,
   operator expansion, time-stepping transform, term classification,
   generated-source inspection, and a real solve on a 2-D mesh with an
   inflow Dirichlet boundary. *)

open Finch

let () =
  let p = Problem.init "quickstart" in
  Problem.domain p 2;
  Problem.time_stepper p Config.Euler_explicit;
  let mesh = Fvm.Mesh_gen.rectangle ~nx:40 ~ny:40 ~lx:1.0 ~ly:1.0 () in
  Problem.set_mesh p mesh;
  Problem.set_steps p ~dt:2e-3 ~nsteps:150;

  let u = Problem.variable p ~name:"u" () in
  let _k = Problem.coefficient p ~name:"k" (Entity.Const 0.5) in
  let _bx = Problem.coefficient p ~name:"bx" (Entity.Const 1.0) in
  let _by = Problem.coefficient p ~name:"by" (Entity.Const 0.25) in

  (* a blob entering from the left boundary *)
  Problem.initial p u (Problem.Init_const 0.0);
  (* region 4 is the left edge (x = 0): inflow with a bump profile *)
  Problem.boundary p u 4 Config.Dirichlet "exp(-40*(y-0.5)^2)";
  (* bottom/right/top: outflow — prescribe the upwind flux directly using
     the interior value (ghost = interior) *)
  List.iter
    (fun region ->
      Problem.boundary p u region Config.Dirichlet "u")
    [ 1; 2; 3 ];

  let eq = Problem.conservation_form p u "-k*u - surface(upwind([bx;by], u))" in

  print_endline "=== expanded symbolic representation ===";
  print_endline (Transform.report_expanded eq);
  print_endline "\n=== after forward-Euler transform ===";
  print_endline (Transform.report_stepped eq);
  print_endline "\n=== classified terms ===";
  print_endline (Transform.report_classified eq);

  print_endline "\n=== generated CPU code (Julia-like) ===";
  print_endline (Emit_source.to_julia (Ir.build_cpu p));

  let outcome = Solve.solve p in
  let field = outcome.Solve.u in
  let total = Fvm.Field.integral field mesh 0 in
  let maxu = Fvm.Field.max_abs field in
  Printf.printf "after %d steps: integral(u) = %.6f, max(u) = %.6f\n"
    p.Problem.nsteps total maxu;
  Printf.printf "breakdown: %s\n"
    (Format.asprintf "%a" Prt.Breakdown.pp outcome.Solve.breakdown);
  (* downstream profile along y = 0.5 *)
  print_string "profile y=0.5: ";
  for i = 0 to 7 do
    let cell = Fvm.Mesh_gen.cell_at ~nx:40 (i * 5) 20 in
    Printf.printf "%.3f " (Fvm.Field.get field cell 0)
  done;
  print_newline ()
