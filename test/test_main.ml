(* Entry point assembling every suite; run with `dune runtest`. *)

let () =
  Alcotest.run "finch-bte"
    [
      Test_expr.suite;
      Test_parser.suite;
      Test_diff.suite;
      Test_mesh.suite;
      Test_gmsh.suite;
      Test_partition.suite;
      Test_field.suite;
      Test_gpu.suite;
      Test_prt.suite;
      Test_trace.suite;
      Test_pool.suite;
      Test_pipeline.suite;
      Test_problem.suite;
      Test_eval.suite;
      Test_ir.suite;
      Test_analysis.suite;
      Test_solver.suite;
      Test_bte_physics.suite;
      Test_bte_solver.suite;
      Test_opt.suite;
      Test_perfmodel.suite;
      Test_la.suite;
      Test_codegen.suite;
      Test_serve.suite;
      Test_tune.suite;
    ]
