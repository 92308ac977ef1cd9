let () =
  Alcotest.run "chase"
    [
      ("logic", Test_logic.suite);
      ("parser", Test_parser.suite);
      ("parser-fuzz", Test_parser_fuzz.suite);
      ("query", Test_query.suite);
      ("egd", Test_egd.suite);
      ("core-model", Test_core_model.suite);
      ("internals", Test_internals.suite);
      ("data-files", Test_data_files.suite);
      ("sequence", Test_sequence.suite);
      ("report", Test_report.suite);
      ("classify", Test_classify.suite);
      ("engine", Test_engine.suite);
      ("plan-props", Test_plan_props.suite);
      ("differential", Test_differential.suite);
      ("concurrency", Test_concurrency.suite);
      ("metamorphic", Test_metamorphic.suite);
      ("faults", Test_faults.suite);
      ("persist", Test_persist.suite);
      ("acyclicity", Test_acyclicity.suite);
      ("extended-acyclicity", Test_extended_acyclicity.suite);
      ("flow", Test_flow.suite);
      ("theorems", Test_theorems.suite);
      ("lasso", Test_lasso.suite);
      ("lint", Test_lint.suite);
      ("reductions", Test_reductions.suite);
      ("model-theory", Test_model_theory.suite);
      ("obs", Test_obs.suite);
      ("trace", Test_trace.suite);
      ("service", Test_service.suite);
      ("service-chaos", Test_service_chaos.suite);
      ("replica", Test_replica.suite);
    ]
