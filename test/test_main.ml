let () =
  Alcotest.run "r2c2"
    (List.concat
       [
         Test_util.suites;
         Test_topology.suites;
         Test_routing.suites;
         Test_wire.suites;
         Test_congestion.suites;
         Test_incremental.suites;
         Test_broadcast.suites;
         Test_workload.suites;
         Test_sim.suites;
         Test_emu.suites;
         Test_genetic.suites;
         Test_stack.suites;
         Test_failure.suites;
         Test_controlloss.suites;
         Test_robustness.suites;
         Test_replicas.suites;
         Test_overload.suites;
         Test_integration.suites;
         Test_lint.suites;
         Test_lint_life.suites;
         Test_lint_typed.suites;
         Test_lint_effects.suites;
       ])
