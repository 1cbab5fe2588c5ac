(* Aggregated alcotest runner for all suites. *)

let () =
  Alcotest.run "xqgroup"
    (List.concat
       [
         Test_xdm.suites;
         Test_xml.suites;
         Test_lang.suites;
         Test_eval.suites;
         Test_flwor.suites;
         Test_paper.suites;
         Test_rewrite.suites;
         Test_extensions.suites;
         Test_algebra.suites;
         Test_use_cases.suites;
         Test_golden.suites;
         Test_explain_golden.suites;
         Test_tutorial.suites;
         Test_conformance.suites;
         Test_window.suites;
         Test_bench_queries.suites;
         Test_workload.suites;
         Test_props.suites;
         Test_key.suites;
         Test_strategies.suites;
         Test_par.suites;
         Test_governor.suites;
         Test_spill.suites;
         Test_agg.suites;
         Test_corpus.suites;
         Test_fuzz.suites;
         Test_stream.suites;
         Test_projection.suites;
         Test_server.suites;
         Test_lifecycle.suites;
       ])
