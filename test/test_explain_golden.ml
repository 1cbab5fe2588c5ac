(* Golden tests for plan explanations: every test/golden/explain/NN-name.xq
   (with the same "(: fixture: … :)" header the result-golden corpus uses)
   must render exactly to three paired files:

     NN-name.plan.expected          Explain.query          (the --explain view)
     NN-name.analyze.expected       EXPLAIN ANALYZE, hash strategy
     NN-name.analyze-auto.expected  EXPLAIN ANALYZE, auto strategy (sort fusion)

   The ANALYZE views run with [timings:false] so only deterministic
   fields (rows in/out, groups, comparator calls) appear.  To regenerate
   after an intentional change:

     XQ_EXPLAIN_BLESS=$PWD/test/golden/explain dune exec test/test_main.exe -- test explain-golden *)

open Helpers

let dir = Filename.concat Test_golden.dir "explain"

let bless_dir = Sys.getenv_opt "XQ_EXPLAIN_BLESS"

let check_golden file suffix actual =
  let expected_file = Filename.chop_suffix file ".xq" ^ suffix in
  match bless_dir with
  | Some d ->
    let oc = open_out (Filename.concat d expected_file) in
    output_string oc actual;
    close_out oc
  | None ->
    let expected =
      String.trim (Test_golden.read_file (Filename.concat dir expected_file))
    in
    Alcotest.(check string) expected_file expected (String.trim actual)

let contains_ms s =
  let n = String.length s in
  let rec go i = i + 1 < n && ((s.[i] = 'm' && s.[i + 1] = 's') || go (i + 1)) in
  go 0

let cases =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xq")
    |> List.sort compare
  else []

let explain_tests =
  if cases = [] then
    [ test "explain golden corpus present" (fun () ->
          Alcotest.failf "no explain golden queries under %s (cwd %s)" dir
            (Sys.getcwd ())) ]
  else
    List.map
      (fun file ->
        test file (fun () ->
            (* the goldens pin the default planning, which includes the
               aggregation pushdown — run them with the switch on even
               under an XQ_NO_AGG_PUSHDOWN=1 sweep (whose point is the
               executed outputs, not the explain text) *)
            let config = Xq_governor.Config.resolve ~agg_pushdown:true () in
            let source = Test_golden.read_file (Filename.concat dir file) in
            let data =
              Test_golden.fixture_of_name (Test_golden.fixture_header source)
            in
            let doc = Xq_xml.Xml_parse.parse data in
            let query = Xq.parse source in
            Xq.check query;
            check_golden file ".plan.expected" (Xq_rewrite.Explain.query query);
            List.iter
              (fun (suffix, strategy) ->
                (* degree 1 likewise: analysis runs at the query's degree,
                   and an XQ_PARALLEL=4 sweep would add par=4 *)
                let actual =
                  Xq_rewrite.Explain.analyze_query ~timings:false ~config
                    ~strategy ~parallel:1 ~context_node:doc query
                in
                Alcotest.(check bool)
                  (file ^ suffix ^ " has no timings") false
                  (contains_ms actual);
                check_golden file suffix actual)
              [
                (".analyze.expected", Xq_algebra.Optimizer.Hash);
                (".analyze-auto.expected", Xq_algebra.Optimizer.Auto);
              ]))
      cases

let suites = [ ("explain-golden", explain_tests) ]
