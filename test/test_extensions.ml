(* Tests for the features beyond the paper's core proposal:
   fn:doc / fn:collection, the count clause (XQuery 3.0 lineage), the
   count optimization (paper Section 3.1's "count a literal 1", done by
   the aggregate pushdown), and the plan explainer. *)

open Xq_lang
open Helpers

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* --- fn:doc and fn:collection -------------------------------------------- *)

let doc_of s = Xq_xml.Xml_parse.parse s

let run_with ?documents ?collections ?default_collection q =
  let empty = doc_of "<empty/>" in
  Xq_xml.Serialize.sequence
    (Xq_algebra.Exec.eval_query ?documents ?collections ?default_collection
       ~context_node:empty (Parser.parse_query q))

let doc_tests =
  [
    test "doc() fetches a registered document" (fun () ->
        let d = doc_of "<a><b>1</b></a>" in
        check_string "fetch" "1"
          (run_with ~documents:[ ("books.xml", d) ]
             "string(doc(\"books.xml\")/a/b)"));
    test "doc() on an unknown uri is an error" (fun () ->
        match run_with "doc(\"nope.xml\")" with
        | _ -> Alcotest.fail "expected FORG0001"
        | exception Xq_xdm.Xerror.Error (Xq_xdm.Xerror.FORG0001, _) -> ());
    test "collection() returns the default collection" (fun () ->
        let d1 = doc_of "<o><v>1</v></o>" and d2 = doc_of "<o><v>2</v></o>" in
        check_string "sum over collection" "3"
          (run_with ~default_collection:[ d1; d2 ] "sum(collection()//v)"));
    test "named collections" (fun () ->
        let d1 = doc_of "<o><v>5</v></o>" in
        check_string "named" "5"
          (run_with
             ~collections:[ ("orders", [ d1 ]) ]
             "sum(collection(\"orders\")//v)"));
    test "the paper's experiment shape: group over a collection" (fun () ->
        (* Section 6 runs over a collection of order documents *)
        let orders =
          List.map doc_of
            [ "<order><lineitem><a>X</a></lineitem><lineitem><a>Y</a></lineitem></order>";
              "<order><lineitem><a>X</a></lineitem></order>" ]
        in
        check_string "grouped collection" "X:2 Y:1"
          (run_with ~default_collection:orders
             "for $l in collection()/order/lineitem group by $l/a into $a \
              nest $l into $ls order by string($a) return concat($a, \":\", \
              count($ls))"));
  ]

(* --- the count clause ------------------------------------------------------ *)

let count_tests =
  [
    test "count numbers the tuple stream at its position" (fun () ->
        check_query ~data:"<r/>"
          "for $x in (10, 20, 30) count $c return $c" "1 2 3" "basic";
        check_query ~data:"<r/>"
          "for $x in (30, 10, 20) count $c order by $x return $c"
          "2 3 1" "before sort");
    test "count after where numbers the filtered stream" (fun () ->
        check_query ~data:"<r/>"
          "for $x in (5, 6, 7, 8) where $x mod 2 = 0 count $c return \
           concat($c, \":\", $x)"
          "1:6 2:8" "filtered");
    test "count in the post-group section numbers groups" (fun () ->
        check_query ~data:"<r><v>a</v><v>b</v><v>a</v></r>"
          "for $v in //v group by string($v) into $k count $c order by $k \
           return concat($c, \"=\", $k)"
          "1=a 2=b" "groups numbered");
    test "count variable participates in scoping" (fun () ->
        match
          Static.check_query
            (Parser.parse_query
               "for $x in (1) count $c group by $x into $k return $c")
        with
        | () -> Alcotest.fail "expected XQST0094: $c hidden after group by"
        | exception Xq_xdm.Xerror.Error (Xq_xdm.Xerror.XQST0094, _) -> ());
    test "count clause round-trips through the pretty-printer" (fun () ->
        let q = "for $x in (1, 2) count $c return $c" in
        let ast = Parser.parse_query q in
        check_bool "reparse" true
          (Parser.parse_query (Pretty.query ast) = ast));
    test "count() function still works in clause-adjacent positions" (fun () ->
        check_query ~data:"<r><v/><v/></r>"
          "for $x in (1) let $n := count(//v) return $n" "2" "fn count");
  ]

(* --- the count optimization -------------------------------------------------- *)

let opt_query =
  "for $l in //lineitem group by $l/a into $a nest $l into $items order by \
   string($a) return <r>{string($a), count($items)}</r>"

let unsafe_query =
  (* $items also serialized — not only counted — must NOT be folded *)
  "for $l in //lineitem group by $l/a into $a nest $l into $items order by \
   string($a) return <r>{count($items)}{$items}</r>"

let multi_valued_query =
  (* nest expr is a path, possibly ≠1 per tuple: count counts values *)
  "for $l in //lineitem group by $l/a into $a nest $l/b into $bs order by \
   string($a) return <r>{count($bs)}</r>"

let litedata =
  "<o><lineitem><a>X</a><b>1</b><b>2</b></lineitem>\
   <lineitem><a>X</a></lineitem><lineitem><a>Y</a><b>3</b></lineitem></o>"

(* Section 3.1's "count a literal 1" is the plan's aggregate pushdown: a
   nest variable only fn:count reads folds into a per-group counter
   instead of materializing its members. [pushed] is the number of
   aggregate kinds folded into the FLWOR's grouping operator. *)
let pushed body =
  match Parser.parse_expr body with
  | Ast.Flwor f ->
    Xq_algebra.Optimizer.agg_pushdown_count
      (Xq_algebra.Exec.plan_flwor ~config:Xq_governor.Config.default f)
  | _ -> 0

let run_pushed enabled q =
  Xq_xml.Serialize.sequence
    (Xq_algebra.Exec.run_string ~config:(pushdown enabled)
       ~context_node:(Xq_xml.Xml_parse.parse litedata) q)

let count_opt_tests =
  [
    test "safe nest-of-for-variable count is folded by the pushdown" (fun () ->
        Alcotest.(check int) "folded" 1 (pushed opt_query));
    test "nest used beyond count() is left alone" (fun () ->
        Alcotest.(check int) "not folded" 0 (pushed unsafe_query));
    test "multi-valued nest expression is folded as a value count" (fun () ->
        Alcotest.(check int) "folded" 1 (pushed multi_valued_query);
        check_string "value counts" "<r>2</r><r>1</r>"
          (run_pushed true multi_valued_query));
    test "optimization preserves results" (fun () ->
        let plain = run_pushed false opt_query in
        let opt = run_pushed true opt_query in
        check_string "same" plain opt;
        check_string "values" "<r>X 2</r><r>Y 1</r>" opt);
    test "counting a multi-valued nest counts values, not tuples" (fun () ->
        (* X has 2 b's from one lineitem, 0 from the other *)
        check_query ~data:litedata multi_valued_query
          "<r>2</r><r>1</r>" "value counts");
  ]

(* --- the plan explainer ------------------------------------------------------- *)

let contains s sub =
  let n = String.length sub in
  let rec scan i =
    i + n <= String.length s && (String.sub s i n = sub || scan (i + 1))
  in
  scan 0

let explain_tests =
  [
    test "hash grouping is reported" (fun () ->
        let plan = Xq_rewrite.Explain.expr (Parser.parse_expr opt_query) in
        check_bool "hash" true (contains plan "HASH GROUP");
        check_bool "nest listed" true (contains plan "NEST"));
    test "using functions force a scan group" (fun () ->
        let q =
          "declare function local:eq($a as item()*, $b as item()*) as \
           xs:boolean { deep-equal($a, $b) }; for $l in //l group by $l/a \
           into $a using local:eq return $a"
        in
        let plan = Xq_rewrite.Explain.query (Parser.parse_query q) in
        check_bool "scan" true (contains plan "SCAN GROUP"));
    test "count-optimized nests are flagged by EXPLAIN ANALYZE" (fun () ->
        let out =
          Xq_rewrite.Explain.analyze_query ~timings:false
            ~config:(pushdown true) ~parallel:1
            ~context_node:(doc_of litedata) (Parser.parse_query opt_query)
        in
        check_bool "flagged" true (contains out "agg-pushdown=1"));
    test "implicit idiom is flagged for rewrite" (fun () ->
        let q =
          "for $a in distinct-values(//l/a) let $items := //l[a = $a] return \
           count($items)"
        in
        let plan = Xq_rewrite.Explain.expr (Parser.parse_expr q) in
        check_bool "note" true (contains plan "implicit-grouping idiom"));
    test "scalar expressions explain to a stub" (fun () ->
        check_bool "stub" true
          (contains (Xq_rewrite.Explain.expr (Parser.parse_expr "1 + 2")) "no FLWOR"));
  ]

let suites =
  [
    ("ext.doc-collection", doc_tests);
    ("ext.count-clause", count_tests);
    ("ext.count-optimization", count_opt_tests);
    ("ext.explain", explain_tests);
  ]
