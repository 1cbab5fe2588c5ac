(* The XQuery 3.0 window clause — the standardized successor of the
   paper's moving-window idiom (Section 3.4.1 / Q8). Tumbling and sliding
   semantics, variable scoping, pretty-printing, algebra execution, and
   Q8 re-expressed with windows. *)

open Xq_lang
open Helpers

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let q query expected name = check_query ~data:"<r/>" query expected name

let tumbling_tests =
  [
    test "tumbling by start predicate partitions the input" (fun () ->
        q "for tumbling window $w in (1 to 10) start at $s when $s mod 3 = 1 \
           return sum($w)"
          "6 15 24 10" "thirds");
    test "tumbling windows cover every item exactly once" (fun () ->
        q "sum(for tumbling window $w in (1 to 10) start at $s when $s mod 4 \
           = 1 return count($w))"
          "10" "partition");
    test "tumbling with an end delimiter" (fun () ->
        q "for tumbling window $w in (1, 2, 9, 3, 4, 9, 5) start when true() \
           end $e when $e = 9 return count($w)"
          "3 3 1" "delimited");
    test "tumbling only-end drops the unfinished tail" (fun () ->
        q "for tumbling window $w in (1, 2, 9, 3, 4, 9, 5) start when true() \
           only end $e when $e = 9 return count($w)"
          "3 3" "only end");
    test "tumbling skips items before the first start" (fun () ->
        q "for tumbling window $w in (5, 1, 5, 5, 1, 5) start $x when $x = 1 \
           return count($w)"
          "3 2" "leading skipped");
    test "start item/prev/next variables" (fun () ->
        q "for tumbling window $w in (10, 20, 30, 40) start $cur at $p \
           previous $prev next $nxt when $p mod 2 = 1 return \
           concat($cur, \"/\", ($prev, 0)[1], \"/\", ($nxt, 0)[1])"
          "10/0/20 30/20/40" "boundary vars");
    test "no windows when start never fires" (fun () ->
        q "count(for tumbling window $w in (1 to 5) start when false() return $w)"
          "0" "no start");
    test "window over empty source" (fun () ->
        q "count(for tumbling window $w in () start when true() return 1)"
          "0" "empty");
  ]

let sliding_tests =
  [
    test "sliding windows overlap" (fun () ->
        q "for sliding window $w in (1 to 5) start at $s when true() only \
           end at $e when $e - $s = 1 return sum($w)"
          "3 5 7 9" "pairs");
    test "sliding without only keeps truncated tails" (fun () ->
        q "for sliding window $w in (1 to 4) start at $s when true() end at \
           $e when $e - $s = 1 return sum($w)"
          "3 5 7 4" "tail kept");
    test "sliding start predicate filters window origins" (fun () ->
        q "for sliding window $w in (1 to 6) start $x when $x mod 2 = 0 only \
           end at $e previous $p when $e - 1 = 0 return 1"
          "" "never-ending ends dropped");
    test "sliding moving sum of width three" (fun () ->
        q "for sliding window $w in (1, 2, 3, 4, 5) start at $s when true() \
           only end at $e when $e - $s = 2 return sum($w)"
          "6 9 12" "width 3");
    test "end condition sees start variables" (fun () ->
        q "for sliding window $w in (1 to 6) start $first at $s when $first \
           mod 2 = 1 only end at $e when $e = $s + 1 return sum($w)"
          "3 7 11" "start vars in end");
  ]

let scoping_tests =
  [
    test "window variables visible downstream" (fun () ->
        q "for tumbling window $w in (1 to 6) start $f at $s when $s mod 3 = \
           1 let $n := count($w) order by $n return concat($f, \":\", $n)"
          "1:3 4:3" "downstream");
    test "window vars are hidden after group by (3.2 applies)" (fun () ->
        match
          Static.check_query
            (Parser.parse_query
               "for tumbling window $w in (1 to 6) start when true() group \
                by 1 into $k return count($w)")
        with
        | () -> Alcotest.fail "expected XQST0094"
        | exception Xq_xdm.Xerror.Error (Xq_xdm.Xerror.XQST0094, _) -> ());
    test "condition variables not visible outside their condition" (fun () ->
        match
          Static.check_query
            (Parser.parse_query
               "for tumbling window $w in (1 to 3) start when $nope return 1")
        with
        | () -> Alcotest.fail "expected XPST0008"
        | exception Xq_xdm.Xerror.Error (Xq_xdm.Xerror.XPST0008, _) -> ());
    test "window clause round-trips through the pretty-printer" (fun () ->
        List.iter
          (fun src ->
            let ast = Parser.parse_query src in
            check_bool src true (Parser.parse_query (Pretty.query ast) = ast))
          [ "for tumbling window $w in (1 to 9) start $f at $s previous $p \
             next $n when true() end $l at $e when $e > $s return sum($w)";
            "for sliding window $w in //v start when true() only end when \
             false() return $w" ]);
  ]

let error_tests =
  [
    test "window without start is a parse error" (fun () ->
        match Parser.parse_query "for tumbling window $w in (1) return 1" with
        | _ -> Alcotest.fail "expected XPST0003"
        | exception Xq_xdm.Xerror.Error (Xq_xdm.Xerror.XPST0003, _) -> ());
    test "tumbling must be followed by 'window'" (fun () ->
        match Parser.parse_query "for tumbling $w in (1) start when true() return 1" with
        | _ -> Alcotest.fail "expected XPST0003"
        | exception Xq_xdm.Xerror.Error (Xq_xdm.Xerror.XPST0003, _) -> ());
    test "window clause may not follow group by" (fun () ->
        match
          Static.check_query
            (Parser.parse_query
               "for $x in (1, 2) group by $x into $k for tumbling window $w                 in (1 to 4) start when true() return $k")
        with
        | _ -> Alcotest.fail "expected XPST0003"
        | exception Xq_xdm.Xerror.Error (Xq_xdm.Xerror.XPST0003, _) -> ());
    test "'only' without end is a parse error" (fun () ->
        match
          Parser.parse_query
            "for sliding window $w in (1) start when true() only return 1"
        with
        | _ -> Alcotest.fail "expected XPST0003"
        | exception Xq_xdm.Xerror.Error (Xq_xdm.Xerror.XPST0003, _) -> ());
  ]

let q8_window =
  {|for $s in //sale
    group by $s/region into $region
    nest $s order by $s/timestamp into $rs
    order by string($region)
    return
      <region name="{string($region)}">
        {for sliding window $w in $rs
         start $cur at $i when true()
         end at $e when $e - $i = 3
         return
           <sale>
             <amount>{$cur/quantity * $cur/price}</amount>
             <with-next-three>{sum($w/(quantity * price))}</with-next-three>
           </sale>}
      </region>|}

let integration_tests =
  [
    test "Q8 as a window clause over ordered nests" (fun () ->
        (* East sales in time order: 12.00, 30.00, 69.93 *)
        check_query ~data:sales
          (Printf.sprintf
             "for $x in (%s)[@name = \"East\"]/sale return string($x/with-next-three)"
             q8_window)
          "111.93 99.93 69.93" "east windows");
    test "algebra executes window plans identically" (fun () ->
        let doc = Xq_xml.Xml_parse.parse sales in
        let direct =
          Xq_xml.Serialize.sequence (reference_run ~context_node:doc q8_window)
        in
        let algebra =
          Xq_xml.Serialize.sequence
            (Xq_algebra.Exec.run_string ~context_node:doc q8_window)
        in
        check_string "agree" direct algebra);
    test "windows inside the plan explainer and plan printer" (fun () ->
        let src =
          "for tumbling window $w in (1 to 9) start at $s when $s mod 3 = 1 \
           return sum($w)"
        in
        let contains s sub =
          let n = String.length sub in
          let rec scan i =
            i + n <= String.length s && (String.sub s i n = sub || scan (i + 1))
          in
          scan 0
        in
        (match Parser.parse_expr src with
         | Ast.Flwor f ->
           check_bool "plan" true
             (contains
                (Xq_algebra.Plan.to_string (Xq_algebra.Plan.of_flwor f))
                "WINDOW-TUMBLING")
         | _ -> Alcotest.fail "not a flwor");
        check_bool "explain" true
          (contains (Xq_rewrite.Explain.expr (Parser.parse_expr src)) "WINDOW"));
    test "optimizer leaves window pipelines intact and correct" (fun () ->
        let doc = Xq_xml.Xml_parse.parse "<r/>" in
        let src =
          "for tumbling window $w in (1 to 12) start at $s when $s mod 4 = 1 \
           let $total := sum($w) where $total > 10 return $total"
        in
        check_string "optimize"
          (Xq_xml.Serialize.sequence
             (Xq_algebra.Exec.run_string ~context_node:doc src))
          (Xq_xml.Serialize.sequence
             (Xq_algebra.Exec.run_string ~optimize:true ~context_node:doc src)));
  ]

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"tumbling windows partition the input for any chunk size"
         (QCheck.make
            QCheck.Gen.(pair (int_range 1 7) (int_range 0 40)))
         (fun (k, n) ->
           let doc = Xq_xml.Xml_parse.parse "<r/>" in
           let src =
             Printf.sprintf
               "sum(for tumbling window $w in (1 to %d) start at $s when ($s \
                - 1) mod %d = 0 return count($w))"
               n k
           in
           let total =
             Xq_xml.Serialize.sequence
               (Xq_algebra.Exec.run_string ~context_node:doc src)
           in
           total = string_of_int n));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"sliding fixed-width windows have the expected count"
         (QCheck.make QCheck.Gen.(pair (int_range 1 6) (int_range 0 30)))
         (fun (width, n) ->
           let doc = Xq_xml.Xml_parse.parse "<r/>" in
           let src =
             Printf.sprintf
               "count(for sliding window $w in (1 to %d) start at $s when \
                true() only end at $e when $e - $s = %d return 1)"
               n (width - 1)
           in
           let count =
             Xq_xml.Serialize.sequence
               (Xq_algebra.Exec.run_string ~context_node:doc src)
           in
           count = string_of_int (max 0 (n - width + 1))));
  ]

let suites =
  [
    ("window.tumbling", tumbling_tests);
    ("window.sliding", sliding_tests);
    ("window.scoping", scoping_tests);
    ("window.errors", error_tests);
    ("window.integration", integration_tests);
    ("window.properties", property_tests);
  ]
