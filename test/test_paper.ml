(* End-to-end tests for every query in the paper (Q1–Q12 and variants),
   each run against handcrafted data with a known expected answer. *)

open Helpers

(* --- Q1: average net price per publisher and year ------------------------- *)

let q1_explicit =
  {|for $b in //book
    group by $b/publisher into $p, $b/year into $y
    nest $b/price - $b/discount into $netprices
    order by string($p), string($y)
    return <group>{$p, $y}<avg-net-price>{avg($netprices)}</avg-net-price></group>|}

let q1_implicit =
  {|for $p in distinct-values(//book/publisher)
    for $y in distinct-values(//book/year)
    let $b := //book[publisher = $p and year = $y]
    where exists($b)
    order by $p, $y
    return <group><publisher>{$p}</publisher><year>{$y}</year>
      <avg-net-price>{avg($b/(price - discount))}</avg-net-price></group>|}

let q1_tests =
  [
    test "Q1 explicit group by" (fun () ->
        check_query ~data:bib q1_explicit
          ("<group><year>1993</year><avg-net-price>5</avg-net-price></group>"
           ^ "<group><publisher>Addison-Wesley</publisher><year>1997</year><avg-net-price>45</avg-net-price></group>"
           ^ "<group><publisher>Morgan Kaufmann</publisher><year>1993</year><avg-net-price>50</avg-net-price></group>"
           ^ "<group><publisher>Morgan Kaufmann</publisher><year>1998</year><avg-net-price>60</avg-net-price></group>")
          "Q1");
    test "Q1 explicit includes books without a publisher" (fun () ->
        check_query ~data:bib
          (q1_explicit ^ "[empty(publisher)]")
          "<group><year>1993</year><avg-net-price>5</avg-net-price></group>"
          "missing publisher group");
    test "Q1 implicit idiom misses publisher-less books (Section 2)" (fun () ->
        let explicit = run_xml ~data:bib (Printf.sprintf "count(%s)" q1_explicit) in
        let implicit = run_xml ~data:bib (Printf.sprintf "count(%s)" q1_implicit) in
        Alcotest.(check string) "explicit has one more group" "4" explicit;
        Alcotest.(check string) "implicit" "3" implicit);
    test "Q1 explicit and implicit agree on present keys" (fun () ->
        let per_group = "/avg-net-price/text()" in
        let a = run_xml ~data:bib (Printf.sprintf "(%s)%s" q1_explicit per_group) in
        let b = run_xml ~data:bib (Printf.sprintf "(%s)%s" q1_implicit per_group) in
        (* implicit lacks the empty-publisher group's 5 *)
        Alcotest.(check string) "explicit" "5455060" a;
        Alcotest.(check string) "implicit" "455060" b);
  ]

(* --- Q2 / Q2a: per-author vs per-author-set ------------------------------- *)

let q2_tests =
  [
    test "Q2: individual authors each get a group" (fun () ->
        check_query ~data:bib
          {|for $a in distinct-values(//book/author)
            let $b := //book[author = $a]
            order by $a
            return <g>{$a}: {count($b)}</g>|}
          ("<g>Alan Simon: 1</g><g>Andreas Reuter: 1</g><g>Anonymous: 1</g>"
           ^ "<g>C. J. Date: 1</g><g>Hugh Darwen: 1</g><g>Jim Gray: 1</g>"
           ^ "<g>Jim Melton: 1</g><g>Michael Stonebraker: 1</g>")
          "Q2");
    test "Q2a: author sequences group by deep-equal" (fun () ->
        check_query ~data:bib
          {|for $b in //book
            group by $b/author into $a
            nest $b/price into $prices
            order by string($a[1])
            return <g>{count($a)}:{count($prices)}</g>|}
          (* first authors sorted: Anonymous, C. J. Date, Jim Gray,
             Jim Melton, Michael Stonebraker *)
          "<g>1:1</g><g>2:1</g><g>2:1</g><g>2:1</g><g>1:1</g>"
          "Q2a");
  ]

(* --- Q3: state vs region totals -------------------------------------------- *)

let q3 =
  {|for $s in //sale
    group by $s/region into $region,
             year-from-dateTime($s/timestamp) into $year
    nest $s into $region-sales
    let $region-sum := sum( $region-sales/(quantity * price) )
    order by $year, $region
    return
      for $s in $region-sales
      group by $s/state into $state
      nest $s into $state-sales
      let $state-sum := sum( $state-sales/(quantity * price) )
      order by $state
      return
        <summary>{$year, $region, $state}
          <state-sales>{ $state-sum }</state-sales>
          <region-sales>{ $region-sum }</region-sales>
          <state-percentage>{ round($state-sum * 100 div $region-sum) }</state-percentage>
        </summary>|}

let q3_tests =
  [
    test "Q3 two-level aggregation" (fun () ->
        (* hand-computed from the fixture:
           2003 East: NY 12.00, MA 30.00 (region 42.00)
           2004 East: NY 69.93 (region 69.93)
           2004 West: CA 109.90, OR 50.00 (region 159.90) *)
        check_query ~data:sales
          (Printf.sprintf "for $x in (%s) return string($x/state-percentage)" q3)
          "71 29 100 69 31" "percentages");
    test "Q3 region sums" (fun () ->
        check_query ~data:sales
          (Printf.sprintf
             "for $x in (%s) return string($x/region-sales)" q3)
          "42 42 69.93 159.9 159.9" "region sums");
    test "Q3 summary grouping keys in order" (fun () ->
        check_query ~data:sales
          (Printf.sprintf "for $x in (%s) return concat($x/text(), $x/region, $x/state)" q3)
          (* $year is an atomic, so it lands in the summary's text node *)
          "2003EastMA 2003EastNY 2004EastNY 2004WestCA 2004WestOR" "keys");
  ]

(* --- Q5: distinct pairs ------------------------------------------------------ *)

let q5_tests =
  [
    test "Q5 distinct publisher/title pairs" (fun () ->
        check_query ~data:bib
          {|count(for $b in //book
                  group by $b/publisher into $pub, $b/title into $title
                  return <pair>{$pub, $title}</pair>)|}
          "5" "distinct pairs");
  ]

(* --- Q6: count of nested titles ---------------------------------------------- *)

let q6_tests =
  [
    test "Q6 yearly report" (fun () ->
        check_query ~data:bib
          {|for $b in //book
            group by $b/year into $year
            nest $b/title into $titles
            order by $year
            return <yearly-report>{$year}
              <book-count>{count($titles)}</book-count></yearly-report>|}
          ("<yearly-report><year>1993</year><book-count>3</book-count></yearly-report>"
           ^ "<yearly-report><year>1997</year><book-count>1</book-count></yearly-report>"
           ^ "<yearly-report><year>1998</year><book-count>1</book-count></yearly-report>")
          "Q6");
  ]

(* --- Q7: hierarchy inversion --------------------------------------------------- *)

let q7_tests =
  [
    test "Q7 publisher → books inversion" (fun () ->
        check_query ~data:bib
          {|for $b in //book
            group by $b/publisher into $pub
            nest $b into $b
            order by string($pub)
            return <publisher><name>{string($pub)}</name>
              <count>{count($b)}</count></publisher>|}
          ("<publisher><name/><count>1</count></publisher>"
           ^ "<publisher><name>Addison-Wesley</name><count>1</count></publisher>"
           ^ "<publisher><name>Morgan Kaufmann</name><count>3</count></publisher>")
          "Q7");
  ]

(* --- Q8: moving window -------------------------------------------------------- *)

let q8 =
  {|for $s in //sale
    group by $s/region into $region
    nest $s order by $s/timestamp into $rs
    order by string($region)
    return
      <region name="{string($region)}">
        {for $s1 at $i in $rs
         return
           <sale>
             {$s1/timestamp}
             <sale-amount>{$s1/quantity * $s1/price}</sale-amount>
             <previous-three-sales>
               {sum(for $s2 at $j in $rs where $j < $i and $j >= $i - 3
                    return $s2/quantity * $s2/price)}
             </previous-three-sales>
           </sale>}
      </region>|}

let q8_tests =
  [
    test "Q8 moving window over ordered nests" (fun () ->
        (* East sales by timestamp: 2003-06 12.00, 2003-07 30.00, 2004-01 69.93.
           Windows: 0, 12, 42. *)
        check_query ~data:sales
          (Printf.sprintf
             "for $x in (%s)[@name = \"East\"]/sale return string($x/previous-three-sales)"
             q8)
          "0 12 42" "east windows");
    test "Q8 window caps at three" (fun () ->
        (* West: 99.90, 10.00, 50.00 → windows 0, 99.90, 109.90 *)
        check_query ~data:sales
          (Printf.sprintf
             "for $x in (%s)[@name = \"West\"]/sale return string($x/previous-three-sales)"
             q8)
          "0 99.9 109.9" "west windows");
  ]

(* --- Q9 variants: output numbering ------------------------------------------------ *)

let q9_tests =
  [
    test "Q9 input-order numbering via at" (fun () ->
        check_query ~data:bib
          {|for $b at $i in //book[author = "Jim Melton"]
            return <book><number>{$i}</number>{$b/title}</book>|}
          "<book><number>1</number><title>Understanding the New SQL</title></book>"
          "Q9");
    test "Q9a at-numbering does not reflect output order" (fun () ->
        check_query ~data:bib
          {|for $b at $i in //book
            order by $b/price ascending
            return $i|}
          (* untyped order-by keys compare as strings (XQuery 1.0), so
             "47.00" sorts before "5.00" *)
          "4 5 3 1 2" "Q9a");
    test "Q9b top-3 by return-at filter" (fun () ->
        check_query ~data:bib
          {|let $ranked :=
              (for $b in //book order by $b/price descending return $b)
            return
              (for $b at $i in $ranked
               where $i <= 3
               return <book><rank>{$i}</rank>{$b/title}</book>)|}
          ("<book><rank>1</rank><title>Readings in Database Systems</title></book>"
           ^ "<book><rank>2</rank><title>Transaction Processing</title></book>"
           ^ "<book><rank>3</rank><title>Understanding the New SQL</title></book>")
          "Q9b classic");
  ]

(* --- Q10: monthly report with ranked regions ---------------------------------------- *)

let q10 =
  {|for $s in //sale
    group by year-from-dateTime($s/timestamp) into $year,
             month-from-dateTime($s/timestamp) into $month
    nest $s into $month-sales
    order by $year, $month
    return
      <monthly-report year="{$year}" month="{$month}">
        {for $ms in $month-sales
         group by $ms/region into $region
         nest $ms/quantity * $ms/price into $sales-amounts
         let $sum := sum($sales-amounts)
         order by $sum descending
         return at $rank
           <regional-results>
             <rank>{$rank}</rank>
             {$region}
             <total-sales>{$sum}</total-sales>
           </regional-results>}
      </monthly-report>|}

let q10_tests =
  [
    test "Q10 report months in order" (fun () ->
        check_query ~data:sales
          (Printf.sprintf
             "for $m in (%s) return concat($m/@year, \"-\", $m/@month)" q10)
          "2003-6 2003-7 2004-1 2004-2 2004-3" "months");
    test "Q10 regions ranked within January 2004" (fun () ->
        (* Jan 2004: West CA 99.90 vs East NY 69.93 → West rank 1 *)
        check_query ~data:sales
          (Printf.sprintf
             "for $r in (%s)[@year = \"2004\" and @month = \"1\"]/regional-results \
              return concat($r/rank, \":\", $r/region)"
             q10)
          "1:West 2:East" "ranks");
  ]

(* --- Q11: rollup over a ragged hierarchy -------------------------------------------- *)

let categorized =
  {|<bib>
  <book><title>TP</title><price>59.00</price>
    <categories><software><db><concurrency/></db><distributed/></software></categories>
  </book>
  <book><title>Readings</title><price>65.00</price>
    <categories><software><db/></software><anthology/></categories>
  </book>
</bib>|}

let paths_fn =
  {|declare function local:paths($cats as item()*) as xs:string* {
      for $c in $cats
      let $n := local-name($c)
      return ($n, for $p in local:paths($c/*) return concat($n, "/", $p))
    };|}

let q11_body =
  {|for $b in //book
      for $c in local:paths($b/categories/*)
      group by $c into $category
      nest $b/price into $prices
      order by string($category)
      return <result><category>{$category}</category>
        <avg-price>{avg($prices)}</avg-price></result>|}

(* Wrap the body in a projection while keeping the prolog up front. *)
let q11_project projection =
  Printf.sprintf "%s for $r in (%s) return %s" paths_fn q11_body projection

let q11_tests =
  [
    test "Q11 rollup: every path level reported" (fun () ->
        check_query ~data:categorized
          (q11_project "string($r/category)")
          ("anthology software software/db software/db/concurrency software/distributed")
          "categories");
    test "Q11 rollup: averages per category (paper's Section 5 output)" (fun () ->
        check_query ~data:categorized
          (q11_project "concat($r/category, \"=\", $r/avg-price)")
          ("anthology=65 software=62 software/db=62 \
            software/db/concurrency=59 software/distributed=59")
          "averages");
    test "Q11 rollup over 300 generated books allocates < 1M major words"
      (fun () ->
        (* every local:paths call runs a nested FLWOR on its own freshly
           built operator chain; fixed-size sink buffers would put
           thousands of words per call on the major heap *)
        let doc =
          Xq_workload.Bibliography.(
            generate { default with books = 300; with_categories = true })
        in
        let run () = ignore (Sys.opaque_identity (run_on doc (paths_fn ^ q11_body))) in
        run ();
        let _, _, major0 = Gc.counters () in
        run ();
        let _, _, major1 = Gc.counters () in
        let words = major1 -. major0 in
        if words >= 1e6 then Alcotest.failf "%.0f major words per run" words);
  ]

(* --- Q12: datacube via powerset membership function --------------------------------- *)

let cube_fn =
  {|declare function local:cube($dims as item()*) as item()* {
      if (empty($dims)) then <dims/>
      else
        let $rest := local:cube(subsequence($dims, 2))
        return ($rest,
                for $g in $rest return <dims>{$dims[1], $g/*}</dims>)
    };|}

let q12_body =
  {|for $b in //book
      let $pub := if (empty($b/publisher)) then <publisher/> else $b/publisher
      for $d in local:cube(($pub, $b/year))
      group by $d into $dims
      nest $b/price into $prices
      return <result>{$dims}<avg-price>{avg($prices)}</avg-price></result>|}

let q12_project projection =
  Printf.sprintf "%s for $r in (%s) return %s" cube_fn q12_body projection

let q12_wrap outer = Printf.sprintf "%s %s" cube_fn (Printf.sprintf outer q12_body)

let q12_tests =
  [
    test "Q12 cube produces 2^dims groupings per distinct combo" (fun () ->
        (* books: (MK,1993)x2 incl one no-pub?? use bib: combos produce
           overall, by-pub, by-year, by-(pub,year) groups *)
        check_query ~data:bib
          (q12_wrap "count(%s)")
          (* overall=1; pubs: MK, AW, empty = 3; years: 1993,1997,1998 = 3;
             pairs: (MK,1993),(MK,1998),(AW,1997),(empty,1993) = 4 → 11 *)
          "11" "group count");
    test "Q12 overall average is in the cube" (fun () ->
        check_query ~data:bib
          (Printf.sprintf "%s for $r in (%s) where count($r/dims/*) = 0 return string($r/avg-price)" cube_fn q12_body)
          "46.19" "grand total");
    test "Q12 by-year slice" (fun () ->
        check_query ~data:bib
          (Printf.sprintf
             "%s for $r in (%s) where $r/dims/year and count($r/dims/*) = 1 \
              order by string($r/dims/year) return concat($r/dims/year, \"=\", \
              string($r/avg-price))"
             cube_fn q12_body)
          "1993=39.65 1997=47 1998=65" "year slice");
  ]

(* --- Table 1 templates --------------------------------------------------------------- *)

let table1_orders =
  {|<orders>
  <order><lineitem><a>A1</a><b>B1</b></lineitem>
         <lineitem><a>A1</a><b>B2</b></lineitem></order>
  <order><lineitem><a>A2</a><b>B1</b></lineitem>
         <lineitem><a>A1</a><b>B1</b></lineitem></order>
</orders>|}

let table1_tests =
  [
    test "Table 1 one-element templates agree" (fun () ->
        let qgb =
          {|for $litem in //order/lineitem
            group by $litem/a into $a
            nest $litem into $items
            order by string($a)
            return <r>{concat($a, "|", count($items))}</r>|}
        in
        let q =
          {|for $a in distinct-values(//order/lineitem/a)
            let $items := for $i in //order/lineitem where $i/a = $a return $i
            order by $a
            return <r>{concat($a, "|", count($items))}</r>|}
        in
        let r1 = run_xml ~data:table1_orders (Printf.sprintf "for $r in (%s) return string($r)" qgb) in
        let r2 = run_xml ~data:table1_orders (Printf.sprintf "for $r in (%s) return string($r)" q) in
        Alcotest.(check string) "same aggregates" r1 r2;
        Alcotest.(check string) "values" "A1|3 A2|1" r1);
    test "Table 1 two-element templates agree" (fun () ->
        let qgb =
          {|for $litem in //order/lineitem
            group by $litem/a into $a, $litem/b into $b
            nest $litem into $items
            order by string($a), string($b)
            return <r>{concat($a, ",", $b, "|", count($items))}</r>|}
        in
        let q =
          {|for $a in distinct-values(//order/lineitem/a),
                $b in distinct-values(//order/lineitem/b)
            let $items := for $i in //order/lineitem
                          where $i/a = $a and $i/b = $b return $i
            where exists($items)
            order by $a, $b
            return <r>{concat($a, ",", $b, "|", count($items))}</r>|}
        in
        let r1 = run_xml ~data:table1_orders (Printf.sprintf "for $r in (%s) return string($r)" qgb) in
        let r2 = run_xml ~data:table1_orders (Printf.sprintf "for $r in (%s) return string($r)" q) in
        Alcotest.(check string) "same aggregates" r1 r2;
        Alcotest.(check string) "values" "A1,B1|2 A1,B2|1 A2,B1|1" r1);
  ]

let suites =
  [
    ("paper.q1", q1_tests);
    ("paper.q2", q2_tests);
    ("paper.q3", q3_tests);
    ("paper.q5", q5_tests);
    ("paper.q6", q6_tests);
    ("paper.q7", q7_tests);
    ("paper.q8", q8_tests);
    ("paper.q9", q9_tests);
    ("paper.q10", q10_tests);
    ("paper.q11", q11_tests);
    ("paper.q12", q12_tests);
    ("paper.table1", table1_tests);
  ]
