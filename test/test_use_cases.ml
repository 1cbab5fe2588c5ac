(* Realistic analytics use cases over the auction-site workload — the
   document-centric query mix the paper's introduction motivates, each
   expressed with the grouping extensions and checked either exactly (on
   a handcrafted fixture) or as invariants (on generated data). *)

open Helpers

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* A small handcrafted site for exact expectations. *)
let site =
  {|<site>
  <regions>
    <europe>
      <item id="item0"><name>Clock</name><category>antiques</category><quantity>1</quantity></item>
      <item id="item1"><name>Radio</name><category>electronics</category><quantity>2</quantity></item>
    </europe>
    <asia>
      <item id="item2"><name>Vase</name><category>antiques</category><quantity>1</quantity></item>
    </asia>
  </regions>
  <people>
    <person id="person0"><name>Ada</name>
      <profile><interest>antiques</interest><income>60000</income></profile></person>
    <person id="person1"><name>Ben</name>
      <profile><interest>electronics</interest><income>30000</income></profile></person>
    <person id="person2"><name>Cyd</name></person>
  </people>
  <open_auctions>
    <open_auction id="open0"><itemref item="item0"/><seller person="person1"/>
      <initial>10.00</initial>
      <bid><bidder person="person0"/><date>2004-05-01T10:00:00</date><increase>5.00</increase></bid>
      <bid><bidder person="person2"/><date>2004-05-02T10:00:00</date><increase>7.50</increase></bid>
      <current>22.50</current></open_auction>
    <open_auction id="open1"><itemref item="item2"/><seller person="person0"/>
      <initial>50.00</initial>
      <current>50.00</current></open_auction>
  </open_auctions>
  <closed_auctions>
    <closed_auction id="closed0"><itemref item="item1"/><buyer person="person0"/>
      <seller person="person2"/><price>80.00</price><date>2004-04-01</date></closed_auction>
    <closed_auction id="closed1"><itemref item="item0"/><buyer person="person0"/>
      <seller person="person1"/><price>20.00</price><date>2004-03-15</date></closed_auction>
  </closed_auctions>
</site>|}

let exact_tests =
  [
    test "items per region (hierarchy is the grouping key)" (fun () ->
        check_query ~data:site
          {|for $r in /site/regions/*
            order by local-name($r)
            return concat(local-name($r), ":", count($r/item))|}
          "asia:1 europe:2" "regions");
    test "items per category via group by" (fun () ->
        check_query ~data:site
          {|for $i in //item
            group by string($i/category) into $c
            nest $i into $items
            order by $c
            return concat($c, "=", count($items))|}
          "antiques=2 electronics=1" "categories");
    test "buyer spending via grouping on attribute keys" (fun () ->
        check_query ~data:site
          {|for $ca in //closed_auction
            group by string($ca/buyer/@person) into $buyer
            nest $ca/price into $prices
            order by $buyer
            return concat($buyer, " spent ", sum($prices))|}
          "person0 spent 100" "spending");
    test "bidders ranked per auction (return at inside grouping)" (fun () ->
        check_query ~data:site
          {|for $a in //open_auction[bid]
            return
              <auction id="{string($a/@id)}">
                {for $b in $a/bid
                 order by number($b/increase) descending
                 return at $rank
                   <top>{$rank}:{string($b/bidder/@person)}</top>}
              </auction>|}
          {|<auction id="open0"><top>1:person2</top><top>2:person0</top></auction>|}
          "ranked bids");
    test "people without profiles form the empty group" (fun () ->
        check_query ~data:site
          {|for $p in //person
            group by $p/profile/interest into $interest
            nest $p/name into $names
            order by string($interest)
            return concat("[", string($interest), "] ", count($names))|}
          "[] 1 [antiques] 1 [electronics] 1" "optional profile");
    test "join items to their closed auctions through references" (fun () ->
        check_query ~data:site
          {|for $ca in //closed_auction
            let $item := //item[@id = $ca/itemref/@item]
            order by number($ca/price)
            return concat(string($item/name), "->", string($ca/price))|}
          "Clock->20.00 Radio->80.00" "reference join");
    test "auction activity summary mixes levels" (fun () ->
        check_query ~data:site
          {|let $open := count(//open_auction)
            let $closed := count(//closed_auction)
            let $bids := count(//bid)
            return concat($open, "/", $closed, "/", $bids)|}
          "2/2/2" "summary");
    test "grouping on derived month keys" (fun () ->
        check_query ~data:site
          {|for $ca in //closed_auction
            group by month-from-date(xs:date($ca/date)) into $m
            nest $ca/price into $prices
            order by $m
            return concat($m, ":", sum($prices))|}
          "3:20 4:80" "months");
    test "high-value bid windows via ordered nests" (fun () ->
        check_query ~data:site
          {|for $b in //open_auction/bid
            group by 1 into $all
            nest $b order by xs:dateTime($b/date) into $bs
            return string-join(for $x in $bs return string($x/increase), ",")|}
          "5.00,7.50" "time-ordered");
  ]

(* Invariant checks on generated data. *)
let generated = Xq_workload.Auction.generate Xq_workload.Auction.default

let run q = run_on generated q

let invariant_tests =
  [
    test "generated cardinalities" (fun () ->
        check_string "people" "120" (run "count(//person)");
        check_string "items" "200" (run "count(//item)");
        check_string "open" "80" (run "count(//open_auction)");
        check_string "closed" "40" (run "count(//closed_auction)"));
    test "every itemref resolves to an item" (fun () ->
        check_string "resolved" "true"
          (run
             "every $r in //itemref satisfies exists(//item[@id = $r/@item])"));
    test "every bidder is a registered person" (fun () ->
        check_string "resolved" "true"
          (run
             "every $b in //bid/bidder satisfies exists(//person[@id = $b/@person])"));
    test "items partition across regions" (fun () ->
        check_string "partition" "200"
          (run "string(sum(for $r in /site/regions/* return count($r/item)))"));
    test "category grouping covers all items" (fun () ->
        check_string "covered" "200"
          (run
             "string(sum(for $i in //item group by string($i/category) into \
              $c nest $i into $is return count($is)))"));
    test "per-category counts agree with predicate counts" (fun () ->
        List.iter
          (fun cat ->
            let by_group =
              run
                (Printf.sprintf
                   "for $i in //item group by string($i/category) into $c \
                    nest $i into $is where $c = \"%s\" return count($is)"
                   cat)
            in
            let by_pred =
              run (Printf.sprintf "count(//item[category = \"%s\"])" cat)
            in
            let by_group = if by_group = "" then "0" else by_group in
            check_string cat by_pred by_group)
          Xq_workload.Auction.category_names);
    test "top bidder rank 1 has the maximal bid count" (fun () ->
        let top =
          run
            {|(for $b in //bid
               group by string($b/bidder/@person) into $p
               nest $b into $bs
               order by count($bs) descending, $p
               return count($bs))[1]|}
        in
        let max_count =
          run
            {|string(max(for $b in //bid
                         group by string($b/bidder/@person) into $p
                         nest $b into $bs
                         return count($bs)))|}
        in
        check_string "top=max" max_count top);
    test "seller revenue sums equal total closed prices" (fun () ->
        let by_seller =
          run
            {|string(round(sum(
                for $ca in //closed_auction
                group by string($ca/seller/@person) into $s
                nest $ca/price into $ps
                return sum($ps))))|}
        in
        let total = run "string(round(sum(//closed_auction/price)))" in
        check_string "conservation" total by_seller);
    test "algebra execution agrees on a representative query" (fun () ->
        let q =
          {|for $i in //item
            group by string($i/category) into $c
            nest $i into $items
            order by count($items) descending, $c
            return <g>{$c, count($items)}</g>|}
        in
        let direct = Xq_xml.Serialize.sequence (reference_run ~context_node:generated q) in
        let algebra =
          Xq_xml.Serialize.sequence
            (Xq_algebra.Exec.run_string ~context_node:generated q)
        in
        check_string "agree" direct algebra);
    test "deterministic generation" (fun () ->
        check_bool "deep-equal" true
          (Xq_xdm.Deep_equal.nodes generated
             (Xq_workload.Auction.generate Xq_workload.Auction.default)));
  ]

let suites =
  [
    ("use-cases.auction-exact", exact_tests);
    ("use-cases.auction-generated", invariant_tests);
  ]
