(* Auction-site analytics over the XMark-flavoured workload: the
   document-centric query mix the paper's introduction motivates —
   grouping across deep hierarchies, reference joins, ranking, and a
   profiled plan for the heaviest query.

   Run with:  dune exec examples/auction_analytics.exe *)

let items_per_category =
  {|for $i in //item
    group by string($i/category) into $cat
    nest $i into $items
    order by count($items) descending, $cat
    return <category name="{$cat}">{count($items)}</category>|}

(* Reference join + grouping: revenue per seller across closed auctions,
   top five by total. *)
let top_sellers =
  {|for $ca in //closed_auction
    group by string($ca/seller/@person) into $seller
    nest $ca/price into $prices
    let $total := sum($prices)
    order by $total descending
    return at $rank
      <seller rank="{$rank}" id="{$seller}">
        <sales>{count($prices)}</sales>
        <revenue>{round($total)}</revenue>
      </seller>|}

(* Two grouping levels over references: per region, the most-bid-on
   item categories. *)
let bids_by_region_category =
  {|for $r in /site/regions/*
    return
      <region name="{local-name($r)}">
        {for $i in $r/item
         let $bids := //open_auction[itemref/@item = $i/@id]/bid
         group by string($i/category) into $cat
         nest count($bids) into $bid-counts
         let $total := sum($bid-counts)
         where $total > 0
         order by $total descending
         return <cat name="{$cat}">{$total}</cat>}
      </region>|}

(* Interest groups: people grouped by their profile interest; the empty
   group collects the profile-less. *)
let interest_groups =
  {|for $p in //person
    group by $p/profile/interest into $interest
    nest $p into $people
    order by count($people) descending, string($interest)
    return <group interest="{string($interest)}">{count($people)}</group>|}

let () =
  let doc = Xq_workload.Auction.generate Xq_workload.Auction.default in

  print_endline "Items per category:";
  print_endline (Xq.to_xml (Xq.run doc items_per_category));

  print_endline "\nTop sellers by closed-auction revenue (first 5):";
  let sellers = Xq.run doc top_sellers in
  List.iteri
    (fun i item ->
      if i < 5 then print_endline (Xq.Xml.Serialize.item ~indent:true item))
    sellers;

  print_endline "\nPeople by profile interest (empty group = no profile):";
  print_endline (Xq.to_xml (Xq.run doc interest_groups));

  print_endline "\nBids per region and category (profiled plan for region 1):";
  print_endline (Xq.to_xml ~indent:true (Xq.run doc bids_by_region_category));

  (* profile the reference-join query on the chain a normal run executes *)
  print_endline "\nOperator profile of the top-sellers query:";
  List.iter
    (function
      | Xq.Algebra.Exec.Analyzed_plan (_, _, stats) ->
        List.iter
          (fun (s : Xq.Algebra.Exec.Stats.entry) ->
            Printf.printf "  %-20s %6d tuples %8.2f ms\n" s.label s.rows_out
              s.elapsed_ms)
          stats
      | Xq.Algebra.Exec.Analyzed_expr _ -> ())
    (Xq.Algebra.Exec.analyze_query ~context_node:doc (Xq.parse top_sellers))
