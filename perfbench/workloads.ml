(* The benchmark's three workloads: which generated documents each one
   reads, which queries it rotates through, and under which knobs.

   Every input comes from the repo's own generators under the run's
   seed; nothing else reaches the program. *)

module Pipeline = Xq_pipeline.Pipeline

type file = Orders | Sales | Bib

let file_name = function
  | Orders -> "orders.xml"
  | Sales -> "sales.xml"
  | Bib -> "bib.xml"

(* Sales and Bibliography sizes. [full] is what a measured run uses;
   [smoke] keeps the self-test quick. The Orders size belongs to the
   workload (see [t]). *)
type size = { sales : int; books : int }

let full = { sales = 400; books = 300 }
let smoke = { sales = 60; books = 30 }

(* The Section 6 shape: Orders with tax cardinality 100. *)
let generate ~lineitems (size : size) seed = function
  | Orders ->
    Xq_workload.Orders.(
      generate { (with_lineitems lineitems default) with tax_card = 100; seed })
  | Sales ->
    Xq_workload.Sales.(generate { default with sales = size.sales; seed })
  | Bib ->
    Xq_workload.Bibliography.(
      generate { default with books = size.books; with_categories = true; seed })

(* One operation of a mix. [keys] names the element each tuple binds
   and the child elements it groups by, for the key-layer probes;
   [None] when the grouping key is computed. *)
type op = {
  label : string;
  source : string;
  file : file;
  keys : (string * string list) option;
}

(* --- queries (Table 1 of the paper and the Section 3-5 examples) ------- *)

let qgb_one key =
  Printf.sprintf
    {|for $litem in //order/lineitem
group by $litem/%s into $a
nest $litem into $items
return <r>{$a, count($items)}</r>|}
    key

let qgb_two k1 k2 =
  Printf.sprintf
    {|for $litem in //order/lineitem
group by $litem/%s into $a, $litem/%s into $b
nest $litem into $items
return <r>{$a, $b, count($items)}</r>|}
    k1 k2

let qgb_agg key =
  Printf.sprintf
    {|for $litem in //order/lineitem
group by $litem/%s into $a
nest $litem/quantity into $q
order by $a
return <r>{$a}<c>{count($q)}</c><s>{sum($q)}</s><v>{avg($q)}</v></r>|}
    key

(* the implicit-grouping idiom the paper's Q column uses *)
let q_implicit key =
  Printf.sprintf
    {|for $a in distinct-values(//order/lineitem/%s)
let $items := for $i in //order/lineitem where $i/%s = $a return $i
return <r>{$a, count($items)}</r>|}
    key key

(* a group-by that also reads a document-wide total: the leading let
   reaches the document, so the query materializes *)
let share_of_total key =
  Printf.sprintf
    {|let $n := count(//order/lineitem)
return
  for $litem in //order/lineitem
  group by $litem/%s into $a
  nest $litem into $items
  return <r>{$a, count($items) div $n}</r>|}
    key

(* the nest is read beyond count/sum/avg/min/max, so members are kept
   and the hash build has real state to spill *)
let retained_members key =
  Printf.sprintf
    {|for $litem in //order/lineitem
group by $litem/%s into $a
nest $litem into $items
return <r>{$a, $items[1]/quantity, count($items)}</r>|}
    key

let window_q8 =
  {|for $s in //sale
group by $s/region into $region
nest $s order by $s/timestamp into $rs
return
  <region name="{string($region)}">
    {for $s1 at $i in $rs
     return <w>{sum(for $s2 at $j in $rs
                    where $j < $i and $j >= $i - 10
                    return $s2/quantity * $s2/price)}</w>}
  </region>|}

let rollup_q11 =
  {|declare function local:paths($cats as item()*) as xs:string* {
  for $c in $cats
  let $n := local-name($c)
  return ($n, for $p in local:paths($c/*) return concat($n, "/", $p)) };
for $b in //book
for $c in local:paths($b/categories/*)
group by $c into $category
nest $b/price into $prices
return <result><category>{$category}</category><avg-price>{avg($prices)}</avg-price></result>|}

let op ?(file = Orders) ?keys label source = { label; source; file; keys }
let orders_op label keys source = op label source ~keys:("lineitem", keys)

(* --- the workloads -------------------------------------------------------- *)

type t = {
  name : string;
  files : file list;
  ops : op list;
  knobs : Pipeline.knobs;
  lineitems : int;  (** Orders size *)
  resident : bool;
      (** served by the [xq-server] daemon to two closed-loop clients;
          otherwise one client calls [Pipeline.run] in-process *)
}

let cli_oneshot =
  {
    name = "cli-oneshot";
    files = [ Orders ];
    ops =
      [
        orders_op "Q1" [ "shipinstruct" ] (qgb_one "shipinstruct");
        orders_op "Q2" [ "shipmode" ] (qgb_one "shipmode");
        orders_op "Q3" [ "tax" ] (qgb_one "tax");
        orders_op "Q6" [ "quantity" ] (qgb_one "quantity");
        orders_op "Q4" [ "shipinstruct"; "shipmode" ]
          (qgb_two "shipinstruct" "shipmode");
        orders_op "Q5" [ "shipinstruct"; "tax" ] (qgb_two "shipinstruct" "tax");
        orders_op "agg-tax" [ "tax" ] (qgb_agg "tax");
        orders_op "implicit-shipmode" [ "shipmode" ] (q_implicit "shipmode");
        orders_op "share-shipinstruct" [ "shipinstruct" ]
          (share_of_total "shipinstruct");
      ];
    knobs = Pipeline.default_knobs;
    lineitems = 2000;
    resident = false;
  }

let server_resident =
  {
    name = "server-resident";
    files = [ Orders; Sales; Bib ];
    ops =
      [
        orders_op "Q1" [ "shipinstruct" ] (qgb_one "shipinstruct");
        orders_op "Q4" [ "shipinstruct"; "shipmode" ]
          (qgb_two "shipinstruct" "shipmode");
        orders_op "agg-tax" [ "tax" ] (qgb_agg "tax");
        orders_op "implicit-shipmode" [ "shipmode" ] (q_implicit "shipmode");
        op "Q8-window" window_q8 ~file:Sales ~keys:("sale", [ "region" ]);
        op "Q11-rollup" rollup_q11 ~file:Bib;
        op "count" "count(/orders/order)";
      ];
    knobs = Pipeline.default_knobs;
    lineitems = 2000;
    resident = true;
  }

(* Every operation here must spill and none may trip. The spill
   watermark is 1 MB, over 3,000 lineitems: the retained members then
   charge about 1.4 MB, so the watermark is crossed on charged bytes
   alone. Nearer the watermark (2,000 lineitems charge ~0.9 MB) whether
   an operation spills depends on the heap growth the governor's
   estimate also counts, and a few would not. The hard budget is
   16 MB: a first operation in a fresh process grows the heap by about
   12 MB, which an 8 MB budget trips on. *)
let bounded_mem =
  {
    name = "bounded-mem";
    files = [ Orders ];
    ops = [ orders_op "retain-tax" [ "tax" ] (retained_members "tax") ];
    knobs =
      { Pipeline.default_knobs with k_max_mem_mb = Some 16; k_spill_at_mb = Some 1 };
    lineitems = 3000;
    resident = false;
  }

let all = [ cli_oneshot; server_resident; bounded_mem ]
let find name = List.find_opt (fun w -> w.name = name) all
