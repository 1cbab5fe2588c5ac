(* Guards for the benchmark harness's query inventory: every query it
   times must parse, pass the static checks, and the Qgb/Q pairs must
   agree on group sets — otherwise the reported ratios are meaningless.
   The inventory is duplicated here from bench/queries.ml (the bench is
   an executable, not a library); this suite pins the exact text. *)

open Helpers

let check_string = Alcotest.(check string)

let qgb_one key =
  Printf.sprintf
    {|for $litem in //order/lineitem
group by $litem/%s into $a
nest $litem into $items
return <r>{$a, count($items)}</r>|}
    key

let q_one key =
  Printf.sprintf
    {|for $a in distinct-values(//order/lineitem/%s)
let $items := for $i in //order/lineitem where $i/%s = $a return $i
return <r>{$a, count($items)}</r>|}
    key key

let qgb_two key1 key2 =
  Printf.sprintf
    {|for $litem in //order/lineitem
group by $litem/%s into $a, $litem/%s into $b
nest $litem into $items
return <r>{$a, $b, count($items)}</r>|}
    key1 key2

let q_two key1 key2 =
  Printf.sprintf
    {|for $a in distinct-values(//order/lineitem/%s),
    $b in distinct-values(//order/lineitem/%s)
let $items := for $i in //order/lineitem
              where $i/%s = $a and $i/%s = $b return $i
where exists($items)
return <r>{$a, $b, count($items)}</r>|}
    key1 key2 key1 key2

let pairs =
  [
    ("shipinstruct", None); ("shipmode", None); ("tax", None);
    ("quantity", None);
    ("shipinstruct", Some "shipmode"); ("shipinstruct", Some "tax");
  ]

let doc =
  Xq_workload.Orders.(generate (with_lineitems 300 { default with seed = 5 }))

let sanity_tests =
  List.map
    (fun (k1, k2) ->
      let label =
        match k2 with
        | None -> k1
        | Some k2 -> Printf.sprintf "(%s, %s)" k1 k2
      in
      test label (fun () ->
          let qgb, q =
            match k2 with
            | None -> (qgb_one k1, q_one k1)
            | Some k2 -> (qgb_two k1 k2, q_two k1 k2)
          in
          let ast_gb = Xq.parse qgb and ast_q = Xq.parse q in
          Xq.check ast_gb;
          Xq.check ast_q;
          (* same number of groups *)
          check_string "group counts"
            (string_of_int (Xq.length (Xq.run_query ~check:false doc ast_gb)))
            (string_of_int (Xq.length (Xq.run_query ~check:false doc ast_q)));
          (* the implicit form is recognized by the rewriter *)
          Alcotest.(check int)
            "rewriter recognizes the idiom" 1
            (Xq_rewrite.Rewrite.count_rewrites ast_q.Xq_lang.Ast.body)))
    pairs

(* Normalize away the one legitimate serialization difference between the
   two forms: the baseline binds $a to an atomic (space-separated from
   the count), the explicit form to a node (abutting). *)
let strip_spaces s =
  String.concat "" (String.split_on_char ' ' s)

let normalize items =
  List.map (fun it -> strip_spaces (Xq_xdm.Item.string_value it)) items
  |> List.sort compare |> String.concat "|"

let sorted_counts query = normalize (Xq.run doc query)

let agreement_tests =
  [
    test "Qgb, Q, rewritten Q agree on aggregates" (fun () ->
        let qgb = qgb_one "shipmode" and q = q_one "shipmode" in
        let reference = sorted_counts qgb in
        check_string "q" reference (sorted_counts q);
        check_string "rewritten" reference (normalize (Xq.run_rewritten doc q)));
    test "count-optimized Qgb agrees with the unpushed plan" (fun () ->
        (* the count optimization is the plan's fn:count pushdown *)
        let qgb = Xq.parse (qgb_one "tax") in
        Xq.check qgb;
        let v enabled =
          normalize
            (Xq_algebra.Exec.eval_query ~check:false ~config:(pushdown enabled)
               ~context_node:doc qgb)
        in
        check_string "optimized" (v false) (v true));
    test "algebra-executed Qgb agrees" (fun () ->
        let qgb = qgb_one "quantity" in
        check_string "algebra"
          (normalize (Xq.run doc qgb))
          (normalize (Xq_algebra.Exec.run_string ~context_node:doc qgb)));
  ]

let suites =
  [
    ("bench-queries.sanity", sanity_tests);
    ("bench-queries.agreement", agreement_tests);
  ]
