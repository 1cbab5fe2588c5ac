(* Cross-strategy differential tests: the same randomized workloads run
   through the plan executor under every grouping strategy (hash / sort /
   auto with sort fusion) and must serialize exactly like the reference
   evaluator ([Helpers.reference_run]).  Plus direct unit tests of the grouping
   operators: forced hash collisions, comparator-scan grouping, and the
   run-splitting that keeps sort-based grouping exact. *)

open Xq_xdm
open Helpers
module Plan = Xq_algebra.Plan
module Exec = Xq_algebra.Exec
module Optimizer = Xq_algebra.Optimizer
module Group = Xq_engine.Group
module Key = Xq_engine.Key
module Prng = Xq_workload.Prng

let check_int = Alcotest.(check int)
let serialize = Xq_xml.Serialize.sequence
let to_alcotest = QCheck_alcotest.to_alcotest

(* --- randomized differential tests ---------------------------------------- *)

(* A random <r><i><k>…</k><v>…</v></i>…</r> document.  Keys are drawn
   from a small pool so groups have several members; the pool mixes
   plain integers, letters and zero-padded numerals (so "07" and "7"
   stay distinct keys), and the occasional item has no <k> at all
   (grouping on the empty sequence). *)
let random_doc rng =
  let open Xq_xml.Builder in
  let pool = 1 + Prng.int rng 8 in
  let n = 1 + Prng.int rng 50 in
  let key () =
    match Prng.int rng 4 with
    | 0 -> string_of_int (Prng.int rng pool)
    | 1 -> String.make 1 (Char.chr (Char.code 'a' + Prng.int rng pool))
    | 2 -> Printf.sprintf "%02d" (Prng.int rng pool)
    | _ -> string_of_int (10 * Prng.int rng pool)
  in
  let item _ =
    el "i"
      ((if Prng.one_in rng 12 then [] else [ el_text "k" (key ()) ])
       @ [ el_text "v" (string_of_int (Prng.int rng 100)) ])
  in
  doc (el "r" (List.init n item))

let q_plain =
  "for $i in //i group by $i/k into $k nest $i/v into $vs \
   return <g>{$k}<n>{count($vs)}</n><s>{sum($vs)}</s></g>"

(* The order-by is on exactly the (bare, ascending) group key, so the
   Auto strategy fuses it into a sorted-output sort grouping. *)
let q_ordered =
  "for $i in //i group by $i/k into $k nest $i/v into $vs \
   order by $k return <g>{$k}{$vs}</g>"

(* Two keys, ordered by both — multi-key fusion. *)
let q_multi =
  "for $i in //i group by $i/k into $k, $i/v into $v nest $i into $is \
   order by $k, $v return <g>{$k}{$v}<n>{count($is)}</n></g>"

(* A [using] comparator forces the scan-group operator under every
   strategy. *)
let q_using =
  "for $i in //i group by $i/k into $k using deep-equal \
   nest $i/v into $vs return <g>{$k}{$vs}</g>"

let strategies =
  [ ("hash", Optimizer.Hash); ("sort", Optimizer.Sort); ("auto", Optimizer.Auto) ]

(* Every strategy must also be byte-identical at any domain-pool degree
   (sequential execution is the reference). *)
let parallels = [ 1; 2; 4 ]

let seeds = 120

let differential name query =
  test (Printf.sprintf "%s agrees across strategies (%d seeds)" name seeds)
    (fun () ->
      for seed = 0 to seeds - 1 do
        let rng = Prng.create (0x5eed + seed) in
        let doc = random_doc rng in
        let expected = serialize (reference_run ~context_node:doc query) in
        List.iter
          (fun (label, strategy) ->
            List.iter
              (fun parallel ->
                let got =
                  serialize
                    (Exec.run_string ~strategy ~parallel ~context_node:doc
                       query)
                in
                if got <> expected then
                  Alcotest.failf
                    "seed %d, strategy %s, parallel %d:\nexpected %s\ngot      %s"
                    seed label parallel expected got)
              parallels;
            (* the plan optimizer must not disturb any strategy either *)
            let optimized =
              serialize
                (Exec.run_string ~optimize:true ~strategy ~parallel:1
                   ~context_node:doc query)
            in
            if optimized <> expected then
              Alcotest.failf "seed %d, strategy %s (optimized):\nexpected %s\ngot      %s"
                seed label expected optimized)
          strategies
      done)

let differential_tests =
  [
    differential "plain grouping" q_plain;
    differential "ordered grouping (sort fusion)" q_ordered;
    differential "multi-key ordered grouping" q_multi;
    differential "using-comparator grouping" q_using;
  ]

(* Batch size is a third dimension: 1 (item-at-a-time, the pre-batching
   executor), 3 (vector boundaries land mid-group everywhere) and the
   default must all serialize identically under every strategy. *)
let batch_sizes = [ Some 1; Some 3; None ]

let batch_differential name query =
  test
    (Printf.sprintf "%s agrees across batch sizes (%d seeds)" name (seeds / 2))
    (fun () ->
      for seed = 0 to (seeds / 2) - 1 do
        let rng = Prng.create (0xba7c4 + seed) in
        let doc = random_doc rng in
        let expected = serialize (reference_run ~context_node:doc query) in
        List.iter
          (fun batch ->
            let config = Xq_governor.Config.resolve ?batch () in
            List.iter
              (fun (label, strategy) ->
                let got =
                  serialize
                    (Exec.run_string ~config ~strategy ~parallel:1
                       ~context_node:doc query)
                in
                if got <> expected then
                  Alcotest.failf
                    "seed %d, strategy %s, batch %s:\n\
                     expected %s\ngot      %s"
                    seed label
                    (match batch with
                     | Some b -> string_of_int b
                     | None -> "default")
                    expected got)
              strategies)
          batch_sizes
      done)

let batch_tests =
  [
    batch_differential "plain grouping" q_plain;
    batch_differential "ordered grouping (sort fusion)" q_ordered;
    batch_differential "using-comparator grouping" q_using;
  ]

(* --- hash collisions ------------------------------------------------------- *)

let seq_int n : Xseq.t = [ Item.Atomic (Atomic.Int n) ]

let members g = List.map snd g.Group.members

let collision_tests =
  [
    test "distinct keys stay separate under forced hash collisions" (fun () ->
        let tuples = [ (1, "a"); (2, "b"); (1, "c"); (2, "d"); (3, "e") ] in
        let keys_of (k, _) = [ seq_int k ] in
        let grouped hash = Group.group_hash ?hash ~keys_of tuples in
        let collided = grouped (Some (fun _ -> 42)) in
        check_int "groups despite collisions" 3 (List.length collided);
        Alcotest.(check (list (list string)))
          "same groups as the honest hash"
          (List.map members (grouped None))
          (List.map members collided);
        Alcotest.(check (list string))
          "first group keeps input order" [ "a"; "c" ]
          (members (List.hd collided)));
    test "collision probing is counted as comparator work" (fun () ->
        let tally = ref 0 in
        let tuples = [ (1, "a"); (2, "b"); (3, "c") ] in
        ignore
          (Group.group_hash ~hash:(fun _ -> 0) ~tally
             ~keys_of:(fun (k, _) -> [ seq_int k ])
             tuples);
        (* everything lands in one bucket: tuple 2 probes group 1, tuple 3
           probes groups 1 and 2 *)
        check_int "deep-equal probes" 3 !tally);
  ]

(* --- comparator-scan grouping ---------------------------------------------- *)

let scan_tests =
  [
    test "scan grouping with a mod-3 comparator" (fun () ->
        let tally = ref 0 in
        let equal _i (a : Key.single) (b : Key.single) =
          match (a.Key.orig, b.Key.orig) with
          | [ Item.Atomic (Atomic.Int x) ], [ Item.Atomic (Atomic.Int y) ] ->
            x mod 3 = y mod 3
          | _ -> false
        in
        let tuples = [ (1, "a"); (4, "b"); (2, "c"); (7, "d"); (3, "e") ] in
        let groups =
          Group.group_scan ~tally ~keys_of:(fun (k, _) -> [ seq_int k ])
            ~equal tuples
        in
        check_int "groups" 3 (List.length groups);
        Alcotest.(check (list (list string)))
          "members, first-occurrence order"
          [ [ "a"; "b"; "d" ]; [ "c" ]; [ "e" ] ]
          (List.map members groups);
        (* representative key is the first member's *)
        (match (List.hd groups).Group.keys with
         | [ [ Item.Atomic (Atomic.Int 1) ] ] -> ()
         | _ -> Alcotest.fail "representative key should be the first tuple's");
        (* newest-first probing: b:1, c:1, d:2 (misses group c first), e:2 *)
        check_int "comparator calls" 6 !tally);
    test "scan grouping short-circuits on key-arity mismatch" (fun () ->
        let tally = ref 0 in
        let keys_of (ks, _) = List.map seq_int ks in
        let equal _i (a : Key.single) (b : Key.single) =
          a.Key.orig = b.Key.orig
        in
        let groups =
          Group.group_scan ~tally ~keys_of ~equal
            [ ([ 1; 2 ], "a"); ([ 1 ], "b") ]
        in
        check_int "groups" 2 (List.length groups);
        (* the first keys match (1 call), then the arity mismatch is
           detected without invoking the comparator again *)
        check_int "comparator calls" 1 !tally);
  ]

(* --- sort-based grouping --------------------------------------------------- *)

let node_key text : Xseq.t =
  [ Item.Node (Xq_xml.Builder.(build (el_text "k" text))) ]

let str_key text : Xseq.t = [ Item.Atomic (Atomic.Str text) ]

let sort_group_tests =
  [
    test "sort grouping splits runs the sort order conflates" (fun () ->
        (* a <k>a</k> element and the string "a" compare 0 under the sort
           order (nodes order by string value) but are not deep-equal, so
           they must land in different groups *)
        check_int "sort order conflates node and string"
          0
          (Group.compare_key_lists [ node_key "a" ] [ str_key "a" ]);
        let tuples =
          [ (node_key "a", 1); (str_key "a", 2); (node_key "a", 3) ]
        in
        let keys_of (k, _) = [ k ] in
        let sorted = Group.group_sort ~keys_of tuples in
        let hashed = Group.group_hash ~keys_of tuples in
        Alcotest.(check (list (list int)))
          "same groups as hash" (List.map members hashed)
          (List.map members sorted);
        check_int "two groups" 2 (List.length sorted));
    test "sorted_output emits groups in nondecreasing key order" (fun () ->
        let tuples =
          List.map (fun k -> (seq_int k, k)) [ 5; 1; 3; 1; 5; 2; 3 ]
        in
        let groups =
          Group.group_sort ~sorted_output:true ~keys_of:(fun (k, _) -> [ k ])
            tuples
        in
        check_int "groups" 4 (List.length groups);
        let keys = List.map (fun g -> g.Group.keys) groups in
        let rec nondecreasing = function
          | a :: (b :: _ as rest) ->
            Group.compare_key_lists a b <= 0 && nondecreasing rest
          | _ -> true
        in
        Alcotest.(check bool) "key order" true (nondecreasing keys);
        Alcotest.(check (list (list int)))
          "members follow input order within each group"
          [ [ 1; 1 ]; [ 2 ]; [ 3; 3 ]; [ 5; 5 ] ]
          (List.map members groups));
  ]

(* --- plan shapes under each strategy --------------------------------------- *)

let plan_of src =
  match (Xq_lang.Parser.parse_query src).Xq_lang.Ast.body with
  | Xq_lang.Ast.Flwor f -> Plan.of_flwor f
  | _ -> Alcotest.fail "expected a FLWOR body"

let pipeline_under strategy src =
  (Optimizer.apply_strategy strategy (plan_of src)).Plan.pipeline

let shape_tests =
  [
    test "sort strategy turns hash grouping into sort grouping" (fun () ->
        match
          pipeline_under Optimizer.Sort
            "for $x in //i group by $x/k into $k return $k"
        with
        | Plan.Sort_group { sorted_output = false; _ } -> ()
        | _ -> Alcotest.fail "expected SORT-GROUP without sorted output");
    test "auto fuses an order-by on exactly the group keys" (fun () ->
        match
          pipeline_under Optimizer.Auto
            "for $x in //i group by $x/k into $k nest $x into $is order by \
             $k return $k"
        with
        | Plan.Sort_group { sorted_output = true; _ } -> ()
        | _ -> Alcotest.fail "expected the sort to fuse into SORT-GROUP");
    test "auto keeps the sort when it is not on the bare keys" (fun () ->
        match
          pipeline_under Optimizer.Auto
            "for $x in //i group by $x/k into $k nest $x into $is order by \
             number($k) return $k"
        with
        | Plan.Sort { input = Plan.Hash_group _; _ } -> ()
        | _ -> Alcotest.fail "number($k) must not be fused");
    test "auto keeps the sort when it is descending" (fun () ->
        match
          pipeline_under Optimizer.Auto
            "for $x in //i group by $x/k into $k nest $x into $is order by \
             $k descending return $k"
        with
        | Plan.Sort { input = Plan.Hash_group _; _ } -> ()
        | _ -> Alcotest.fail "a descending sort must not be fused");
    test "strategies leave using-comparator groupings as scans" (fun () ->
        let src =
          "for $x in //i group by $x/k into $k using deep-equal return $k"
        in
        match
          (pipeline_under Optimizer.Sort src, pipeline_under Optimizer.Auto src)
        with
        | Plan.Scan_group _, Plan.Scan_group _ -> ()
        | _ -> Alcotest.fail "scan groupings must survive every strategy");
  ]

(* --- instrumentation ------------------------------------------------------- *)

let instrumentation_tests =
  [
    test "counted chain reports per-operator rows and groups" (fun () ->
        let doc =
          Xq_xml.Xml_parse.parse
            "<r><i><k>a</k></i><i><k>b</k></i><i><k>a</k></i></r>"
        in
        let q =
          Xq_lang.Parser.parse_query
            "for $i in //i group by $i/k into $k nest $i into $is return $k"
        in
        let plan =
          match q.Xq_lang.Ast.body with
          | Xq_lang.Ast.Flwor f -> Plan.of_flwor f
          | _ -> Alcotest.fail "expected FLWOR"
        in
        let ctx = Exec.query_context ~parallel:1 ~context_node:doc q in
        let stats = ref [] in
        let result = Exec.run ~stats ctx plan in
        let stats = !stats in
        check_int "one entry per operator plus RETURN"
          (Plan.size plan.Plan.pipeline + 1)
          (List.length stats);
        let last = List.nth stats (List.length stats - 1) in
        Alcotest.(check string) "RETURN last" "RETURN" last.Exec.Stats.label;
        check_int "RETURN emits the result" (List.length result)
          last.Exec.Stats.rows_out;
        let by_label l =
          List.find (fun (s : Exec.Stats.entry) -> s.Exec.Stats.label = l) stats
        in
        let group = by_label "HASH-GROUP" in
        check_int "group rows in" 3 group.Exec.Stats.rows_in;
        check_int "group rows out" 2 group.Exec.Stats.rows_out;
        Alcotest.(check (option int))
          "groups built" (Some 2) group.Exec.Stats.groups_built;
        Alcotest.(check bool)
          "duplicate keys force deep-equal probes" true
          (group.Exec.Stats.cmp_calls > 0);
        check_int "expand rows out" 3 (by_label "FOR-EXPAND $i").Exec.Stats.rows_out);
    test "counted chain matches plain execution under every strategy"
      (fun () ->
        let rng = Prng.create 7 in
        let doc = random_doc rng in
        let q = Xq_lang.Parser.parse_query q_ordered in
        let ctx = Exec.query_context ~parallel:1 ~context_node:doc q in
        let expected = serialize (Exec.run_string ~context_node:doc q_ordered) in
        List.iter
          (fun (label, strategy) ->
            let plan =
              match q.Xq_lang.Ast.body with
              | Xq_lang.Ast.Flwor f ->
                Optimizer.apply_strategy strategy (Plan.of_flwor f)
              | _ -> Alcotest.fail "expected FLWOR"
            in
            let stats = ref [] in
            let result = Exec.run ~stats ctx plan in
            let stats = !stats in
            Alcotest.(check string) label expected (serialize result);
            let grouping =
              List.find
                (fun (s : Exec.Stats.entry) ->
                  s.Exec.Stats.groups_built <> None)
                stats
            in
            Alcotest.(check bool)
              (label ^ " counts comparator work") true
              (grouping.Exec.Stats.cmp_calls >= 0))
          strategies);
  ]

(* EXPLAIN ANALYZE runs the query at its own degree: with no [~parallel],
   the query's configured degree (here 4) reaches the grouping operator. *)
let degree_tests =
  [
    test "analysis runs at the query's configured degree" (fun () ->
        let doc = random_doc (Prng.create 11) in
        let out =
          Xq_rewrite.Explain.analyze_query ~timings:false
            ~config:(Xq_governor.Config.resolve ~parallel:4 ())
            ~strategy:Optimizer.Hash ~context_node:doc
            (Xq_lang.Parser.parse_query
               "for $i in //i group by $i/k into $k nest $i into $is \
                return <g>{$k, count($is)}</g>")
        in
        let has sub line =
          let n = String.length line and m = String.length sub in
          let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
          go 0
        in
        match List.find_opt (has "HASH-GROUP") (String.split_on_char '\n' out) with
        | Some line ->
          Alcotest.(check bool) ("par=4 on " ^ line) true (has " par=4" line)
        | None -> Alcotest.failf "no grouping line in\n%s" out);
  ]

(* --- nested FLWORs run on the operator chain -------------------------------- *)

(* A grouped FLWOR inside a [let], and one in a user function body; the
   variable names keep their operator signatures apart from any other
   test's. *)
let let_inner = "for $li in //i group by $li/k into $lk return $lk"
let fn_inner = "for $fi in $r//i group by $fi/k into $fk return $fk"

let nested_queries =
  [
    ("let", let_inner, "let $lg := (" ^ let_inner ^ ") return count($lg)");
    ( "function body",
      fn_inner,
      "declare function local:keys($r as item()*) as item()* { " ^ fn_inner
      ^ " }; count(local:keys(/))" );
  ]

(* The [Plan.op_line] signature of a FLWOR's grouping operator — the key
   its executed group count is recorded under. *)
let group_signature strategy src =
  match Xq_lang.Parser.parse_expr src with
  | Xq_lang.Ast.Flwor f ->
    let rec find (op : Plan.op) =
      match op with
      | Plan.Hash_group _ | Plan.Sort_group _ | Plan.Scan_group _ ->
        Plan.op_line op
      | _ -> (
        match Plan.input_of op with
        | Some input -> find input
        | None -> Alcotest.fail "no grouping operator")
    in
    find
      (Exec.plan_flwor ~config:{ Xq_governor.Config.default with strategy } f)
        .Plan.pipeline
  | _ -> Alcotest.fail "expected FLWOR"

let nested_tests =
  List.concat_map
    (fun (label, strategy) ->
      List.map
        (fun (where, inner, query) ->
          test
            (Printf.sprintf "a grouped FLWOR in a %s records its groups (%s)"
               where label)
            (fun () ->
              let doc =
                Xq_xml.Xml_parse.parse
                  "<r><i><k>a</k></i><i><k>b</k></i><i><k>a</k></i></r>"
              in
              let knobs =
                { Xq_pipeline.Pipeline.default_knobs with k_strategy = Some strategy }
              in
              let report =
                Xq_pipeline.Pipeline.run ~knobs ~source:query
                  ~load_doc:(fun () -> doc)
                  ()
              in
              Alcotest.(check string) "result" "2" report.Xq_pipeline.Pipeline.r_output;
              Alcotest.(check (option int))
                "recorded group count" (Some 2)
                (Optimizer.estimated_groups
                   ~signature:(group_signature strategy inner))))
        nested_queries)
    [ ("hash", Optimizer.Hash); ("sort", Optimizer.Sort) ]

(* --- order invariants of the sort comparator (qcheck) ---------------------- *)

let order_props =
  [
    QCheck.Test.make ~count:500
      ~name:"deep-equal key lists compare 0 under the sort order"
      (QCheck.pair Test_props.arb_sequence Test_props.arb_sequence)
      (fun (a, b) ->
        (not (Deep_equal.sequences a b))
        || Group.compare_key_lists [ a ] [ b ] = 0);
    QCheck.Test.make ~count:500 ~name:"the sort order is antisymmetric"
      (QCheck.pair Test_props.arb_sequence Test_props.arb_sequence)
      (fun (a, b) ->
        let sign n = compare n 0 in
        sign (Group.compare_key_lists [ a ] [ b ])
        = -sign (Group.compare_key_lists [ b ] [ a ]));
    QCheck.Test.make ~count:300
      ~name:"group_sort ≡ group_hash on random key sequences"
      (QCheck.list_of_size (QCheck.Gen.int_range 0 25) Test_props.arb_sequence)
      (fun keys ->
        let tuples = List.mapi (fun i k -> (k, i)) keys in
        let keys_of (k, _) = [ k ] in
        List.map members (Group.group_sort ~keys_of tuples)
        = List.map members (Group.group_hash ~keys_of tuples));
    QCheck.Test.make ~count:300
      ~name:"sorted_output is the same partition, reordered"
      (QCheck.list_of_size (QCheck.Gen.int_range 0 25) Test_props.arb_sequence)
      (fun keys ->
        let tuples = List.mapi (fun i k -> (k, i)) keys in
        let keys_of (k, _) = [ k ] in
        let as_multiset groups =
          List.sort compare (List.map members groups)
        in
        as_multiset (Group.group_sort ~sorted_output:true ~keys_of tuples)
        = as_multiset (Group.group_hash ~keys_of tuples));
  ]

let suites =
  [
    ("strategies.differential", differential_tests);
    ("strategies.batch", batch_tests);
    ("strategies.collisions", collision_tests);
    ("strategies.scan", scan_tests);
    ("strategies.sort-group", sort_group_tests);
    ("strategies.plans", shape_tests);
    ("strategies.instrumentation", instrumentation_tests);
    ("strategies.degree", degree_tests);
    ("strategies.nested", nested_tests);
    ("strategies.order", List.map to_alcotest order_props);
  ]
