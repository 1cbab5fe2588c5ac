(* Tests for the workload generators: determinism, shape, cardinalities. *)

open Xq_xdm
open Xq_workload
open Helpers

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let prng_tests =
  [
    test "deterministic for a fixed seed" (fun () ->
        let a = Prng.create 1 and b = Prng.create 1 in
        let xs = List.init 20 (fun _ -> Prng.int a 1000) in
        let ys = List.init 20 (fun _ -> Prng.int b 1000) in
        Alcotest.(check (list int)) "same stream" xs ys);
    test "different seeds differ" (fun () ->
        let a = Prng.create 1 and b = Prng.create 2 in
        let xs = List.init 20 (fun _ -> Prng.int a 1000) in
        let ys = List.init 20 (fun _ -> Prng.int b 1000) in
        check_bool "different" false (xs = ys));
    test "int stays in range" (fun () ->
        let rng = Prng.create 3 in
        for _ = 1 to 1000 do
          let v = Prng.int rng 7 in
          check_bool "in range" true (v >= 0 && v < 7)
        done);
    test "float stays in range" (fun () ->
        let rng = Prng.create 4 in
        for _ = 1 to 1000 do
          let v = Prng.float rng 2.5 in
          check_bool "in range" true (v >= 0.0 && v < 2.5)
        done);
    test "pick covers the array" (fun () ->
        let rng = Prng.create 5 in
        let seen = Array.make 4 false in
        for _ = 1 to 200 do
          seen.(Prng.int rng 4) <- true
        done;
        check_bool "all hit" true (Array.for_all Fun.id seen));
  ]

let bibliography_tests =
  [
    test "deterministic output" (fun () ->
        let d1 = Bibliography.generate Bibliography.default in
        let d2 = Bibliography.generate Bibliography.default in
        check_bool "deep-equal" true (Deep_equal.nodes d1 d2));
    test "book count" (fun () ->
        let d = Bibliography.generate { Bibliography.default with books = 37 } in
        check_string "count" "37" (run_on d "count(//book)"));
    test "publishers bounded by cardinality" (fun () ->
        let d =
          Bibliography.generate
            { Bibliography.default with books = 200; publishers = 5 }
        in
        let n = int_of_string (run_on d "count(distinct-values(//book/publisher))") in
        check_bool "≤5" true (n <= 5));
    test "some books lack publishers" (fun () ->
        let d =
          Bibliography.generate
            { Bibliography.default with books = 200; missing_publisher_rate = 3 }
        in
        let n = int_of_string (run_on d "count(//book[empty(publisher)])") in
        check_bool "some missing" true (n > 0));
    test "categories form paths from the vocabulary" (fun () ->
        let d =
          Bibliography.generate
            { Bibliography.default with books = 50; with_categories = true }
        in
        let tops = run_on d "distinct-values(for $c in //categories/* return local-name($c))" in
        check_bool "nonempty" true (String.length tops > 0);
        check_bool "vocabulary has all paths" true
          (List.mem "software/db/concurrency" Bibliography.category_paths));
    test "prices parse as numbers" (fun () ->
        let d = Bibliography.generate { Bibliography.default with books = 20 } in
        check_string "all numeric" "true"
          (run_on d "every $p in //book/price satisfies number($p) >= 0"));
  ]

let sales_tests =
  [
    test "sale count and shape" (fun () ->
        let d = Sales.generate { Sales.default with sales = 50 } in
        check_string "count" "50" (run_on d "count(//sale)");
        check_string "children" "true"
          (run_on d
             "every $s in //sale satisfies (exists($s/timestamp) and \
              exists($s/state) and exists($s/region) and exists($s/quantity) \
              and exists($s/price))"));
    test "state/region pairs honour the hierarchy" (fun () ->
        let d = Sales.generate { Sales.default with sales = 100 } in
        List.iter
          (fun (state, region) ->
            let q =
              Printf.sprintf
                "every $s in //sale[state = \"%s\"] satisfies $s/region = \"%s\""
                state region
            in
            check_string state "true" (run_on d q))
          Sales.state_regions);
    test "timestamps parse as xs:dateTime" (fun () ->
        let d = Sales.generate { Sales.default with sales = 30 } in
        check_string "parse" "true"
          (run_on d
             "every $s in //sale satisfies \
              year-from-dateTime(xs:dateTime($s/timestamp)) >= 2000"));
    test "regions list is derived from the table" (fun () ->
        check_int "four regions" 4 (List.length Sales.regions));
  ]

let orders_tests =
  [
    test "with_lineitems sizes the collection" (fun () ->
        let p = Orders.(with_lineitems 1000 default) in
        let d = Orders.generate p in
        let n = Orders.lineitem_count d in
        (* expectation 1000, generator draws 1..7 per order *)
        check_bool "within 25%" true (abs (n - 1000) < 250));
    test "grouping-element cardinalities respected" (fun () ->
        let p =
          { Orders.default with
            Orders.orders = 300; shipinstruct_card = 4; shipmode_card = 7;
            tax_card = 9; quantity_card = 50 }
        in
        let d = Orders.generate p in
        let distinct path =
          int_of_string
            (run_on d (Printf.sprintf "count(distinct-values(//lineitem/%s))" path))
        in
        check_bool "shipinstruct" true (distinct "shipinstruct" <= 4);
        check_bool "shipmode" true (distinct "shipmode" <= 7);
        check_bool "tax" true (distinct "tax" <= 9);
        check_bool "quantity" true (distinct "quantity" <= 50);
        check_int "shipinstruct exact" 4 (distinct "shipinstruct"));
    test "each grouping element occurs exactly once per lineitem (Section 6)" (fun () ->
        let d = Orders.generate { Orders.default with Orders.orders = 50 } in
        check_string "exactly one" "true"
          (run_on d
             "every $l in //lineitem satisfies (count($l/shipinstruct) = 1 \
              and count($l/shipmode) = 1 and count($l/tax) = 1 and \
              count($l/quantity) = 1)"));
    test "average of four lineitems per order" (fun () ->
        let d = Orders.generate { Orders.default with Orders.orders = 500 } in
        let items = Orders.lineitem_count d in
        let avg = float_of_int items /. 500.0 in
        check_bool "≈4" true (avg > 3.0 && avg < 5.0));
    test "deterministic output" (fun () ->
        let p = { Orders.default with Orders.orders = 20 } in
        check_bool "deep-equal" true
          (Deep_equal.nodes (Orders.generate p) (Orders.generate p)));
  ]

(* The MD5 of [Serialize.node] of each document perfbench generates, of
   [xq gen orders --size 2000]'s (the CLI's Orders parameters; its
   [sales --size 400] and [bibliography --size 300] are perfbench's),
   and of the default Auction document. The generators draw from one
   [Prng] stream, so a draw moved or a number formatted differently
   changes these bytes; perfbench's committed digests depend on them.
   [workload.cli] checks that [xq gen] prints the tree and a newline. *)
let pinned_tests =
  let md5 d = Digest.to_hex (Digest.string (Xq_xml.Serialize.node d)) in
  let orders n =
    Orders.generate { (Orders.with_lineitems n Orders.default) with tax_card = 100; seed = 42 }
  in
  let pin name digest gen = test name (fun () -> check_string name digest (md5 (gen ()))) in
  [
    pin "orders 2000 lineitems" "615d4199901900ee2c02e80c853afa16" (fun () -> orders 2000);
    pin "orders 2000 lineitems, xq gen's parameters" "5b786c21207626a7015dc1a77fc06c52"
      (fun () -> Orders.generate { (Orders.with_lineitems 2000 Orders.default) with seed = 42 });
    pin "orders 3000 lineitems" "faef6b9c95535fcfb9ff88b788b4e9b0" (fun () -> orders 3000);
    pin "sales 400" "e9a1552067bd6bb6bc9222c073a7c6a1" (fun () ->
        Sales.generate { Sales.default with sales = 400; seed = 42 });
    pin "bibliography 300 with categories" "916fce4f17d3c741b96d23e489ebba4d" (fun () ->
        Bibliography.generate
          { Bibliography.default with books = 300; with_categories = true; seed = 42 });
    pin "auction default" "da8b49472bc76a00c7cbe605022675ac" (fun () ->
        Auction.generate Auction.default);
  ]

(* [xq gen] prints the generator's document and a newline; [--size] is
   the item count for Auction. *)
let cli_tests =
  let cli = Filename.concat ".." (Filename.concat "bin" "xq_cli.exe") in
  [
    test "xq gen auction sets items from --size" (fun () ->
        let args = [| cli; "gen"; "auction"; "--size"; "12"; "--seed"; "5" |] in
        let ic = Unix.open_process_args_in cli args in
        let out = In_channel.input_all ic in
        check_bool "exit 0" true (Unix.close_process_in ic = Unix.WEXITED 0);
        let d = Auction.generate { Auction.default with items = 12; seed = 5 } in
        check_string "document" (Xq_xml.Serialize.node d ^ "\n") out;
        check_string "items" "12" (run_on d "count(//item)"));
  ]

let suites =
  [
    ("workload.prng", prng_tests);
    ("workload.bibliography", bibliography_tests);
    ("workload.sales", sales_tests);
    ("workload.orders", orders_tests);
    ("workload.pinned", pinned_tests);
    ("workload.cli", cli_tests);
  ]
