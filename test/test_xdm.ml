(* Unit tests for the data-model substrate: names, atomic values,
   dateTime, nodes, sequences. *)

open Xq_xdm
open Helpers

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- Xname ------------------------------------------------------------ *)

let xname_tests =
  [
    test "of_string splits on colon" (fun () ->
        let n = Xname.of_string "local:set-equal" in
        check_string "prefix" "local" (Option.get n.Xname.prefix);
        check_string "local" "set-equal" n.Xname.local);
    test "of_string without colon" (fun () ->
        let n = Xname.of_string "book" in
        check_bool "no prefix" true (n.Xname.prefix = None));
    test "to_string round-trips" (fun () ->
        check_string "qname" "fn:count" (Xname.to_string (Xname.of_string "fn:count"));
        check_string "plain" "book" (Xname.to_string (Xname.of_string "book")));
    test "equal distinguishes prefixes" (fun () ->
        check_bool "eq" true (Xname.equal (Xname.of_string "a:x") (Xname.of_string "a:x"));
        check_bool "ne" false (Xname.equal (Xname.of_string "a:x") (Xname.of_string "b:x"));
        check_bool "ne2" false (Xname.equal (Xname.of_string "x") (Xname.of_string "b:x")));
    test "intern shares one name per spelling" (fun () ->
        let tbl = Xname.table () in
        let src = "a:x b a:x" in
        let first = Xname.intern tbl src 0 3 and again = Xname.intern tbl src 6 3 in
        check_bool "same spelling, same name" true (first == again);
        check_string "split as of_string" "a" (Option.get first.Xname.prefix);
        check_bool "other spelling differs" false
          (Xname.equal first (Xname.intern tbl src 4 1));
        check_bool "a fresh table, equal but not shared" true
          (let other = Xname.intern (Xname.table ()) src 0 3 in
           other != first && Xname.equal other first));
    test "is_default_fn" (fun () ->
        check_bool "bare" true (Xname.is_default_fn (Xname.of_string "count"));
        check_bool "fn" true (Xname.is_default_fn (Xname.of_string "fn:count"));
        check_bool "local" false (Xname.is_default_fn (Xname.of_string "local:f")));
  ]

(* --- Atomic ------------------------------------------------------------ *)

let atomic_tests =
  [
    test "float_to_string canonical forms" (fun () ->
        check_string "int-valued" "10" (Atomic.float_to_string 10.0);
        check_string "fraction" "10.5" (Atomic.float_to_string 10.5);
        check_string "NaN" "NaN" (Atomic.float_to_string Float.nan);
        check_string "INF" "INF" (Atomic.float_to_string Float.infinity);
        check_string "-INF" "-INF" (Atomic.float_to_string Float.neg_infinity));
    test "to_string per type" (fun () ->
        check_string "int" "42" (Atomic.to_string (Atomic.Int 42));
        check_string "dec" "59" (Atomic.to_string (Atomic.Dec 59.00));
        check_string "bool" "true" (Atomic.to_string (Atomic.Bool true));
        check_string "str" "x" (Atomic.to_string (Atomic.Str "x")));
    test "number casts" (fun () ->
        check_bool "untyped" true (Atomic.number (Atomic.Untyped "3.5") = 3.5);
        check_bool "garbage is NaN" true (Float.is_nan (Atomic.number (Atomic.Str "abc")));
        check_bool "bool" true (Atomic.number (Atomic.Bool true) = 1.0));
    test "cast_to_integer" (fun () ->
        check_int "untyped" 7 (Atomic.cast_to_integer (Atomic.Untyped " 7 "));
        check_int "dec truncates" 3 (Atomic.cast_to_integer (Atomic.Dec 3.9));
        check_int "neg dec truncates" (-3) (Atomic.cast_to_integer (Atomic.Dec (-3.9))));
    test "cast_to_integer failure" (fun () ->
        match Atomic.cast_to_integer (Atomic.Str "x7") with
        | _ -> Alcotest.fail "expected FORG0001"
        | exception Xerror.Error (Xerror.FORG0001, _) -> ());
    test "value_compare untyped as string" (fun () ->
        (* value comparison: untyped is a string, so "10" < "9" *)
        match Atomic.value_compare (Atomic.Untyped "10") (Atomic.Untyped "9") with
        | Atomic.Ordered c -> check_bool "lexicographic" true (c < 0)
        | _ -> Alcotest.fail "expected ordered");
    test "general_compare casts untyped to double vs numeric" (fun () ->
        match Atomic.general_compare (Atomic.Untyped "10") (Atomic.Int 9) with
        | Atomic.Ordered c -> check_bool "numeric" true (c > 0)
        | _ -> Alcotest.fail "expected ordered");
    test "general_compare untyped vs dateTime" (fun () ->
        let dt = Atomic.cast_to_date_time (Atomic.Str "2004-01-31T11:32:07") in
        match
          Atomic.general_compare (Atomic.Untyped "2004-01-31T11:32:07")
            (Atomic.DateTime dt)
        with
        | Atomic.Ordered 0 -> ()
        | _ -> Alcotest.fail "expected equal");
    test "incomparable types" (fun () ->
        match Atomic.value_compare (Atomic.Bool true) (Atomic.Int 1) with
        | Atomic.Incomparable -> ()
        | _ -> Alcotest.fail "expected incomparable");
    test "NaN is unordered but deep-equal to NaN" (fun () ->
        (match Atomic.value_compare (Atomic.Dbl Float.nan) (Atomic.Dbl 1.0) with
         | Atomic.Unordered -> ()
         | _ -> Alcotest.fail "expected unordered");
        check_bool "deep_eq" true
          (Atomic.deep_eq (Atomic.Dbl Float.nan) (Atomic.Dbl Float.nan)));
    test "deep_eq numeric across constructors" (fun () ->
        check_bool "int=dec" true (Atomic.deep_eq (Atomic.Int 3) (Atomic.Dec 3.0));
        check_bool "hash agrees" true (Atomic.hash (Atomic.Int 3) = Atomic.hash (Atomic.Dec 3.0)));
    test "deep_eq untyped/string hash agreement" (fun () ->
        check_bool "eq" true (Atomic.deep_eq (Atomic.Untyped "a") (Atomic.Str "a"));
        check_bool "hash" true
          (Atomic.hash (Atomic.Untyped "a") = Atomic.hash (Atomic.Str "a")));
  ]

(* --- Xdatetime ---------------------------------------------------------- *)

let datetime_tests =
  [
    test "parse_date_time basic" (fun () ->
        match Xdatetime.parse_date_time "2004-01-31T11:32:07" with
        | Some dt ->
          check_int "year" 2004 dt.Xdatetime.year;
          check_int "month" 1 dt.Xdatetime.month;
          check_int "day" 31 dt.Xdatetime.day;
          check_int "hour" 11 dt.Xdatetime.hour;
          check_bool "no tz" true (dt.Xdatetime.tz_minutes = None)
        | None -> Alcotest.fail "parse failed");
    test "parse_date_time with fraction and zulu" (fun () ->
        match Xdatetime.parse_date_time "1999-12-31T23:59:59.5Z" with
        | Some dt ->
          check_bool "sec" true (dt.Xdatetime.second = 59.5);
          check_bool "tz" true (dt.Xdatetime.tz_minutes = Some 0)
        | None -> Alcotest.fail "parse failed");
    test "parse_date_time with offset" (fun () ->
        match Xdatetime.parse_date_time "2004-06-01T00:00:00-08:00" with
        | Some dt -> check_bool "tz" true (dt.Xdatetime.tz_minutes = Some (-480))
        | None -> Alcotest.fail "parse failed");
    test "parse rejects malformed" (fun () ->
        check_bool "no T" true (Xdatetime.parse_date_time "2004-01-31 11:32:07" = None);
        check_bool "bad month" true (Xdatetime.parse_date_time "2004-13-01T00:00:00" = None);
        check_bool "bad day" true (Xdatetime.parse_date "2003-02-29" = None);
        check_bool "trailing" true (Xdatetime.parse_date "2004-01-31x" = None));
    test "leap years" (fun () ->
        check_bool "2004" true (Xdatetime.is_leap_year 2004);
        check_bool "1900" false (Xdatetime.is_leap_year 1900);
        check_bool "2000" true (Xdatetime.is_leap_year 2000);
        check_bool "2003" false (Xdatetime.is_leap_year 2003);
        check_bool "feb-2004" true (Xdatetime.parse_date "2004-02-29" <> None));
    test "days_from_civil epoch" (fun () ->
        check_int "epoch" 0 (Xdatetime.days_from_civil ~year:1970 ~month:1 ~day:1);
        check_int "next day" 1 (Xdatetime.days_from_civil ~year:1970 ~month:1 ~day:2);
        check_int "y2k" 10957 (Xdatetime.days_from_civil ~year:2000 ~month:1 ~day:1));
    test "compare normalizes timezones" (fun () ->
        let a = Option.get (Xdatetime.parse_date_time "2004-06-01T10:00:00Z") in
        let b = Option.get (Xdatetime.parse_date_time "2004-06-01T05:00:00-05:00") in
        check_int "equal instants" 0 (Xdatetime.compare_date_time a b));
    test "compare orders correctly" (fun () ->
        let a = Option.get (Xdatetime.parse_date_time "2003-12-31T23:59:59") in
        let b = Option.get (Xdatetime.parse_date_time "2004-01-01T00:00:00") in
        check_bool "lt" true (Xdatetime.compare_date_time a b < 0));
    test "to_string round-trips" (fun () ->
        let s = "2004-01-31T11:32:07" in
        let dt = Option.get (Xdatetime.parse_date_time s) in
        check_string "rt" s (Xdatetime.date_time_to_string dt);
        let s2 = "2004-01-31T11:32:07.25Z" in
        let dt2 = Option.get (Xdatetime.parse_date_time s2) in
        check_string "rt2" s2 (Xdatetime.date_time_to_string dt2));
    test "date compare" (fun () ->
        let a = Option.get (Xdatetime.parse_date "2004-01-31") in
        let b = Option.get (Xdatetime.parse_date "2004-02-01") in
        check_bool "lt" true (Xdatetime.compare_date a b < 0));
  ]

(* --- Node --------------------------------------------------------------- *)

let make_tree () =
  (* <root a="1"><x>t1</x><y><z/>t2</y></root> in a document *)
  let d = Node.document () in
  let root = Node.element (Xname.of_string "root") in
  Node.set_attribute root (Node.attribute (Xname.of_string "a") "1");
  let x = Node.element (Xname.of_string "x") in
  Node.append_child x (Node.text "t1");
  let y = Node.element (Xname.of_string "y") in
  let z = Node.element (Xname.of_string "z") in
  Node.append_child y z;
  Node.append_child y (Node.text "t2");
  Node.append_child root x;
  Node.append_child root y;
  Node.append_child d root;
  (d, root, x, y, z)

let node_tests =
  [
    test "children in document order" (fun () ->
        let _, root, x, y, _ = make_tree () in
        match Node.children root with
        | [ a; b ] ->
          check_bool "x first" true (Node.same a x);
          check_bool "y second" true (Node.same b y)
        | _ -> Alcotest.fail "expected two children");
    test "parent links" (fun () ->
        let _, root, x, _, z = make_tree () in
        check_bool "x->root" true (Node.same (Option.get (Node.parent x)) root);
        check_bool "root of z" true
          (Node.kind (Node.root z) = Node.Document));
    test "string_value concatenates descendant text" (fun () ->
        let _, root, _, _, _ = make_tree () in
        check_string "sv" "t1t2" (Node.string_value root));
    test "descendants preorder" (fun () ->
        let _, root, _, _, _ = make_tree () in
        let names = List.map Node.local_name (Node.descendants root) in
        Alcotest.(check (list string)) "order" [ "x"; ""; "y"; "z"; "" ] names);
    test "doc order ids are preorder" (fun () ->
        let d, root, x, y, z = make_tree () in
        let ids = List.map Node.id [ d; root; x; y; z ] in
        check_bool "ascending" true
          (List.sort compare ids = ids));
    test "siblings" (fun () ->
        let _, _, x, y, _ = make_tree () in
        check_bool "following" true
          (List.exists (Node.same y) (Node.following_siblings x));
        check_bool "preceding" true
          (List.exists (Node.same x) (Node.preceding_siblings y)));
    test "ancestors bottom-up" (fun () ->
        let d, root, _, y, z = make_tree () in
        match Node.ancestors z with
        | [ a; b; c ] ->
          check_bool "y" true (Node.same a y);
          check_bool "root" true (Node.same b root);
          check_bool "doc" true (Node.same c d)
        | _ -> Alcotest.fail "expected three ancestors");
    test "copy is deep and fresh" (fun () ->
        let _, root, _, _, _ = make_tree () in
        let c = Node.copy root in
        check_bool "not same" false (Node.same c root);
        check_bool "deep-equal" true (Deep_equal.nodes c root);
        check_string "string value" (Node.string_value root) (Node.string_value c));
    test "duplicate attribute rejected" (fun () ->
        let el = Node.element (Xname.of_string "e") in
        Node.set_attribute el (Node.attribute (Xname.of_string "a") "1");
        match Node.set_attribute el (Node.attribute (Xname.of_string "a") "2") with
        | () -> Alcotest.fail "expected XQDY0025"
        | exception Xerror.Error (Xerror.XQDY0025, _) -> ());
    test "attribute child rejected" (fun () ->
        let el = Node.element (Xname.of_string "e") in
        match Node.append_child el (Node.attribute (Xname.of_string "a") "1") with
        | () -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    test "sort_in_doc_order dedupes and sorts" (fun () ->
        let _, root, x, y, _ = make_tree () in
        let sorted = Node.sort_in_doc_order [ y; x; root; y ] in
        check_int "three nodes" 3 (List.length sorted);
        match sorted with
        | [ a; _; _ ] -> check_bool "root first" true (Node.same a root)
        | _ -> Alcotest.fail "expected three");
    test "typed_value is untyped for elements" (fun () ->
        let _, _, x, _, _ = make_tree () in
        match Node.typed_value x with
        | Atomic.Untyped "t1" -> ()
        | _ -> Alcotest.fail "expected Untyped t1");
  ]

(* --- node layout: seal on close ------------------------------------------ *)

let names ns = List.map Node.local_name ns

(* Element names, depth-first, with each element's children read twice:
   both reads must return the one stored list, except for a leaf, whose
   read builds its text child afresh (see [Helpers.leaf_read_ok]). *)
let rec sealed_names n =
  if Node.is_leaf n then begin
    if not (leaf_read_ok n) then Alcotest.fail "leaf read breaks its contract";
    []
  end
  else begin
    let kids = Node.children n in
    if kids != Node.children n then Alcotest.fail "children read is not the stored list";
    List.concat_map
      (fun c -> if Node.is_element c then Node.local_name c :: sealed_names c else [])
      kids
  end

let layout_tests =
  [
    test "unsealed nodes read in document order" (fun () ->
        let _, root, _, y, _ = make_tree () in
        Alcotest.(check (list string)) "root" [ "x"; "y" ] (names (Node.children root));
        Alcotest.(check (list string)) "y" [ "z"; "" ] (names (Node.children y)));
    test "seal keeps order and makes reads allocation-free" (fun () ->
        let d, root, x, y, z = make_tree () in
        List.iter Node.seal [ d; root; x; y; z ];
        Alcotest.(check (list string)) "order" [ "root"; "x"; "y"; "z" ] (sealed_names d);
        let w0 = Gc.minor_words () in
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (Node.children root));
          ignore (Sys.opaque_identity (Node.attributes root))
        done;
        check_bool "no allocation" true (Gc.minor_words () -. w0 < 64.));
    test "appending to a sealed node reopens it" (fun () ->
        let el = Node.element (Xname.of_string "e") in
        let add n = Node.append_child el (Node.element (Xname.of_string n)) in
        add "a";
        add "b";
        Node.seal el;
        add "c";
        Node.set_attribute el (Node.attribute (Xname.of_string "k") "v");
        Alcotest.(check (list string)) "open" [ "a"; "b"; "c" ] (names (Node.children el));
        Node.seal el;
        add "d";
        Node.seal el;
        Alcotest.(check (list string)) "resealed" [ "a"; "b"; "c"; "d" ] (sealed_names el);
        Alcotest.(check (list string)) "attribute" [ "k" ] (names (Node.attributes el)));
    test "parent of a root is None" (fun () ->
        let d, root, _, _, _ = make_tree () in
        check_bool "document" true (Node.parent d = None);
        check_bool "detached" true (Node.parent (Node.element (Xname.of_string "e")) = None);
        check_bool "root element" true (Node.same (Option.get (Node.parent root)) d));
    test "binio round trip yields sealed children in document order" (fun () ->
        let _, root, _, _, _ = make_tree () in
        let detached = Node.copy root in
        let reg = Binio.registry ~detach:true () in
        let buf = Buffer.create 64 in
        Binio.put_item reg buf (Item.Node detached);
        match Binio.get_item reg (Binio.reader (Buffer.contents buf)) with
        | Item.Node n ->
          check_bool "a new tree" true (n != detached);
          check_bool "same ids" true (Node.same n detached);
          Alcotest.(check (list string)) "order" [ "x"; "y"; "z" ] (sealed_names n);
          check_bool "deep-equal" true (Deep_equal.nodes n root)
        | Item.Atomic _ -> Alcotest.fail "expected a node");
  ]

(* --- Xseq ---------------------------------------------------------------- *)

let seq_tests =
  [
    test "effective_boolean_value rules" (fun () ->
        check_bool "empty" false (Xseq.effective_boolean_value []);
        check_bool "node" true
          (Xseq.effective_boolean_value [ Item.Node (Node.text "x") ]);
        check_bool "true" true (Xseq.effective_boolean_value (Xseq.of_bool true));
        check_bool "zero" false (Xseq.effective_boolean_value (Xseq.of_int 0));
        check_bool "nonzero" true (Xseq.effective_boolean_value (Xseq.of_int 7));
        check_bool "empty string" false (Xseq.effective_boolean_value (Xseq.of_string ""));
        check_bool "string" true (Xseq.effective_boolean_value (Xseq.of_string "a")));
    test "ebv error on multi-atomic" (fun () ->
        match Xseq.effective_boolean_value [ Item.of_int 1; Item.of_int 2 ] with
        | _ -> Alcotest.fail "expected FORG0006"
        | exception Xerror.Error (Xerror.FORG0006, _) -> ());
    test "zero_or_one / exactly_one" (fun () ->
        check_bool "empty" true (Xseq.zero_or_one [] = None);
        (match Xseq.exactly_one [ Item.of_int 1 ] with
         | Item.Atomic (Atomic.Int 1) -> ()
         | _ -> Alcotest.fail "wrong item");
        (match Xseq.exactly_one [] with
         | _ -> Alcotest.fail "expected XPTY0004"
         | exception Xerror.Error (Xerror.XPTY0004, _) -> ()));
    test "string_of" (fun () ->
        check_string "empty" "" (Xseq.string_of []);
        check_string "single" "42" (Xseq.string_of (Xseq.of_int 42)));
  ]

(* --- Deep_equal ----------------------------------------------------------- *)

let deep_equal_tests =
  [
    test "sequences: order matters (permutations distinct)" (fun () ->
        let a = [ Item.of_string "Gray"; Item.of_string "Reuter" ] in
        let b = [ Item.of_string "Reuter"; Item.of_string "Gray" ] in
        check_bool "same" true (Deep_equal.sequences a a);
        check_bool "permuted" false (Deep_equal.sequences a b));
    test "empty sequence equals only itself" (fun () ->
        check_bool "both empty" true (Deep_equal.sequences [] []);
        check_bool "one empty" false (Deep_equal.sequences [] [ Item.of_int 1 ]));
    test "nodes: attributes compare as a set" (fun () ->
        let e1 = Node.element (Xname.of_string "e") in
        Node.set_attribute e1 (Node.attribute (Xname.of_string "a") "1");
        Node.set_attribute e1 (Node.attribute (Xname.of_string "b") "2");
        let e2 = Node.element (Xname.of_string "e") in
        Node.set_attribute e2 (Node.attribute (Xname.of_string "b") "2");
        Node.set_attribute e2 (Node.attribute (Xname.of_string "a") "1");
        check_bool "attr order ignored" true (Deep_equal.nodes e1 e2));
    test "nodes: comments ignored in children" (fun () ->
        let e1 = Node.element (Xname.of_string "e") in
        Node.append_child e1 (Node.comment "hi");
        Node.append_child e1 (Node.text "x");
        let e2 = Node.element (Xname.of_string "e") in
        Node.append_child e2 (Node.text "x");
        check_bool "comment ignored" true (Deep_equal.nodes e1 e2));
    test "node vs atomic never equal" (fun () ->
        check_bool "mixed" false
          (Deep_equal.items (Item.Node (Node.text "1")) (Item.of_string "1")));
    test "hash consistent with equality" (fun () ->
        let a = [ Item.of_string "x"; Item.of_int 3 ] in
        let b = [ Item.of_string "x"; Item.Atomic (Atomic.Dec 3.0) ] in
        check_bool "equal" true (Deep_equal.sequences a b);
        check_bool "hashes" true
          (Deep_equal.hash_sequence a = Deep_equal.hash_sequence b));
  ]

let suites =
  [
    ("xdm.xname", xname_tests);
    ("xdm.atomic", atomic_tests);
    ("xdm.datetime", datetime_tests);
    ("xdm.node", node_tests);
    ("xdm.layout", layout_tests);
    ("xdm.xseq", seq_tests);
    ("xdm.deep-equal", deep_equal_tests);
  ]
