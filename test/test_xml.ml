(* Tests for the XML parser, serializer and builder. *)

open Xq_xdm
open Helpers

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse = Xq_xml.Xml_parse.parse
let parse_fragment = Xq_xml.Xml_parse.parse_fragment
let serialize = Xq_xml.Serialize.node

let roundtrip src = serialize (List.hd (Node.children (parse src)))

let parser_tests =
  [
    test "simple element" (fun () ->
        check_string "rt" "<a><b>x</b></a>" (roundtrip "<a><b>x</b></a>"));
    test "attributes both quote styles" (fun () ->
        check_string "rt" {|<a x="1" y="two"/>|} (roundtrip "<a x='1' y=\"two\"/>"));
    test "self-closing vs empty pair serialize alike" (fun () ->
        check_string "rt" "<a/>" (roundtrip "<a></a>"));
    test "predefined entities" (fun () ->
        let el = parse_fragment "<a>&lt;&gt;&amp;&apos;&quot;</a>" in
        check_string "decoded" "<>&'\"" (Node.string_value el));
    test "character references" (fun () ->
        let el = parse_fragment "<a>&#65;&#x42;</a>" in
        check_string "decoded" "AB" (Node.string_value el));
    test "CDATA" (fun () ->
        let el = parse_fragment "<a><![CDATA[<not> & markup]]></a>" in
        check_string "cdata" "<not> & markup" (Node.string_value el));
    test "comments preserved" (fun () ->
        let el = parse_fragment "<a><!--note--><b/></a>" in
        match Node.children el with
        | [ c; b ] ->
          check_bool "comment" true (Node.kind c = Node.Comment);
          check_string "text" "note" (Node.comment_text c);
          check_string "b" "b" (Node.local_name b)
        | _ -> Alcotest.fail "expected comment + element");
    test "processing instructions" (fun () ->
        let el = parse_fragment "<a><?php echo ?></a>" in
        match Node.children el with
        | [ p ] ->
          check_string "target" "php" (Node.pi_target p);
          check_string "data" "echo " (Node.pi_data p)
        | _ -> Alcotest.fail "expected a PI");
    test "whitespace-only text dropped by default" (fun () ->
        let el = parse_fragment "<a>\n  <b/>\n  <c/>\n</a>" in
        check_int "children" 2 (List.length (Node.children el)));
    test "an empty CDATA keeps no later whitespace" (fun () ->
        let src = "<r><a><![CDATA[]]></a> <b/></r>" in
        check_string "parsed" "<r><a/><b/></r>" (roundtrip src);
        check_string "streamed" "<r><a/><b/></r>"
          (String.concat ""
             (List.map serialize
                (Xq_xml.Xml_stream.collect
                   ~path:[ { Xq_xml.Xml_stream.desc = false; test = Xq_xml.Xml_stream.Any } ]
                   (`String src)))));
    test "whitespace kept on request" (fun () ->
        let el = parse_fragment ~keep_whitespace:true "<a> <b/> </a>" in
        check_int "children" 3 (List.length (Node.children el)));
    test "mixed content keeps interior whitespace" (fun () ->
        let el = parse_fragment "<a>hello <b/> world</a>" in
        check_string "sv" "hello  world" (Node.string_value el));
    test "XML declaration and DOCTYPE skipped" (fun () ->
        let d = parse "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a ANY>]><a/>" in
        match Node.children d with
        | [ a ] -> check_string "root" "a" (Node.local_name a)
        | _ -> Alcotest.fail "expected one root");
    test "attribute entities" (fun () ->
        let el = parse_fragment "<a x=\"1 &amp; 2\"/>" in
        match Node.attributes el with
        | [ at ] -> check_string "value" "1 & 2" (Node.attribute_value at)
        | _ -> Alcotest.fail "expected one attribute");
    test "deep nesting" (fun () ->
        let el = parse_fragment "<a><b><c><d><e>deep</e></d></c></b></a>" in
        check_string "sv" "deep" (Node.string_value el));
    test "ids assigned in document order" (fun () ->
        let d = parse "<a><b/><c><d/></c></a>" in
        let ids = List.map Node.id (Node.descendant_or_self d) in
        check_bool "preorder" true (List.sort compare ids = ids));
  ]

let parse_error line col src name =
  match parse src with
  | _ -> Alcotest.failf "%s: expected a parse error" name
  | exception Xq_xml.Xml_parse.Parse_error { line = l; column = c; _ } ->
    Alcotest.(check (pair int int)) name (line, col) (l, c)

let error_tests =
  [
    test "mismatched end tag" (fun () ->
        match parse "<a><b></a></b>" with
        | _ -> Alcotest.fail "expected error"
        | exception Xq_xml.Xml_parse.Parse_error { message; _ } ->
          check_bool "mentions tags" true (String.length message > 0));
    test "unterminated element" (fun () ->
        match parse "<a><b>" with
        | _ -> Alcotest.fail "expected error"
        | exception Xq_xml.Xml_parse.Parse_error _ -> ());
    test "unknown entity" (fun () ->
        match parse "<a>&nope;</a>" with
        | _ -> Alcotest.fail "expected error"
        | exception Xq_xml.Xml_parse.Parse_error _ -> ());
    test "content after root" (fun () ->
        match parse "<a/><b/>" with
        | _ -> Alcotest.fail "expected error"
        | exception Xq_xml.Xml_parse.Parse_error _ -> ());
    test "lt in attribute" (fun () ->
        match parse "<a x=\"<\"/>" with
        | _ -> Alcotest.fail "expected error"
        | exception Xq_xml.Xml_parse.Parse_error _ -> ());
    test "error position is 1-based" (fun () ->
        parse_error 1 1 "" "empty input");
  ]

(* --- hostile / malformed input ------------------------------------------ *)

(* <d><d>…x…</d></d>, [n] levels deep. *)
let deep n =
  let b = Buffer.create (n * 8) in
  for _ = 1 to n do Buffer.add_string b "<d>" done;
  Buffer.add_string b "x";
  for _ = 1 to n do Buffer.add_string b "</d>" done;
  Buffer.contents b

let expect_parse_error name src =
  match parse src with
  | _ -> Alcotest.failf "%s: expected a parse error" name
  | exception Xq_xml.Xml_parse.Parse_error _ -> ()

let hostile_tests =
  [
    test "nesting beyond the default cap fails, not stack overflow" (fun () ->
        match parse (deep 2000) with
        | _ -> Alcotest.fail "expected a parse error"
        | exception Xq_xml.Xml_parse.Parse_error { message; _ } ->
          check_bool "mentions nesting" true
            (String.length message > 0
             && String.exists (fun c -> c = '5') message));
    test "nesting exactly at an explicit cap parses" (fun () ->
        let el = Xq_xml.Xml_parse.parse_fragment ~max_depth:10 (deep 10) in
        check_string "sv" "x" (Node.string_value el));
    test "nesting one past an explicit cap fails" (fun () ->
        match Xq_xml.Xml_parse.parse ~max_depth:10 (deep 11) with
        | _ -> Alcotest.fail "expected a parse error"
        | exception Xq_xml.Xml_parse.Parse_error _ -> ());
    test "governor depth limit raises XQENG0005" (fun () ->
        let g = Xq_governor.Governor.create ~max_depth:5 () in
        Xq_governor.Governor.with_governor g (fun () ->
            match parse (deep 6) with
            | _ -> Alcotest.fail "expected XQENG0005"
            | exception Xerror.Error (Xerror.XQENG0005, _) -> ()));
    test "an explicit cap wins over the governor's" (fun () ->
        let g = Xq_governor.Governor.create ~max_depth:5 () in
        Xq_governor.Governor.with_governor g (fun () ->
            let el =
              Xq_xml.Xml_parse.parse_fragment ~max_depth:20 (deep 12)
            in
            check_string "sv" "x" (Node.string_value el)));
    test "explicit input-size cap raises a positioned error" (fun () ->
        match Xq_xml.Xml_parse.parse ~max_bytes:8 "<a>abcdefgh</a>" with
        | _ -> Alcotest.fail "expected a parse error"
        | exception Xq_xml.Xml_parse.Parse_error { message; _ } ->
          check_bool "mentions bytes" true
            (String.length message > 0));
    test "governor input-size limit raises XQENG0005" (fun () ->
        let g = Xq_governor.Governor.create ~max_input_bytes:8 () in
        Xq_governor.Governor.with_governor g (fun () ->
            match parse "<a>abcdefgh</a>" with
            | _ -> Alcotest.fail "expected XQENG0005"
            | exception Xerror.Error (Xerror.XQENG0005, _) -> ()));
    test "unterminated start tag" (fun () -> expect_parse_error "tag" "<a");
    test "unterminated attribute" (fun () ->
        expect_parse_error "attr" "<a x='v");
    test "unterminated attribute in nested element" (fun () ->
        expect_parse_error "nested attr" "<a><b x=\"v</a>");
    test "unterminated comment" (fun () ->
        expect_parse_error "comment" "<a><!-- never closed</a>");
    test "unterminated CDATA" (fun () ->
        expect_parse_error "cdata" "<a><![CDATA[stuck</a>");
    test "unterminated DOCTYPE" (fun () ->
        expect_parse_error "doctype" "<!DOCTYPE a [<a/>");
    test "truncated entity" (fun () -> expect_parse_error "entity" "<a>&am");
    test "truncated decimal character reference" (fun () ->
        expect_parse_error "charref" "<a>&#12");
    test "truncated hex character reference" (fun () ->
        expect_parse_error "hex charref" "<a>&#x1F");
    test "malformed character reference" (fun () ->
        expect_parse_error "bad charref" "<a>&#xZZ;</a>");
    test "character reference out of range" (fun () ->
        expect_parse_error "out of range" "<a>&#x110000;</a>");
    test "huge attribute value survives" (fun () ->
        let v = String.make 100_000 'v' in
        let el = parse_fragment (Printf.sprintf "<a x=\"%s\"/>" v) in
        match Node.attributes el with
        | [ at ] ->
          check_int "attr length" 100_000
            (String.length (Node.attribute_value at))
        | _ -> Alcotest.fail "expected one attribute");
    test "parse ticks the governor (deadline applies to parsing)" (fun () ->
        let g = Xq_governor.Governor.create ~timeout_ms:1 () in
        Unix.sleepf 0.005;
        Xq_governor.Governor.with_governor g (fun () ->
            match parse (deep 400) with
            | _ -> Alcotest.fail "expected XQENG0001"
            | exception Xerror.Error (Xerror.XQENG0001, _) -> ()));
  ]

let serializer_tests =
  [
    test "escapes text" (fun () ->
        let el = Node.element (Xname.of_string "a") in
        Node.append_child el (Node.text "x < y & z > w");
        check_string "escaped" "<a>x &lt; y &amp; z &gt; w</a>" (serialize el));
    test "escapes attributes" (fun () ->
        let el = Node.element (Xname.of_string "a") in
        Node.set_attribute el (Node.attribute (Xname.of_string "x") "say \"hi\" & go");
        check_string "escaped" {|<a x="say &quot;hi&quot; &amp; go"/>|} (serialize el));
    test "sequence: atomics space-separated, nodes abut" (fun () ->
        let seq =
          [ Xq_xdm.Item.of_int 1; Xq_xdm.Item.of_int 2;
            Xq_xdm.Item.Node (Node.text "t"); Xq_xdm.Item.of_int 3 ]
        in
        check_string "serialized" "1 2t3" (Xq_xml.Serialize.sequence seq));
    test "indent mode produces newlines" (fun () ->
        let el = parse_fragment "<a><b>x</b><c/></a>" in
        let s = Xq_xml.Serialize.node ~indent:true el in
        check_bool "has newline" true (String.contains s '\n'));
    test "escape helpers" (fun () ->
        check_string "text" "&amp;&lt;&gt;" (Xq_xml.Serialize.escape_text "&<>");
        check_string "attr" "&amp;&lt;&quot;" (Xq_xml.Serialize.escape_attribute "&<\""));
  ]

let builder_tests =
  [
    test "builder constructs expected tree" (fun () ->
        let open Xq_xml.Builder in
        let n =
          build
            (el_attrs "book" [ ("id", "7") ]
               [ el_text "title" "T"; el "empty" []; txt "tail" ])
        in
        check_string "xml" {|<book id="7"><title>T</title><empty/>tail</book>|}
          (serialize n));
    test "builder document wrapper" (fun () ->
        let open Xq_xml.Builder in
        let d = doc (el "root" []) in
        check_bool "is doc" true (Node.kind d = Node.Document);
        check_int "one child" 1 (List.length (Node.children d)));
    test "builder attr part" (fun () ->
        let open Xq_xml.Builder in
        let n = build (el "a" [ attr "k" "v"; txt "x" ]) in
        check_string "xml" {|<a k="v">x</a>|} (serialize n));
    test "parse of builder output is deep-equal" (fun () ->
        let open Xq_xml.Builder in
        let n = build (el "a" [ el_text "b" "x"; el_attrs "c" [ ("k", "v") ] [] ]) in
        let reparsed = parse_fragment (serialize n) in
        check_bool "deep-equal" true (Deep_equal.nodes n reparsed));
  ]

(* --- tree layout: sealed nodes, interned names ---------------------------- *)

(* Every element and document below [n], each read twice: a sealed
   node's two reads return the one stored list. A leaf's read builds its
   one text child afresh instead (see [Helpers.leaf_read_ok]). *)
let rec all_sealed n =
  if Node.is_leaf n then leaf_read_ok n
  else
    let kids = Node.children n in
    kids == Node.children n
    && Node.attributes n == Node.attributes n
    && List.for_all all_sealed kids

let element_names n =
  List.filter_map
    (fun c -> if Node.is_element c then Some (Node.local_name c) else None)
    (Node.children n)

let elements_named n local =
  List.filter
    (fun d -> Node.is_element d && Node.local_name d = local)
    (Node.descendants n)

(* Every node of a tree, attributes included. *)
let rec node_count n =
  List.fold_left
    (fun acc c -> acc + node_count c)
    (1 + List.length (Node.attributes n))
    (Node.children n)

let orders_xml () =
  let p = Xq_workload.Orders.(with_lineitems 2000 { default with seed = 42 }) in
  serialize (Xq_workload.Orders.generate p)

let layout_tests =
  [
    test "parsed nodes are sealed: reads return the stored list" (fun () ->
        let d = parse "<a k='1'><b>x</b><!--c--><b><c/>y</b><?p d?></a>" in
        check_bool "sealed" true (all_sealed d);
        let a = List.hd (Node.children d) in
        let w0 = Gc.minor_words () in
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (Node.children a))
        done;
        check_bool "no allocation" true (Gc.minor_words () -. w0 < 64.));
    test "one parse shares one name per spelling" (fun () ->
        let d = parse "<a><p:b x='1'/><p:b x='2'/><c><p:b/></c></a>" in
        match elements_named d "b" with
        | [ b1; b2; b3 ] ->
          let name n = Option.get (Node.name n) in
          check_bool "siblings" true (name b1 == name b2);
          check_bool "nested" true (name b1 == name b3);
          check_bool "attributes" true
            (name (List.hd (Node.attributes b1)) == name (List.hd (Node.attributes b2)))
        | _ -> Alcotest.fail "expected three b elements");
    test "streamed subtrees are sealed and share names" (fun () ->
        let path = [ { Xq_xml.Xml_stream.desc = true; test = Xq_xml.Xml_stream.Any } ] in
        match
          Xq_xml.Xml_stream.collect ~path (`String "<a><b><c/><c/></b><b/></a>")
        with
        | a :: _ ->
          check_bool "sealed" true (all_sealed a);
          (match elements_named a "b" with
           | [ b1; b2 ] ->
             check_bool "shared" true
               (Option.get (Node.name b1) == Option.get (Node.name b2))
           | _ -> Alcotest.fail "expected two b elements");
          Alcotest.(check (list string)) "order" [ "b"; "b" ] (element_names a)
        | [] -> Alcotest.fail "expected matches");
    test "constructed elements are sealed in document order" (fun () ->
        match
          run_seq ~data:"<r><x/><y/></r>"
            "<out a='1'>{1}<p/>t{ /r/* }<q>{2, 3}</q>{ element e { 'z' } }</out>"
        with
        | [ Item.Node out ] ->
          check_bool "sealed" true (all_sealed out);
          Alcotest.(check (list string)) "children" [ "p"; "x"; "y"; "q"; "e" ]
            (element_names out);
          check_string "xml" {|<out a="1">1<p/>t<x/><y/><q>2 3</q><e>z</e></out>|}
            (serialize out)
        | _ -> Alcotest.fail "expected one element");
    test "builder trees are sealed in document order" (fun () ->
        let open Xq_xml.Builder in
        let d = doc (el "r" [ el "a" []; attr "k" "v"; el "b" [ el "c" [] ]; el "a" [] ]) in
        check_bool "sealed" true (all_sealed d);
        let r = List.hd (Node.children d) in
        Alcotest.(check (list string)) "order" [ "a"; "b"; "a" ] (element_names r);
        match elements_named d "a" with
        | [ a1; a2 ] ->
          check_bool "names shared" true (Option.get (Node.name a1) == Option.get (Node.name a2))
        | _ -> Alcotest.fail "expected two a elements");
    (* A heap guard on the node layout: one block per node, no option
       box for the parent, names shared, text-only elements as leaves.
       The per-node-record layout measured about 130 B per node here,
       one block per node without leaves about 79 B. *)
    test "a parsed orders tree costs at most 55 live bytes per node" (fun () ->
        let xml = orders_xml () in
        Gc.compact ();
        let w0 = (Gc.stat ()).Gc.live_words in
        let d = parse xml in
        Gc.compact ();
        let w1 = (Gc.stat ()).Gc.live_words in
        let per_node = float ((w1 - w0) * (Sys.word_size / 8)) /. float (node_count d) in
        if per_node > 55. then Alcotest.failf "%.1f live bytes per node" per_node;
        ignore (Sys.opaque_identity xml));
  ]

(* --- leaf elements --------------------------------------------------------- *)

let is_leaf_root src = Node.is_leaf (parse_fragment src)

(* Every element below [n] (and [n]) in preorder. *)
let elements n = List.filter Node.is_element (Node.descendant_or_self n)

let leaf_count n = List.length (List.filter Node.is_leaf (elements n))

(* Ids of every node and attribute in preorder, leaf flags of every
   element: what a by-value round trip must keep. *)
let shape n =
  ( List.concat_map
      (fun d -> Node.id d :: List.map Node.id (Node.attributes d))
      (Node.descendant_or_self n),
    List.map Node.is_leaf (elements n) )

let seeded_docs () =
  let open Xq_workload in
  [
    ("orders", Orders.generate (Orders.with_lineitems 400 { Orders.default with seed = 42 }));
    ("sales", Sales.generate { Sales.default with sales = 300; seed = 42 });
    ("bibliography", Bibliography.generate { Bibliography.default with seed = 42 });
    ("auction", Auction.generate { Auction.default with seed = 42 });
  ]

let leaf_tests =
  [
    test "a text-only element without attributes becomes a leaf" (fun () ->
        check_bool "text" true (is_leaf_root "<a>x</a>");
        check_bool "entity" true (is_leaf_root "<a>&amp;</a>");
        check_bool "CDATA" true (is_leaf_root "<a><![CDATA[<x>]]></a>");
        check_bool "text and CDATA are one text node" true
          (is_leaf_root "<a>x<![CDATA[y]]>z</a>");
        check_bool "kept whitespace" true
          (Node.is_leaf (parse_fragment ~keep_whitespace:true "<a> </a>"));
        let a = parse_fragment "<a>x<![CDATA[<y>]]></a>" in
        check_bool "contract" true (leaf_read_ok a);
        check_string "string" "x<y>" (Node.string_value a);
        check_string "xml" "<a>x&lt;y&gt;</a>" (serialize a));
    test "other elements keep their full form" (fun () ->
        check_bool "attribute" false (is_leaf_root "<a k='1'>x</a>");
        check_bool "mixed content" false (is_leaf_root "<a>x<b/>y</a>");
        check_bool "element child" false (is_leaf_root "<a><b/></a>");
        check_bool "comment child" false (is_leaf_root "<a><!--c-->x</a>");
        check_bool "PI child" false (is_leaf_root "<a>x<?p d?></a>");
        check_bool "empty" false (is_leaf_root "<a/>");
        check_bool "empty pair" false (is_leaf_root "<a></a>");
        check_bool "dropped whitespace" false (is_leaf_root "<a> </a>"));
    test "a leaf reads as its full form" (fun () ->
        let d = parse "<r><a>x</a><b>y</b></r>" in
        let r = List.hd (Node.children d) in
        match Node.children r with
        | [ a; b ] ->
          check_bool "leaf" true (Node.is_leaf a);
          check_bool "element" true (Node.kind a = Node.Element);
          check_string "name" "a" (Node.local_name a);
          check_bool "parent" true (Node.same (Option.get (Node.parent a)) r);
          let t = List.hd (Node.children a) in
          check_bool "same text node" true (Node.same t (List.hd (Node.children a)));
          check_bool "text before b" true (Node.doc_order_compare t b < 0);
          check_int "ancestors" 3 (List.length (Node.ancestors t));
          check_int "no siblings" 0
            (List.length (Node.following_siblings t @ Node.preceding_siblings t));
          (match Node.typed_value a with
           | Atomic.Untyped "x" -> ()
           | _ -> Alcotest.fail "expected Untyped x");
          check_string "path" "y" (run_on d "string(/r/a/text()/../following-sibling::b)")
        | _ -> Alcotest.fail "expected two children");
    test "a leaf is final" (fun () ->
        let a = parse_fragment "<a>x</a>" in
        let raises f =
          match f () with () -> false | exception Invalid_argument _ -> true
        in
        check_bool "append_child" true
          (raises (fun () -> Node.append_child a (Node.text "y")));
        check_bool "set_attribute" true
          (raises (fun () ->
               Node.set_attribute a (Node.attribute (Xname.of_string "k") "v"))));
    test "string_value of a leaf does not allocate" (fun () ->
        let a = parse_fragment "<a>some text</a>" in
        let w0 = Gc.minor_words () in
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (Node.string_value a))
        done;
        check_bool "no allocation" true (Gc.minor_words () -. w0 < 64.));
    test "copies and streamed captures become leaves, match roots do not" (fun () ->
        let a = Node.copy (Xq_xml.Builder.build (Xq_xml.Builder.el_text "a" "x")) in
        check_bool "copy" true (Node.is_leaf a && leaf_read_ok a);
        let any = { Xq_xml.Xml_stream.desc = true; test = Xq_xml.Xml_stream.Any } in
        (* //*//*: every element below the root is a match *)
        match
          Xq_xml.Xml_stream.collect ~path:[ any; any ]
            (`String "<r><b>x</b><c><d>y</d></c></r>")
        with
        | [ b; c; d ] ->
          check_bool "match root b" false (Node.is_leaf b);
          check_bool "match root d" false (Node.is_leaf d);
          check_bool "d is c's child" true (Node.same (List.hd (Node.children c)) d);
          check_bool "sealed" true (List.for_all all_sealed [ b; c; d ])
        | l -> Alcotest.failf "expected three matches, got %d" (List.length l));
    test "streamed capture descendants become leaves" (fun () ->
        let path =
          [ { Xq_xml.Xml_stream.desc = true; test = Xq_xml.Xml_stream.Name (Xname.of_string "c") } ]
        in
        match
          Xq_xml.Xml_stream.collect ~path (`String "<r><c><d>y</d><e k='1'>z</e></c></r>")
        with
        | [ c ] ->
          (match Node.children c with
           | [ d; e ] ->
             check_bool "d" true (Node.is_leaf d);
             check_bool "e has an attribute" false (Node.is_leaf e)
           | _ -> Alcotest.fail "expected two children");
          check_bool "sealed" true (all_sealed c)
        | _ -> Alcotest.fail "expected one match");
    test "parsed seeded documents equal the builder's full trees" (fun () ->
        List.iter
          (fun (name, built) ->
            let xml = serialize built in
            let parsed = parse xml in
            let whole = full_form built in
            if leaf_count parsed = 0 then Alcotest.failf "%s: no leaves" name;
            check_int (name ^ ": full form has no leaves") 0 (leaf_count whole);
            (* the builder makes the parser's form *)
            Alcotest.(check (list bool)) (name ^ ": leaf flags")
              (List.map Node.is_leaf (elements parsed))
              (List.map Node.is_leaf (elements built));
            check_int (name ^ ": heap words") (Node.heap_words parsed)
              (Node.heap_words built);
            let ids = fst (shape built) in
            check_bool (name ^ ": ids in preorder") true (List.sort compare ids = ids);
            (* a full-form tree and a leaf-form tree compare as equal *)
            check_bool (name ^ ": deep-equal") true (Deep_equal.nodes parsed whole);
            check_int (name ^ ": hash") (Deep_equal.hash_item (Item.Node whole))
              (Deep_equal.hash_item (Item.Node parsed));
            let key n = Xq_engine.Key.canonicalize [ [ Item.Node n ] ] in
            check_bool (name ^ ": grouping key") true
              (Xq_engine.Key.equal (key parsed) (key whole));
            check_string (name ^ ": bytes") xml (serialize parsed);
            check_string (name ^ ": full-form bytes") xml (serialize whole);
            check_string (name ^ ": indented bytes")
              (Xq_xml.Serialize.node ~indent:true whole)
              (Xq_xml.Serialize.node ~indent:true parsed);
            check_bool (name ^ ": sealed") true (all_sealed parsed))
          (seeded_docs ()));
    test "binio round trip keeps ids, leaves and bytes" (fun () ->
        List.iter
          (fun (name, built) ->
            (* a detached root element encodes by value *)
            let root = parse_fragment (serialize (List.hd (Node.children built))) in
            let encode n =
              let buf = Buffer.create 4096 in
              Binio.put_item (Binio.registry ~detach:true ()) buf (Item.Node n);
              Buffer.contents buf
            in
            let bytes = encode root in
            match Binio.get_item (Binio.registry ()) (Binio.reader bytes) with
            | Item.Node back ->
              check_bool (name ^ ": shape") true (shape back = shape root);
              check_string (name ^ ": xml") (serialize root) (serialize back);
              check_string (name ^ ": wire bytes") bytes (encode back)
            | Item.Atomic _ -> Alcotest.fail "expected a node")
          (seeded_docs ()));
    test "heap_words equals Obj.reachable_words" (fun () ->
        let check name d =
          check_int name (Obj.reachable_words (Obj.repr d)) (Node.heap_words d)
        in
        List.iter
          (fun (name, built) -> check name (parse (serialize built)))
          (seeded_docs ());
        check "hand-written"
          (parse
             "<?p top?><!--c--><p:r xmlns:p='u' p:k='v' k=''><a>x</a><p:a>y</p:a>\
              <b k='1'>z</b><c><!--in--><?q?>t<d/></c><a/><e></e></p:r><!--end-->"));
    test "a fused scan skips the text of leaves" (fun () ->
        let d = parse (orders_xml ()) in
        let config = Xq_governor.Config.resolve ~batch:4096 () in
        let scan () =
          Xq_algebra.Exec.run_string ~config ~context_node:d "//order/lineitem"
        in
        let n = List.length (scan ()) in
        let w0 = Gc.minor_words () in
        ignore (Sys.opaque_identity (scan ()));
        (* about 60 words per lineitem; building the text children
           of its leaf fields costs about 400 *)
        let per_item = (Gc.minor_words () -. w0) /. float n in
        if per_item > 150. then Alcotest.failf "%.1f words per lineitem" per_item);
  ]

(* --- hostile streams ---------------------------------------------------- *)

(* Every front of the one reader must reject exactly what the
   materializing parser rejects, with the same (line, column, message) —
   a truncated or torn document fails closed, never returning partial
   data. The fronts: [parse], [parse_file], the reader under 1- and
   7-byte fills (refill seams everywhere), and the streamed scan with
   the root captured (every element built), with a dead path (every
   element skipped in dead state 0) and with a live path that matches
   nothing (every element name-tested, none built), and two projected
   loads, over a string and under 7-byte fills. *)

module Reader = Xq_xml.Xml_reader
module Stream = Xq_xml.Xml_stream

let stream_root_path = [ { Stream.desc = false; test = Stream.Any } ]
let nothing = Stream.Name (Xname.of_string "nothing")
let dead_path = [ { Stream.desc = false; test = nothing } ]
let live_path = [ { Stream.desc = true; test = nothing } ]

(* Projected loads: the first builds [b] elements with their
   attributes, [t] elements whole and every other element only as an
   ancestor; the second builds [/a/b] and [/a/s] with their attributes
   and [/a/s/t] whole, and drops every other element below [a] as
   dead. *)
let projected_live, projected_dead =
  let step desc name = { Stream.desc; test = Stream.Name (Xname.of_string name) } in
  ( [ ([ step true "b" ], Stream.Navigate); ([ step true "t" ], Stream.Whole);
      (live_path, Stream.Navigate) ],
    [ ([ step false "a"; step false "b" ], Stream.Navigate);
      ([ step false "a"; step false "s"; step false "t" ], Stream.Whole) ] )

(* A reader over [s] whose fill hands out at most [step] bytes. *)
let fill_reader step s =
  let pos = ref 0 in
  Reader.of_fill ~size:(String.length s) (fun buf off len ->
      let n = min (min len step) (String.length s - !pos) in
      Bytes.blit_string s !pos buf off n;
      pos := !pos + n;
      n)

let with_file src f =
  let path = Filename.temp_file "xq_xml" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc src;
      close_out oc;
      f path)

let fronts ?max_depth () =
  let scan name path =
    [
      ("scan " ^ name, fun src ->
          ignore (Stream.collect ?max_depth ~path (`String src)));
      ("scan file " ^ name, fun src ->
          with_file src (fun f -> ignore (Stream.collect ?max_depth ~path (`File f))));
      ("scan fill 1 " ^ name, fun src ->
          Stream.scan_reader ?max_depth ~path ~emit:(fun ~bytes:_ _ -> ())
            (fill_reader 1 src));
      ("scan fill 7 " ^ name, fun src ->
          Stream.scan_reader ?max_depth ~path ~emit:(fun ~bytes:_ _ -> ())
            (fill_reader 7 src));
    ]
  in
  [
    ("parse", fun src -> ignore (Xq_xml.Xml_parse.parse ?max_depth src));
    ("parse_file", fun src ->
        with_file src (fun f -> ignore (Xq_xml.Xml_parse.parse_file ?max_depth f)));
    ("parse fill 1", fun src -> ignore (Reader.document ?max_depth (fill_reader 1 src)));
    ("parse fill 7", fun src -> ignore (Reader.document ?max_depth (fill_reader 7 src)));
  ]
  @ scan "/*" stream_root_path @ scan "/nothing" dead_path
  @ scan "//nothing" live_path
  @ [
      ("projected", fun src ->
          ignore (Stream.load ?max_depth ~paths:projected_live (`String src)));
      ("projected fill 7", fun src ->
          ignore
            (Stream.load_reader ?max_depth ~paths:projected_dead
               (fill_reader 7 src)));
    ]

(* How a front rejected [src]: a positioned parse error or a structured
   engine error, rendered; [None] when it accepted the input. *)
let rejection f src =
  match f src with
  | () -> None
  | exception Xq_xml.Xml_parse.Parse_error { line; column; message } ->
    Some (Printf.sprintf "%d:%d %s" line column message)
  | exception Xerror.Error (code, msg) ->
    Some (Xerror.code_to_string code ^ " " ^ msg)

(* All fronts reject [src] alike; returns the one rejection. *)
let all_reject ?max_depth name src =
  match fronts ?max_depth () with
  | [] -> assert false
  | (_, parse) :: rest ->
    let expected =
      match rejection parse src with
      | Some r -> r
      | None -> Alcotest.failf "%s: the parser accepted it" name
    in
    List.iter
      (fun (front, f) ->
        match rejection f src with
        | Some r -> check_string (Printf.sprintf "%s: %s" name front) expected r
        | None -> Alcotest.failf "%s: %s accepted it" name front)
      rest;
    expected

let both_reject name src = ignore (all_reject name src)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let rejects_with name fragment ?max_depth src =
  let r = all_reject ?max_depth name src in
  check_bool (Printf.sprintf "%s: %S in %S" name fragment r) true
    (contains r fragment)

let hostile_stream_tests =
  [
    test "EOF mid-tag" (fun () -> both_reject "mid-tag" "<a><b");
    test "EOF mid-attribute" (fun () ->
        both_reject "mid-attribute" "<a><b x=\"v");
    test "EOF mid-entity" (fun () -> both_reject "mid-entity" "<a>&am");
    test "EOF mid-charref" (fun () -> both_reject "mid-charref" "<a>&#x1F");
    test "EOF mid-comment" (fun () ->
        both_reject "mid-comment" "<a><!-- never closed");
    test "EOF mid-CDATA" (fun () ->
        both_reject "mid-cdata" "<a><![CDATA[stuck");
    test "EOF before the close tag" (fun () ->
        both_reject "unclosed root" "<a><b>text</b>");
    test "mismatched close tag" (fun () ->
        both_reject "mismatch" "<a><b></c></a>");
    test "bare attribute" (fun () -> both_reject "bare attr" "<a><b x></b></a>");
    test "content after the root" (fun () ->
        both_reject "trailing" "<a/><a/>");
    test "character reference out of range" (fun () ->
        both_reject "charref range" "<a>&#x110000;</a>");
    test "malformed character references" (fun () ->
        (* judged after the ';', so the position is the byte past it *)
        List.iter
          (fun ref_ ->
            rejects_with ref_
              (Printf.sprintf "4:%d bad character reference" (String.length ref_ + 1))
              ("<a>\n\n\n" ^ ref_ ^ "</a>"))
          [ "&#1_0;"; "&#+65;"; "&#0x41;"; "&#0;"; "&#x;"; "&#X41;"; "&#xFFFE;" ];
        rejects_with "in an attribute" "bad character reference" "<a b='&#x1;'/>");
    test "legal character references decode" (fun () ->
        check_string "decoded" "\t\u{4e2d}A\u{10000}"
          (Node.string_value (parse_fragment "<a>&#9;&#x4e2D;&#0065;&#x10000;</a>")));
    test "errors inside skipped subtrees" (fun () ->
        rejects_with "duplicate attribute" "XQDY0025"
          "<a><s><t k='1' k='2'/></s></a>";
        rejects_with "unknown entity" "unknown entity &nope;"
          "<a>\n<s>x &nope; y</s></a>";
        rejects_with "lt in attribute" "'<' in attribute value"
          "<a><s><t k='x<y'/></s></a>";
        rejects_with "mismatched end tag" "mismatched end tag </s>, expected </t>"
          "<a><s><t></s></t></a>";
        rejects_with "depth limit" "element nesting deeper than 4" ~max_depth:4
          "<a><s><t><u><v/></u></t></s></a>";
        rejects_with "unterminated comment" "unterminated comment"
          "<a><s><!-- x -></s></a>";
        rejects_with "unterminated PI" "unterminated processing instruction"
          "<a><s><?p x ></s></a>";
        rejects_with "unterminated CDATA" "unterminated CDATA section"
          "<a><s><![CDATA[ x ]></s></a>");
    test "well-formed document still streams" (fun () ->
        let nodes =
          Stream.collect ~path:stream_root_path (`String "<a><b>x</b></a>")
        in
        match nodes with
        | [ n ] -> check_string "root subtree" "<a><b>x</b></a>" (serialize n)
        | _ -> Alcotest.fail "expected exactly the root match");
  ]

(* --- refill seams ----------------------------------------------------------- *)

(* Documents that put every token kind across a refill seam somewhere:
   names, attribute values with entities, text runs, CDATA, comments,
   PIs, character references, multi-byte UTF-8, line breaks. *)
let seam_docs () =
  List.map (fun (name, d) -> (name, serialize d)) (seeded_docs ())
  @ [
      ( "hand-written",
        "<?xml version='1.0'?>\n<!DOCTYPE r [<!ELEMENT r ANY>]>\n<!--top-->\
         <?pi data?>\n<p:r xmlns:p='u' p:k='v&amp;w' k=\"&#x4e2d;\">\n  \
         <a>x &lt; y</a><b><![CDATA[<raw> & ]]>tail</b>\n  <c>\u{00e9}t\u{00e9}\
         <!-- in --><?q r?>&#65;&#x42;</c><d/><e></e>  </p:r>\n<!--end-->" );
    ]

let seam_tests =
  [
    test "skipped elements allocate nothing" (fun () ->
        (* thousands of elements, none built: only the reader's own
           setup allocates, dead automaton state or live *)
        let xml = orders_xml () in
        List.iter
          (fun (name, path) ->
            let w0 = Gc.minor_words () in
            Stream.scan ~path ~emit:(fun ~bytes:_ _ -> ()) (`String xml);
            let words = Gc.minor_words () -. w0 in
            if words > 1024. then Alcotest.failf "%s: %.0f words" name words)
          [ ("dead path", dead_path); ("live path", live_path) ]);
    test "1- and 7-byte fills build byte-identical trees" (fun () ->
        List.iter
          (fun (name, xml) ->
            let expected = serialize (parse xml) in
            List.iter
              (fun step ->
                check_string
                  (Printf.sprintf "%s, fill %d" name step)
                  expected
                  (serialize (Reader.document (fill_reader step xml))))
              [ 1; 7 ];
            with_file xml (fun f ->
                check_string (name ^ ", parse_file") expected
                  (serialize (Xq_xml.Xml_parse.parse_file f))))
          (seam_docs ()));
    test "1- and 7-byte fills stream byte-identical matches" (fun () ->
        let any = { Stream.desc = true; test = Stream.Any } in
        List.iter
          (fun (name, xml) ->
            let collect r =
              let acc = ref [] in
              Stream.scan_reader ~path:[ any; any ]
                ~emit:(fun ~bytes n -> acc := (bytes, serialize n) :: !acc)
                r;
              List.rev !acc
            in
            let expected = collect (Reader.of_string xml) in
            List.iter
              (fun step ->
                check_bool
                  (Printf.sprintf "%s, fill %d" name step)
                  true
                  (collect (fill_reader step xml) = expected))
              [ 1; 7 ])
          (seam_docs ()));
  ]

(* --- the path automaton ------------------------------------------------------ *)

(* Seeded random paths of 1–6 child or descendant steps, with name, [*]
   and prefix tests drawn from a document's spellings. Most follow the
   ancestor chain of a random element (so they match something), with
   some steps widened to [*], a prefix test or a descendant step; the
   rest draw every test at random. *)
let random_paths rng doc n =
  let elements = List.filter Node.is_element (Node.descendants doc) in
  let spelling e = Xname.to_string (Option.get (Node.name e)) in
  let spellings = Array.of_list (List.map spelling elements) in
  let prefix s =
    match String.index_opt s ':' with Some i -> String.sub s 0 i | None -> "p"
  in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let test s =
    match Random.State.int rng 4 with
    | 0 -> Stream.Any
    | 1 -> Stream.Prefix (prefix s)
    | _ -> Stream.Name (Xname.of_string s)
  in
  let rec chain e acc =
    match Node.parent e with
    | Some p when Node.is_element p -> chain p (spelling e :: acc)
    | _ -> spelling e :: acc
  in
  let along e =
    let chain = Array.of_list (chain e []) in
    let len = Array.length chain in
    let k = 1 + Random.State.int rng (min 6 len) in
    (* [k] levels of the chain, the last one always among them *)
    let levels =
      List.sort_uniq compare
        ((len - 1) :: List.init (k - 1) (fun _ -> Random.State.int rng len))
    in
    let _, steps =
      List.fold_left
        (fun (prev, acc) i ->
          let desc = i > prev + 1 || Random.State.int rng 4 = 0 in
          (i, { Stream.desc; test = test chain.(i) } :: acc))
        (-1, []) levels
    in
    List.rev steps
  in
  List.init n (fun _ ->
      if Random.State.int rng 4 = 0 then
        List.init
          (1 + Random.State.int rng 6)
          (fun _ -> { Stream.desc = Random.State.bool rng; test = test (pick spellings) })
      else along (List.nth elements (Random.State.int rng (List.length elements))))

let automaton_tests =
  [
    test "scan = whole-tree path = projected-load path" (fun () ->
        let rng = Random.State.make [| 23 |] in
        let sequence nodes = Xq_xml.Serialize.sequence (Xseq.of_nodes nodes) in
        let eval doc path =
          Xq_xml.Serialize.sequence
            (Xq_algebra.Exec.eval_query ~check:false ~context_node:doc
               (Xq_lang.Parser.parse_query (Stream.path_to_string path)))
        in
        List.iter
          (fun (name, xml) ->
            let whole = parse xml in
            List.iter
              (fun path ->
                let label front =
                  Printf.sprintf "%s %s: %s" name (Stream.path_to_string path) front
                in
                let expected = eval whole path in
                check_string (label "scan") expected
                  (sequence (Stream.collect ~path (`String xml)));
                List.iter
                  (fun step ->
                    let acc = ref [] in
                    Stream.scan_reader ~path
                      ~emit:(fun ~bytes:_ n -> acc := n :: !acc)
                      (fill_reader step xml);
                    check_string
                      (label (Printf.sprintf "scan fill %d" step))
                      expected
                      (sequence (List.rev !acc)))
                  [ 1; 7 ];
                check_string (label "projected load") expected
                  (eval (Stream.load ~paths:[ (path, Stream.Whole) ] (`String xml)) path))
              (random_paths rng whole 20))
          (seam_docs ()));
  ]

let suites =
  [
    ("xml.parser", parser_tests);
    ("xml.errors", error_tests);
    ("xml.hostile", hostile_tests);
    ("xml.hostile-stream", hostile_stream_tests);
    ("xml.refill-seams", seam_tests);
    ("xml.automaton", automaton_tests);
    ("xml.serializer", serializer_tests);
    ("xml.builder", builder_tests);
    ("xml.layout", layout_tests);
    ("xml.leaf", leaf_tests);
  ]
