(* Projected loads: a query run over the projected tree of its path set
   gives the bytes it gives over the whole document. Covers the corpus
   and golden queries, hand-written fallback cases, the path sets
   themselves, the size of a projected tree, and the load the pipeline
   reports. *)

open Xq_xdm
open Xq_lang
module Stream = Xq_xml.Xml_stream
module Xml_parse = Xq_xml.Xml_parse
module Projection = Xq_rewrite.Projection
module Pipeline = Xq_pipeline.Pipeline
module Exec = Xq_algebra.Exec

let test = Helpers.test
let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let checked source =
  let q = Parser.parse_query source in
  Static.check_query q;
  q

(* The serialized result, or the error code: both must agree. *)
let outcome q doc =
  match Exec.eval_query ~check:false ~context_node:doc q with
  | seq -> Xq_xml.Serialize.sequence seq
  | exception Xerror.Error (code, _) -> "error " ^ Xerror.code_to_string code

let paths_of q = (Projection.analyze_paths q).Projection.paths

(* Runs [q] over the whole [data] and over its projected tree; returns
   whether the path set projected at all. *)
let same_bytes name data q =
  let whole = outcome q (Xml_parse.parse data) in
  match paths_of q with
  | Ok paths ->
    let doc = Stream.load ~paths (`String data) in
    check_string
      (Printf.sprintf "%s projected to %s" name
         (Stream.path_set_to_string paths))
      whole (outcome q doc);
    true
  | Error _ -> false

(* --- the corpus and the goldens ------------------------------------------ *)

let corpus () =
  let projected =
    List.filter
      (fun name ->
        let base = Filename.concat Test_corpus.dir name in
        same_bytes name
          (Test_corpus.read_file (base ^ ".xml"))
          (checked (Test_corpus.read_file (base ^ ".xq"))))
      Test_corpus.entries
  in
  check_bool "some corpus entries project" true (List.length projected > 5)

let golden () =
  let projected =
    List.filter
      (fun file ->
        let source = Test_golden.read_file (Filename.concat Test_golden.dir file) in
        let data =
          Test_golden.fixture_of_name (Test_golden.fixture_header source)
        in
        same_bytes file data (checked source))
      Test_golden.cases
  in
  check_bool "some golden queries project" true (List.length projected > 5)

(* --- fallbacks ------------------------------------------------------------ *)

let doc =
  {|<?xml version="1.0"?>
<!-- before the root -->
<orders id="all">
  <order id="o1" rush="yes"><!-- c1 --><?pi one?>
    <lineitem n="1"><shipmode>AIR</shipmode><qty>2</qty>text1<note>n1 <b>bold</b></note></lineitem>
    <lineitem n="2"><shipmode>SEA</shipmode><qty>5</qty></lineitem>
    <memo>m1</memo>
  </order>
  <order id="o2">
    <lineitem n="3"><shipmode>AIR</shipmode><qty>7</qty></lineitem>
    <x><lineitem n="4"><shipmode>RAIL</shipmode><qty>1</qty></lineitem></x>
  </order>
</orders>|}

let same name queries () =
  List.iter (fun q -> ignore (same_bytes (name ^ ": " ^ q) doc (checked q))) queries

let fallback_cases =
  [
    ( "wildcard",
      [ "for $o in //order return count($o/*)"; "//order/*[2]";
        "count(//lineitem/*)"; "/*/order[1]/@id" ] );
    ( "node()",
      [ "for $l in //lineitem return count($l/node())"; "//order/node()[1]";
        "count(//order//node())"; "/node()" ] );
    ( "text()",
      [ "//lineitem/text()";
        "for $l in //lineitem return string-join($l/text(), '|')" ] );
    ( "parent axis",
      [ "for $s in //order/lineitem/shipmode return name($s/..)";
        "//shipmode/..";
        "count(//order/lineitem/../memo)";
        "for $l in //lineitem return $l/../@id" ] );
    ( "ancestor axes",
      [ "for $s in //shipmode return count($s/ancestor::*)";
        "//qty/ancestor::order/@id"; "//qty/ancestor-or-self::*[2]/@n" ] );
    ( "sibling axes",
      [ "for $s in //lineitem/shipmode return $s/following-sibling::*[1]";
        "//order/lineitem[1]/following-sibling::lineitem/@n";
        "//order/lineitem/qty/preceding-sibling::shipmode";
        "count(//lineitem/preceding-sibling::*)" ] );
    ( "fn:root",
      [ "for $l in //lineitem return count(root($l)//lineitem)";
        "root(//order[1])/orders/@id"; "count(//order/root())" ] );
    ( "string(.)",
      [ "for $o in //order return $o/string(.)"; "string(.)";
        "//lineitem/string()"; "for $q in //qty return $q/number()" ] );
    ( "positional predicates",
      [ "//order/lineitem[2]/qty"; "//lineitem[last()]/@n";
        "(//lineitem)[3]/shipmode"; "//order[2]/lineitem[1]";
        "for $l at $i in //lineitem where $i mod 2 = 0 return $l/@n";
        "//order/lineitem[qty > 3][1]/@n" ] );
    ( "user-function arguments",
      [ "declare function local:f($x) { $x/qty }; \
         for $l in //lineitem return local:f($l)";
        "declare function local:g($x) { count($x/..) }; local:g(//shipmode)";
        "declare function local:h() { 1 }; for $o in //order return local:h()";
        "declare function local:count($x) { 7 }; local:count(//order)" ] );
    ( "attributes",
      [ "//order/@id"; "for $l in //lineitem return <r n='{$l/@n}'/>";
        "//@n"; "count(//order[@rush])"; "//order/@*";
        "for $o in //order return ($o/@id, count($o/lineitem))" ] );
    ( "comments and PIs",
      [ "//order/comment()"; "count(/comment())"; "count(//comment())";
        "for $o in //order return count($o/node())" ] );
    ( "is and <<",
      [ "for $a in //lineitem, $b in //lineitem where $a << $b \
         return concat($a/@n, '<', $b/@n)";
        "count(for $a in //lineitem where $a is (//lineitem)[2] return $a)";
        "(//order)[1] << (//lineitem)[3]"; "//lineitem[1] >> //order[2]" ] );
    ( "carried values",
      [ "let $items := for $i in //order/lineitem where $i/shipmode = 'AIR' \
         return $i return count($items)";
        "for $l in //lineitem group by $l/shipmode into $m nest $l into $ls \
         order by $m return <g>{$m, count($ls), $ls[1]/qty}</g>";
        "for $l in //lineitem order by $l/qty return $l/@n";
        "deep-equal((//lineitem)[1]/shipmode, (//lineitem)[3]/shipmode)";
        "count(//lineitem | //memo)";
        "//order/lineitem except //order/lineitem[1]";
        "//order/descendant-or-self::lineitem/@n"; "sum(//qty)";
        "<all>{//order[1]}</all>";
        "some $l in //lineitem satisfies $l/qty > 6";
        "let $o := //order[1] return if ($o/memo) then $o/@id else ()";
        "for $o in //order let $n := count($o/lineitem) return $n";
        "reverse(//lineitem)/@n"; "exactly-one(//order[2])/@id" ] );
  ]

(* --- path sets -------------------------------------------------------------- *)

let path_set source =
  match paths_of (checked source) with
  | Ok ps -> Stream.path_set_to_string ps
  | Error reason -> "whole document: " ^ reason

let path_sets () =
  let q_implicit key =
    Printf.sprintf
      {|for $a in distinct-values(//order/lineitem/%s)
let $items := for $i in //order/lineitem where $i/%s = $a return $i
return <r>{$a, count($items)}</r>|}
      key key
  in
  check_string "the implicit-grouping idiom"
    "//order, //order/lineitem, //order/lineitem/shipmode (whole)"
    (path_set (q_implicit "shipmode"));
  check_string "a let carries a for's nodes to count"
    "//order, //order/lineitem"
    (path_set
       "let $items := for $i in //order/lineitem return $i return count($items)");
  check_string "a wildcard marks its context whole" "//order (whole)"
    (path_set "for $o in //order return count($o/*)");
  check_string "a named parent" "/orders, /orders/order, /orders/order/lineitem"
    (path_set "count(/orders/order/lineitem/..)");
  check_bool "an unnamed parent falls back" true
    (contains (path_set "//shipmode/..") "whole document");
  check_bool "fn:doc falls back" true
    (contains (path_set "count(doc('x')//a)") "whole document");
  check_bool "the document's string value falls back" true
    (contains (path_set "string(.)") "whole document")

(* --- size --------------------------------------------------------------------- *)

(* The implicit-grouping idiom over a 2,000-lineitem Orders document:
   its projected tree keeps the lineitems and their shipmodes, under a
   quarter of the whole tree's heap words. *)
let size () =
  let data =
    Xq_xml.Serialize.node
      Xq_workload.Orders.(generate (with_lineitems 2000 default))
  in
  let q =
    checked
      {|for $a in distinct-values(//order/lineitem/shipmode)
let $items := for $i in //order/lineitem where $i/shipmode = $a return $i
return <r>{$a, count($items)}</r>|}
  in
  let paths = Result.get_ok (paths_of q) in
  let whole = Xml_parse.parse data and projected = Stream.load ~paths (`String data) in
  let hw = Node.heap_words whole and hp = Node.heap_words projected in
  check_bool (Printf.sprintf "projected %d <= whole %d / 4" hp hw) true (4 * hp <= hw);
  check_string "same output" (outcome q whole) (outcome q projected)

(* --- the pipeline's load ---------------------------------------------------- *)

let knobs = { Pipeline.default_knobs with k_strategy = Some Xq_algebra.Optimizer.Hash }

let share =
  {|let $n := count(//order/lineitem)
return
  for $litem in //order/lineitem
  group by $litem/shipmode into $a
  nest $litem into $items
  order by $a
  return <r>{$a, count($items) div $n}</r>|}

let explain knobs =
  (Pipeline.run ~knobs ~explain_analyze:true ~source:share
     ~stream_source:(`String doc) ())
    .Pipeline.r_output

let pipeline_load () =
  check_bool "EXPLAIN names the projected load" true
    (contains (explain knobs)
       "stream: projected: //order, //order/lineitem, \
        //order/lineitem/shipmode (whole)");
  check_bool "--no-stream loads the whole document" true
    (contains
       (explain { knobs with Pipeline.k_stream = Some false })
       "stream: whole document: streaming is off (--no-stream)");
  let run knobs =
    (Pipeline.run ~knobs ~source:share ~stream_source:(`String doc) ())
      .Pipeline.r_output
  in
  check_string "projected = whole"
    (run { knobs with Pipeline.k_stream = Some false })
    (run knobs)

(* A no-argument builtin that reads the context item sees the
   document, so the query cannot stream: a streamed run would hand it
   an empty stand-in. *)
let context_functions () =
  let q = "for $o in /orders/order return (name(), string-length(string()))" in
  (match Projection.analyze (checked q) with
   | Projection.Materialize r ->
     check_bool "reason names the context item" true (contains r "context item")
   | Projection.Streamable _ -> Alcotest.fail "a context function streamed");
  let run knobs =
    (Pipeline.run ~knobs ~source:q ~stream_source:(`String doc) ())
      .Pipeline.r_output
  in
  check_string "default = whole"
    (run { knobs with Pipeline.k_stream = Some false })
    (run knobs)

(* A path set needing more automaton bits than an int holds does not
   compile: the load is the whole document, and EXPLAIN says so. *)
let wide_path_set () =
  let n = 70 in
  let doc =
    "<r>"
    ^ String.concat "" (List.init n (fun i -> Printf.sprintf "<a%d>%d</a%d>" i i i))
    ^ "</r>"
  in
  let query k =
    String.concat ", " (List.init k (fun i -> Printf.sprintf "string(/r/a%d)" i))
  in
  let config = Pipeline.resolve knobs in
  let load k = fst (Pipeline.load ~config (lazy (checked (query k))) (`String doc)) in
  check_bool "ten paths project" true
    (contains (Pipeline.load_to_string (load 10)) "projected: /r, /r/a0 (whole)");
  check_string "seventy paths load the whole document"
    "whole document: the path set needs 72 automaton bits, more than the 62 \
     an int holds"
    (Pipeline.load_to_string (load n));
  let run knobs =
    (Pipeline.run ~knobs ~source:(query n) ~stream_source:(`String doc) ())
      .Pipeline.r_output
  in
  check_string "default = whole"
    (run { knobs with Pipeline.k_stream = Some false })
    (run knobs)

(* The leading path streams exactly when the scan's automaton compiles
   it: a [//a] path of [k] steps needs [2k + 1] bits. *)
let path_limit () =
  let doc =
    String.concat "" (List.init 45 (fun _ -> "<a>"))
    ^ "x"
    ^ String.concat "" (List.init 45 (fun _ -> "</a>"))
  in
  let query k =
    Printf.sprintf "for $x in %s return count($x//a)"
      (String.concat "" (List.init k (fun _ -> "//a")))
  in
  let run knobs k =
    (Pipeline.run ~knobs ~source:(query k) ~stream_source:(`String doc) ())
      .Pipeline.r_output
  in
  List.iter
    (fun (k, streams) ->
      let verdict = Projection.to_string (Projection.analyze (checked (query k))) in
      check_bool
        (Printf.sprintf "%d steps: %s" k verdict)
        streams
        (String.starts_with ~prefix:"streamable:" verdict);
      if not streams then
        check_bool "a materialize reason" true
          (String.starts_with ~prefix:"materialize:" verdict);
      check_string
        (Printf.sprintf "%d steps: default = whole" k)
        (run { knobs with Pipeline.k_stream = Some false } k)
        (run knobs k))
    [ (20, true); (40, false) ]

let suites =
  [
    ( "projection",
      [
        test "corpus: projected = whole" corpus;
        test "goldens: projected = whole" golden;
        test "path sets" path_sets;
        test "projected tree size" size;
        test "the pipeline's load" pipeline_load;
        test "context functions do not stream" context_functions;
        test "a path set too wide to compile loads whole" wide_path_set;
        test "the leading path limit is the automaton's" path_limit;
      ]
      @ List.map
          (fun (name, queries) -> test ("fallback: " ^ name) (same name queries))
          fallback_cases );
  ]
