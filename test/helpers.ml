(* Shared helpers for the test suites. *)

open Xq_xdm

(* Run a query string against an XML string, returning the serialized
   result (compact form). *)
let run_xml ~data query =
  let doc = Xq_xml.Xml_parse.parse data in
  Xq_xml.Serialize.sequence (Xq_algebra.Exec.run_string ~context_node:doc query)

(* Run against an already-built document node. *)
let run_on doc query =
  Xq_xml.Serialize.sequence (Xq_algebra.Exec.run_string ~context_node:doc query)

(* Run and return the raw sequence. *)
let run_seq ~data query =
  let doc = Xq_xml.Xml_parse.parse data in
  Xq_algebra.Exec.run_string ~context_node:doc query

(* The reference result a differential compares against: the naive
   oracle where its subset covers the query, else the sequential hash
   plan. *)
let reference_run ~context_node query =
  match Xq_refimpl.Refimpl.run ~context_node query with
  | result -> result
  | exception Xq_refimpl.Refimpl.Unsupported _ ->
    Xq_algebra.Exec.run_string ~strategy:Xq_algebra.Optimizer.Hash ~parallel:1
      ~context_node query

(* The environment's configuration with the aggregate pushdown forced
   on or off (the suites must behave under XQ_NO_AGG_PUSHDOWN=1 too — CI
   runs them both ways). *)
let pushdown enabled = Xq_governor.Config.resolve ~agg_pushdown:enabled ()

let check_query ~data query expected name =
  Alcotest.(check string) name expected (run_xml ~data query)

(* Assert that evaluation (or static checking) raises the given error
   code. *)
let expect_error code ~data query name =
  match run_xml ~data query with
  | result ->
    Alcotest.failf "%s: expected %s, got result %s" name
      (Xerror.code_to_string code) result
  | exception Xerror.Error (actual, _) ->
    Alcotest.(check string)
      name
      (Xerror.code_to_string code)
      (Xerror.code_to_string actual)

let test name f = Alcotest.test_case name `Quick f

(* The read contract of a leaf element: no attributes, and [children]
   builds one text node with the next id, the leaf as parent and the
   leaf's string. *)
let leaf_read_ok n =
  Node.attributes n = []
  &&
  match Node.children n with
  | [ t ] ->
    Node.is_text t
    && Node.id t = Node.id n + 1
    && (match Node.parent t with Some p -> p == n | None -> false)
    && Node.text_content t = Node.string_value n
  | _ -> false

(* The Section 2 bibliography, reused across many suites. *)
let bib =
  {|<bib>
  <book>
    <title>Transaction Processing</title>
    <author>Jim Gray</author><author>Andreas Reuter</author>
    <publisher>Morgan Kaufmann</publisher><year>1993</year>
    <price>59.00</price><discount>9.00</discount>
  </book>
  <book>
    <title>Readings in Database Systems</title>
    <author>Michael Stonebraker</author>
    <publisher>Morgan Kaufmann</publisher><year>1998</year>
    <price>65.00</price><discount>5.00</discount>
  </book>
  <book>
    <title>Understanding the New SQL</title>
    <author>Jim Melton</author><author>Alan Simon</author>
    <publisher>Morgan Kaufmann</publisher><year>1993</year>
    <price>54.95</price><discount>4.95</discount>
  </book>
  <book>
    <title>A Guide to the SQL Standard</title>
    <author>C. J. Date</author><author>Hugh Darwen</author>
    <publisher>Addison-Wesley</publisher><year>1997</year>
    <price>47.00</price><discount>2.00</discount>
  </book>
  <book>
    <title>Samizdat Pamphlet</title>
    <author>Anonymous</author>
    <year>1993</year><price>5.00</price><discount>0.00</discount>
  </book>
</bib>|}

(* A small sales document with a known region/state structure. *)
let sales =
  {|<sales>
  <sale><timestamp>2004-01-31T11:32:07</timestamp><product>Green Tea</product>
    <state>CA</state><region>West</region><quantity>10</quantity><price>9.99</price></sale>
  <sale><timestamp>2004-02-11T09:00:00</timestamp><product>Black Tea</product>
    <state>CA</state><region>West</region><quantity>2</quantity><price>5.00</price></sale>
  <sale><timestamp>2004-03-02T17:45:30</timestamp><product>Espresso</product>
    <state>OR</state><region>West</region><quantity>4</quantity><price>12.50</price></sale>
  <sale><timestamp>2004-01-15T08:30:00</timestamp><product>Green Tea</product>
    <state>NY</state><region>East</region><quantity>7</quantity><price>9.99</price></sale>
  <sale><timestamp>2003-06-20T14:00:00</timestamp><product>Cocoa</product>
    <state>NY</state><region>East</region><quantity>3</quantity><price>4.00</price></sale>
  <sale><timestamp>2003-07-04T10:10:10</timestamp><product>Chai</product>
    <state>MA</state><region>East</region><quantity>5</quantity><price>6.00</price></sale>
</sales>|}
