open Xq_xml.Builder

type params = {
  orders : int;
  avg_lineitems : int;
  shipinstruct_card : int;
  shipmode_card : int;
  tax_card : int;
  quantity_card : int;
  seed : int;
}

let default =
  {
    orders = 2000;
    avg_lineitems = 4;
    shipinstruct_card = 4;
    shipmode_card = 7;
    tax_card = 9;
    quantity_card = 50;
    seed = 20050614;  (* SIGMOD 2005 opening day *)
  }

let with_lineitems n p = { p with orders = max 1 (n / max 1 p.avg_lineitems) }

(* Month 1..12 and day 1..28 of 2004, the only dates drawn. *)
let dates = Array.init 12 (fun m -> Array.init 28 (fun d -> Numfmt.date 2004 (m + 1) (d + 1)))
let date month day = dates.(month - 1).(day - 1)

(* Per-parameter field values, formatted once per document. *)
type tables = { shipinstruct : string array; shipmode : string array; tax : string array }

let tables p =
  {
    shipinstruct =
      Array.init p.shipinstruct_card (fun i -> "INSTRUCT-" ^ Numfmt.zero_pad 3 i);
    shipmode = Array.init p.shipmode_card (fun i -> "MODE-" ^ Numfmt.two_digits i);
    tax = Array.init p.tax_card (fun t -> Numfmt.fixed2 (float_of_int t /. 100.0));
  }

(* The draws sit inside list literals and argument lists, which OCaml
   evaluates right to left: a lineitem draws its fields from the last
   back, an order draws its lineitems before its header, and a date
   draws its day before its month. The pinned digests in
   test/test_workload.ml and perfbench's depend on that order. *)
let lineitem rng p t idx =
  let tax = t.tax.(Prng.int rng p.tax_card) in
  let quantity = 1 + Prng.int rng p.quantity_card in
  let price = 1.0 +. Prng.float rng 999.0 in
  el "lineitem"
    [ el_text "linenumber" (string_of_int idx);
      el_text "partkey" (string_of_int (Prng.int rng 10000));
      el_text "suppkey" (string_of_int (Prng.int rng 1000));
      el_text "quantity" (string_of_int quantity);
      el_text "extendedprice" (Numfmt.fixed2 (price *. float_of_int quantity));
      el_text "discount" (Numfmt.fixed2 (Prng.float rng 0.1));
      el_text "tax" tax;
      el_text "returnflag" (if Prng.one_in rng 8 then "R" else "N");
      el_text "linestatus" (if Prng.one_in rng 2 then "O" else "F");
      el_text "shipdate" (date (1 + Prng.int rng 12) (1 + Prng.int rng 28));
      el_text "shipinstruct" t.shipinstruct.(Prng.int rng p.shipinstruct_card);
      el_text "shipmode" t.shipmode.(Prng.int rng p.shipmode_card);
      el_text "comment"
        ("line item " ^ string_of_int idx ^ " shipped with care and packed snugly") ]

let order rng p t idx =
  (* 1..2*avg-1 lineitems, expectation = avg *)
  let n = 1 + Prng.int rng (max 1 ((2 * p.avg_lineitems) - 1)) in
  el "order"
    ([ el_text "orderkey" (string_of_int idx);
       el "customer"
         [ el_text "custkey" (string_of_int (Prng.int rng 5000));
           el_text "name" ("Customer#" ^ Numfmt.zero_pad 5 (Prng.int rng 5000));
           el_text "nation" ("Nation-" ^ Numfmt.two_digits (Prng.int rng 25)) ];
       el_text "orderstatus" (if Prng.one_in rng 3 then "O" else "F");
       el_text "orderdate" (date (1 + Prng.int rng 12) (1 + Prng.int rng 28));
       el_text "orderpriority" (string_of_int (1 + Prng.int rng 5) ^ "-PRIORITY") ]
     @ List.init n (fun i -> lineitem rng p t (i + 1))
     @ [ el_text "comment" "an order generated for the grouping experiments" ])

let generate p =
  let rng = Prng.create p.seed in
  let t = tables p in
  fill "orders" (fun add ->
      for i = 1 to p.orders do
        add (order rng p t i)
      done)

let lineitem_count docnode =
  let open Xq_xdm in
  List.length
    (List.filter
       (fun n -> Node.is_element n && Node.local_name n = "lineitem")
       (Node.descendants docnode))
