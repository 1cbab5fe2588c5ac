(* Property-based tests (qcheck): data-model invariants, parser/printer
   round-trips, grouping invariants, and implicit↔explicit equivalence. *)

open Xq_xdm
open Xq_lang

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- generators ------------------------------------------------------------ *)

let gen_atomic : Atomic.t QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      map (fun i -> Atomic.Int i) (int_range (-1000) 1000);
      map (fun f -> Atomic.Dec (Float.round (f *. 100.) /. 100.)) (float_range (-100.) 100.);
      map (fun f -> Atomic.Dbl f) (float_range (-1e6) 1e6);
      map (fun s -> Atomic.Str s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
      map (fun s -> Atomic.Untyped s) (string_size ~gen:(char_range '0' '9') (int_range 1 4));
      map (fun b -> Atomic.Bool b) bool;
    ]

let gen_item : Item.t QCheck.Gen.t =
  QCheck.Gen.map (fun a -> Item.Atomic a) gen_atomic

let gen_sequence : Xseq.t QCheck.Gen.t =
  QCheck.Gen.(list_size (int_range 0 5) gen_item)

(* Random XML trees via the builder. Children interleave elements and
   text so no two text nodes are adjacent (the XDM invariant — adjacent
   texts would merge on reparse and defeat the round-trip). *)
let gen_tree : Xq_xml.Builder.part QCheck.Gen.t =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c"; "data"; "item" ] in
  let text = string_size ~gen:(oneofl [ 'x'; 'y'; '&'; '<'; '"'; ' ' ]) (int_range 1 6) in
  let opt_text = opt (map Xq_xml.Builder.txt text) in
  let interleave lead parts =
    let tail =
      List.concat_map
        (fun (el, after) -> el :: Option.to_list after)
        parts
    in
    Option.to_list lead @ tail
  in
  sized_size (int_bound 16)
  @@ fix (fun self n ->
         let attr_names = oneofl [ []; [ "k" ]; [ "id" ]; [ "k"; "id" ] ] in
         let gen_attrs =
           attr_names >>= fun names ->
           flatten_l
             (List.map
                (fun nm ->
                  map
                    (fun v -> (nm, v))
                    (string_size ~gen:(char_range 'a' 'z') (int_range 0 4)))
                names)
         in
         let children =
           if n <= 0 then return []
           else
             map2 interleave opt_text
               (list_size (int_range 0 3) (pair (self (n / 2)) opt_text))
         in
         map3 Xq_xml.Builder.el_attrs name gen_attrs children)

let gen_root : Node.t QCheck.Gen.t =
  QCheck.Gen.map Xq_xml.Builder.build gen_tree

let arb_sequence = QCheck.make ~print:(fun s -> Xq_xml.Serialize.sequence s) gen_sequence
let arb_root = QCheck.make ~print:(fun n -> Xq_xml.Serialize.node n) gen_root

(* --- deep-equal properties ---------------------------------------------------- *)

let deep_equal_props =
  [
    QCheck.Test.make ~count:500 ~name:"deep-equal is reflexive" arb_sequence
      (fun s -> Deep_equal.sequences s s);
    QCheck.Test.make ~count:500 ~name:"deep-equal is symmetric"
      (QCheck.pair arb_sequence arb_sequence)
      (fun (a, b) -> Deep_equal.sequences a b = Deep_equal.sequences b a);
    QCheck.Test.make ~count:500 ~name:"deep-equal implies equal hashes"
      (QCheck.pair arb_sequence arb_sequence)
      (fun (a, b) ->
        (not (Deep_equal.sequences a b))
        || Deep_equal.hash_sequence a = Deep_equal.hash_sequence b);
    QCheck.Test.make ~count:200 ~name:"node copy is deep-equal and fresh" arb_root
      (fun n ->
        let c = Node.copy n in
        Deep_equal.nodes n c && not (Node.same n c));
  ]

(* --- XML round-trip ------------------------------------------------------------- *)

let xml_props =
  [
    QCheck.Test.make ~count:300 ~name:"serialize ∘ parse = identity (modulo ws policy)"
      arb_root
      (fun n ->
        let s = Xq_xml.Serialize.node n in
        let reparsed = Xq_xml.Xml_parse.parse_fragment ~keep_whitespace:true s in
        Deep_equal.nodes n reparsed);
    QCheck.Test.make ~count:300 ~name:"parse result serializes to the same string"
      arb_root
      (fun n ->
        let s = Xq_xml.Serialize.node n in
        let s2 =
          Xq_xml.Serialize.node (Xq_xml.Xml_parse.parse_fragment ~keep_whitespace:true s)
        in
        s = s2);
  ]

(* --- datetime properties ----------------------------------------------------------- *)

let gen_datetime =
  let open QCheck.Gen in
  map
    (fun (y, mo, d, h, mi, s) ->
      let mo = 1 + (mo mod 12) in
      let maxd = Xdatetime.days_in_month ~year:y ~month:mo in
      let d = 1 + (d mod maxd) in
      Xdatetime.make_date_time ~year:y ~month:mo ~day:d ~hour:(h mod 24)
        ~minute:(mi mod 60)
        ~second:(float_of_int (s mod 60))
        ())
    (tup6 (int_range 1900 2100) (int_range 0 100) (int_range 0 100)
       (int_range 0 100) (int_range 0 100) (int_range 0 100))

let arb_datetime = QCheck.make ~print:Xdatetime.date_time_to_string gen_datetime

let datetime_props =
  [
    QCheck.Test.make ~count:500 ~name:"dateTime print/parse round-trip" arb_datetime
      (fun dt ->
        match Xdatetime.parse_date_time (Xdatetime.date_time_to_string dt) with
        | Some dt' -> Xdatetime.compare_date_time dt dt' = 0
        | None -> false);
    QCheck.Test.make ~count:500 ~name:"dateTime compare is antisymmetric"
      (QCheck.pair arb_datetime arb_datetime)
      (fun (a, b) ->
        Xdatetime.compare_date_time a b = -Xdatetime.compare_date_time b a);
    QCheck.Test.make ~count:500 ~name:"days_from_civil increments by one day"
      (QCheck.make (QCheck.Gen.pair (QCheck.Gen.int_range 1900 2100) (QCheck.Gen.int_range 0 366)))
      (fun (y, off) ->
        let base = Xdatetime.days_from_civil ~year:y ~month:1 ~day:1 in
        let _ = off in
        Xdatetime.days_from_civil ~year:y ~month:1 ~day:2 = base + 1);
  ]

(* --- parser / pretty round-trip on generated ASTs ----------------------------------- *)

let gen_var = QCheck.Gen.oneofl [ "v1"; "v2"; "v3" ]

let gen_expr : Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf bound =
    let vars = List.map (fun v -> Ast.Var v) bound in
    oneofl
      ([ Ast.Literal (Atomic.Int 1);
         Ast.Literal (Atomic.Int 42);
         Ast.Literal (Atomic.Str "s");
         Ast.Sequence [];
         Ast.Slash (Ast.Slash (Ast.Root, Ast.Step (Ast.Descendant_or_self, Ast.Kind_node, [])),
                    Ast.Step (Ast.Child, Ast.Name_test (Xname.of_string "x"), [])) ]
       @ vars)
  in
  (* Pick the branch first (bind) so only the chosen branch's
     sub-generators are ever constructed — building all branches eagerly
     makes generator construction exponential in the depth. *)
  let rec go bound n =
    if n <= 0 then leaf bound
    else
      int_range 0 10 >>= fun choice ->
      match choice with
      | 0 | 1 | 2 -> leaf bound
      | 3 | 4 ->
        map2 (fun a b -> Ast.Arith (Ast.Add, a, b)) (go bound (n / 2)) (go bound (n / 2))
      | 5 | 6 ->
        map2
          (fun a b -> Ast.General_cmp (Ast.Gen_eq, a, b))
          (go bound (n / 2))
          (go bound (n / 2))
      | 7 -> map2 (fun a b -> Ast.And (a, b)) (go bound (n / 2)) (go bound (n / 2))
      | 8 -> map (fun es -> Ast.Sequence es) (list_size (int_range 2 3) (go bound (n / 2)))
      | _ ->
        (* a small FLWOR, optionally grouped *)
        gen_var >>= fun v ->
        let bound' = v :: bound in
        go bound (n / 2) >>= fun src ->
        bool >>= fun grouped ->
        if grouped then
          go [ "k" ] (n / 2) >>= fun ret ->
          return
            (Ast.Flwor
               {
                 Ast.clauses =
                   [ Ast.For [ { Ast.for_var = v; positional = None; for_src = src } ];
                     Ast.Group_by
                       {
                         Ast.keys =
                           [ { Ast.key_expr = Ast.Var v; key_var = "k"; using = None } ];
                         nests =
                           [ { Ast.nest_expr = Ast.Var v; nest_order = []; nest_var = "ns" } ];
                       } ];
                 return_at = None;
                 return_expr = ret;
               })
        else
          go bound' (n / 2) >>= fun ret ->
          return
            (Ast.Flwor
               {
                 Ast.clauses =
                   [ Ast.For [ { Ast.for_var = v; positional = None; for_src = src } ] ];
                 return_at = None;
                 return_expr = ret;
               })
  in
  sized_size (int_bound 24) (go [ "v1"; "v2"; "v3" ])

let arb_expr = QCheck.make ~print:Pretty.expr gen_expr

let parser_props =
  [
    QCheck.Test.make ~count:500 ~name:"parse ∘ pretty = identity on ASTs" arb_expr
      (fun e ->
        let printed = Pretty.expr e in
        match Parser.parse_expr printed with
        | e' -> e' = e
        | exception Xerror.Error (_, msg) ->
          QCheck.Test.fail_reportf "failed to reparse %S: %s" printed msg);
    QCheck.Test.make ~count:500 ~name:"pretty is stable (print ∘ parse ∘ print)" arb_expr
      (fun e ->
        let p1 = Pretty.expr e in
        let p2 = Pretty.expr (Parser.parse_expr p1) in
        p1 = p2);
  ]

(* --- grouping invariants -------------------------------------------------------------- *)

(* Build <r><i><k>K</k><v>V</v></i>…</r> from pairs. *)
let doc_of_pairs pairs =
  let open Xq_xml.Builder in
  doc
    (el "r"
       (List.map
          (fun (k, v) ->
            el "i" [ el_text "k" (string_of_int k); el_text "v" (string_of_int v) ])
          pairs))

let arb_pairs =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) l))
    QCheck.Gen.(list_size (int_range 0 40) (pair (int_range 0 5) (int_range 0 9)))

let run_ints doc q =
  List.map
    (fun it -> int_of_string (Item.string_value it))
    (Xq_algebra.Exec.run_string ~context_node:doc q)

let grouping_props =
  [
    QCheck.Test.make ~count:300 ~name:"groups partition the input" arb_pairs
      (fun pairs ->
        let doc = doc_of_pairs pairs in
        let sizes =
          run_ints doc
            "for $i in //i group by $i/k into $k nest $i into $is return count($is)"
        in
        List.fold_left ( + ) 0 sizes = List.length pairs);
    QCheck.Test.make ~count:300 ~name:"group count = distinct-values count" arb_pairs
      (fun pairs ->
        let doc = doc_of_pairs pairs in
        let groups =
          run_ints doc "count(for $i in //i group by $i/k into $k return 1)"
        in
        let distinct = run_ints doc "count(distinct-values(//i/k))" in
        groups = distinct);
    QCheck.Test.make ~count:300 ~name:"per-group sums add up to the total" arb_pairs
      (fun pairs ->
        let doc = doc_of_pairs pairs in
        let per_group =
          run_ints doc
            "for $i in //i group by $i/k into $k nest $i/v into $vs return sum($vs)"
        in
        let total = List.fold_left (fun acc (_, v) -> acc + v) 0 pairs in
        List.fold_left ( + ) 0 per_group = total);
    QCheck.Test.make ~count:200 ~name:"explicit group-by ≡ implicit idiom" arb_pairs
      (fun pairs ->
        let doc = doc_of_pairs pairs in
        let explicit =
          Xq_xml.Serialize.sequence
            (Xq_algebra.Exec.run_string ~context_node:doc
               "for $i in //i group by $i/k into $k nest $i into $is order by \
                number($k) return <g>{string($k)}:{count($is)}</g>")
        in
        let implicit =
          Xq_xml.Serialize.sequence
            (Xq_algebra.Exec.run_string ~context_node:doc
               "for $k in distinct-values(//i/k) let $is := //i[k = $k] order \
                by number($k) return <g>{string($k)}:{count($is)}</g>")
        in
        explicit = implicit);
    QCheck.Test.make ~count:200 ~name:"rewrite preserves results" arb_pairs
      (fun pairs ->
        let doc = doc_of_pairs pairs in
        let q =
          "for $k in distinct-values(//i/k) let $is := //i[k = $k] order by \
           number($k) return <g>{string($k)}:{count($is)}</g>"
        in
        Xq_xml.Serialize.sequence (Xq.run doc q)
        = Xq_xml.Serialize.sequence (Xq.run_rewritten doc q));
    (* the count optimization is the plan's fn:count pushdown *)
    QCheck.Test.make ~count:200
      ~name:"count optimization preserves results on random data"
      arb_pairs
      (fun pairs ->
        let doc = doc_of_pairs pairs in
        let q =
          "for $i in //i group by $i/k into $k nest $i into $is order by \
           number($k) return <g>{string($k)}:{count($is)}</g>"
        in
        let run enabled =
          Xq_xml.Serialize.sequence
            (Xq_algebra.Exec.run_string ~config:(Helpers.pushdown enabled)
               ~context_node:doc q)
        in
        run false = run true);
    QCheck.Test.make ~count:200 ~name:"order by sorts like List.sort"
      (QCheck.make QCheck.Gen.(list_size (int_range 0 30) (int_range (-50) 50)))
      (fun ints ->
        let open Xq_xml.Builder in
        let doc =
          doc (el "r" (List.map (fun i -> el_text "v" (string_of_int i)) ints))
        in
        run_ints doc "for $v in //v order by number($v) return string($v)"
        = List.sort compare ints);
  ]

let suites =
  [
    ("props.deep-equal", List.map to_alcotest deep_equal_props);
    ("props.xml", List.map to_alcotest xml_props);
    ("props.datetime", List.map to_alcotest datetime_props);
    ("props.parser", List.map to_alcotest parser_props);
    ("props.grouping", List.map to_alcotest grouping_props);
  ]
