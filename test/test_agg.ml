(* The eager-aggregation rewrite (ISSUE 10): accumulator folds must
   replicate the builtin aggregates exactly (values and error codes),
   the rewritten plans must be byte-identical to the unrewritten ones
   across every strategy × parallel degree × spill watermark, torn or
   out-of-range accumulator spill frames must fail closed, and both
   rewrites must announce themselves in EXPLAIN. *)

open Helpers
open Xq_xdm
module Acc = Xq_engine.Acc
module Builtins = Xq_engine.Builtins
module Context = Xq_engine.Context
module Governor = Xq_governor.Governor
module Exec = Xq_algebra.Exec
module Plan = Xq_algebra.Plan
module Optimizer = Xq_algebra.Optimizer
module Pipeline = Xq_pipeline.Pipeline
module Prng = Xq_workload.Prng

let to_alcotest = QCheck_alcotest.to_alcotest
let serialize = Xq_xml.Serialize.sequence
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let all_kinds = Acc.[ Count; Sum; Avg; Min; Max ]

(* --- accumulator vs builtin reference ------------------------------------- *)

(* Atomics skewed toward the aggregate folds' edges: integer boundaries
   (the sum overflow frontier), NaN and the infinities, untyped lexicals
   both castable and not, and plainly non-numeric items. *)
let gen_edge_atom : Atomic.t QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [
      (5, map (fun i -> Atomic.Int i) (int_range (-1000) 1000));
      (1, oneofl [ Atomic.Int max_int; Atomic.Int min_int; Atomic.Int 0 ]);
      (3, map (fun f -> Atomic.Dec (float_of_int f /. 100.)) (int_range (-100000) 100000));
      (2, map (fun f -> Atomic.Dbl f) (float_bound_inclusive 1e6));
      ( 1,
        oneofl
          [
            Atomic.Dbl Float.nan;
            Atomic.Dbl Float.infinity;
            Atomic.Dbl Float.neg_infinity;
            Atomic.Dbl (-0.);
          ] );
      (2, map (fun i -> Atomic.Untyped (string_of_int i)) (int_range (-500) 500));
      ( 1,
        oneofl
          [
            Atomic.Untyped " 3.5 ";
            Atomic.Untyped "1e3";
            Atomic.Untyped "not-a-number";
            Atomic.Untyped "";
            Atomic.Str "abc";
            Atomic.Bool true;
          ] );
    ]

(* A group's member values: a list of per-tuple sequences, some empty —
   the per-member-empty case must vanish without a trace. *)
let gen_members : Xseq.t list QCheck.Gen.t =
  let open QCheck.Gen in
  list_size (int_bound 12)
    (list_size (int_bound 3) (map (fun a -> Item.Atomic a) gen_edge_atom))

let arb_members =
  QCheck.make
    ~print:(fun ms -> String.concat " | " (List.map serialize ms))
    gen_members

let acc_of members =
  let acc = Acc.create () in
  List.iter (Acc.step acc) members;
  acc

(* The unrewritten semantics: materialize the member list, then apply
   the builtin at the call site. *)
let reference kind members =
  let seq = Xseq.concat members in
  let name = Xname.make (Acc.kind_name kind) in
  match Builtins.call Context.empty name [ seq ] with
  | v -> Ok v
  | exception Xerror.Error (code, msg) -> Error (code, msg)

let same_outcome got want =
  match got, want with
  | Ok a, Ok b -> Stdlib.compare a b = 0
  | Error (c, _), Error (c', _) -> c = c'
  | _ -> false

let acc_props =
  [
    QCheck.Test.make ~count:800
      ~name:
        "folded aggregates = materialize-then-aggregate (values and \
         error codes, all five kinds)"
      arb_members
      (fun members ->
        let acc = acc_of members in
        (* the count-only step a [count]-only slot folds with *)
        let counted = Acc.create () in
        List.iter (Acc.step_count counted) members;
        same_outcome (Acc.finish counted Acc.Count) (reference Acc.Count members)
        && List.for_all
             (fun kind ->
               same_outcome (Acc.finish acc kind) (reference kind members))
             all_kinds);
    QCheck.Test.make ~count:400
      ~name:"error messages match the builtins' too" arb_members
      (fun members ->
        let acc = acc_of members in
        List.for_all
          (fun kind ->
            match Acc.finish acc kind, reference kind members with
            | Ok _, Ok _ -> true
            | Error (c, m), Error (c', m') -> c = c' && m = m'
            | _ -> false)
          all_kinds);
    QCheck.Test.make ~count:400
      ~name:"merge of a split group = one pass (integer data is exact)"
      QCheck.(
        pair
          (make
             (Gen.list_size (Gen.int_bound 8)
                (Gen.list_size (Gen.int_bound 3)
                   (Gen.map
                      (fun i -> Item.Atomic (Atomic.Int i))
                      (Gen.int_range (-1000) 1000)))))
          (make
             (Gen.list_size (Gen.int_bound 8)
                (Gen.list_size (Gen.int_bound 3)
                   (Gen.map
                      (fun i -> Item.Atomic (Atomic.Int i))
                      (Gen.int_range (-1000) 1000))))))
      (fun (earlier, later) ->
        let merged = Acc.merge (acc_of earlier) (acc_of later) in
        let whole = acc_of (earlier @ later) in
        List.for_all
          (fun kind ->
            same_outcome (Acc.finish merged kind) (Acc.finish whole kind))
          all_kinds);
  ]

let acc_unit_tests =
  [
    test "an empty group: count 0, sum 0, avg/min/max empty" (fun () ->
        let acc = Acc.create () in
        check_bool "count" true
          (Acc.finish acc Acc.Count = Ok [ Item.of_int 0 ]);
        check_bool "sum" true (Acc.finish acc Acc.Sum = Ok [ Item.of_int 0 ]);
        check_bool "avg" true (Acc.finish acc Acc.Avg = Ok []);
        check_bool "min" true (Acc.finish acc Acc.Min = Ok []);
        check_bool "max" true (Acc.finish acc Acc.Max = Ok []));
    test "NaN members: sum/avg are NaN, min/max keep the running best"
      (fun () ->
        let members =
          [
            [ Item.Atomic (Atomic.Dbl 2.0) ];
            [ Item.Atomic (Atomic.Dbl Float.nan) ];
            [ Item.Atomic (Atomic.Dbl 1.0) ];
          ]
        in
        let acc = acc_of members in
        List.iter
          (fun kind ->
            check_bool (Acc.kind_name kind) true
              (same_outcome (Acc.finish acc kind) (reference kind members)))
          all_kinds);
    test "mixed untyped + decimal avg matches the builtin's typing"
      (fun () ->
        let members =
          [
            [ Item.Atomic (Atomic.Untyped "4") ];
            [ Item.Atomic (Atomic.Dec 1.5) ];
          ]
        in
        let acc = acc_of members in
        List.iter
          (fun kind ->
            check_bool (Acc.kind_name kind) true
              (same_outcome (Acc.finish acc kind) (reference kind members)))
          all_kinds);
    test "a poisoned fold still counts: count never errors" (fun () ->
        let members =
          [ [ Item.Atomic (Atomic.Str "abc") ]; [ Item.Atomic (Atomic.Int 1) ] ]
        in
        let acc = acc_of members in
        check_bool "count ok" true
          (Acc.finish acc Acc.Count = Ok [ Item.of_int 2 ]);
        check_bool "sum errs FORG0006" true
          (match Acc.finish acc Acc.Sum with
           | Error (Xerror.FORG0006, _) -> true
           | _ -> false));
  ]

(* --- the rewrite differential sweep --------------------------------------- *)

(* Integer data keeps the float folds associative-exact, so even spilled
   (merged) groups must be byte-identical to the materializing plan.
   Half the seeds use a few fat groups, half use hundreds of skinny
   ones — the skinny half is what pushes the O(groups) accumulator
   state past the 64 KB flush floor so the tiny watermark really
   spills folded runs, not just materializing ones. *)
let random_doc rng =
  let open Xq_xml.Builder in
  let pool =
    if Prng.int rng 2 = 0 then 2 + Prng.int rng 9 else 400 + Prng.int rng 400
  in
  let n = 600 + Prng.int rng 600 in
  let item _ =
    el "i"
      [
        el_text "k" (string_of_int (Prng.int rng pool));
        el_text "v" (string_of_int (Prng.int rng 1000));
      ]
  in
  doc (el "r" (List.init n item))

(* Every nest consumption is an eligible aggregate call, so the
   optimizer folds $v away entirely. *)
let agg_query =
  "for $i in //i group by $i/k into $k nest $i/v into $v order by $k \
   return <g>{$k/text()}<c>{count($v)}</c><s>{sum($v)}</s><a>{avg($v)}</a>\
   <m>{min($v)}</m><x>{max($v)}</x></g>"

let strategies =
  [ ("hash", Optimizer.Hash); ("sort", Optimizer.Sort); ("auto", Optimizer.Auto) ]

let parallels = [ 1; 2; 4 ]
let watermarks = [ ("none", None); ("tiny", Some 1) ]
let diff_seeds = 24

let differential_tests =
  [
    test "the sweep's query actually gets rewritten" (fun () ->
        let q = Xq.parse agg_query in
        match q.Xq_lang.Ast.body with
        | Xq_lang.Ast.Flwor f ->
          let plan =
            Optimizer.push_aggregates
              (Optimizer.apply_strategy Optimizer.Hash (Plan.of_flwor f))
          in
          (* one accumulator slot, all five kinds folded into it *)
          check_int "pushed kinds" 5 (Optimizer.agg_pushdown_count plan)
        | _ -> Alcotest.fail "expected a FLWOR body");
    test
      (Printf.sprintf
         "rewrite on/off is byte-identical (%d seeds × 3 strategies × \
          parallel 1,2,4 × watermark none/tiny)"
         diff_seeds)
      (fun () ->
        let spilled_runs = ref 0 in
        for seed = 1 to diff_seeds do
          let rng = Prng.create (0xa66 + seed) in
          let doc = random_doc rng in
          (* the reference evaluator: never sees the plan layer or the
             rewrite — the ground truth for both settings *)
          let expected =
            serialize (reference_run ~context_node:doc agg_query)
          in
          List.iter
            (fun (slabel, strategy) ->
              List.iter
                (fun parallel ->
                  List.iter
                    (fun (wlabel, watermark) ->
                      let run enabled =
                        let g =
                          Governor.create ?spill_watermark_bytes:watermark ()
                        in
                        let out =
                          Governor.with_governor g (fun () ->
                              serialize
                                (Exec.run_string ~config:(pushdown enabled)
                                   ~strategy ~parallel ~context_node:doc
                                   agg_query))
                        in
                        let s = Governor.stats g in
                        if s.Governor.s_spill_files > 0 then incr spilled_runs;
                        out
                      in
                      let folded = run true in
                      let materialized = run false in
                      if folded <> expected || materialized <> expected then
                        Alcotest.failf
                          "seed %d, %s, parallel %d, watermark %s: diverged\n\
                           expected     %s\n\
                           folded       %s\n\
                           materialized %s"
                          seed slabel parallel wlabel expected folded
                          materialized)
                    watermarks)
                parallels)
            strategies
        done;
        (* the tiny watermark must actually exercise the O(groups)
           accumulator spill path *)
        check_bool "some runs spilled" true (!spilled_runs > 0));
    test "nest-expression errors surface identically in both modes"
      (fun () ->
        let doc = Xq_xml.Xml_parse.parse "<r><i><k>0</k><v>1</v></i></r>" in
        let q =
          "for $i in //i group by $i/k into $k nest $i/v idiv 0 into $q \
           return count($q)"
        in
        let code enabled =
          match
            Exec.run_string ~config:(pushdown enabled) ~strategy:Optimizer.Hash
              ~context_node:doc q
          with
          | _ -> Alcotest.fail "expected a dynamic error"
          | exception Xerror.Error (c, _) -> c
        in
        check_bool "same code" true (code true = code false));
    test "call-site errors surface identically in both modes" (fun () ->
        let doc =
          Xq_xml.Xml_parse.parse
            "<r><i><k>0</k><v>oops</v></i><i><k>0</k><v>2</v></i></r>"
        in
        let q =
          "for $i in //i group by $i/k into $k nest $i/v into $v \
           return sum($v)"
        in
        let outcome enabled =
          match
            Exec.run_string ~config:(pushdown enabled) ~strategy:Optimizer.Hash
              ~context_node:doc q
          with
          | _ -> Alcotest.fail "expected FORG0001"
          | exception Xerror.Error (c, m) -> (c, m)
        in
        check_bool "same code and message" true (outcome true = outcome false));
  ]

(* --- torn accumulator spill frames ---------------------------------------- *)

let expect_corrupt f =
  match f () with
  | (_ : Acc.t) -> Alcotest.fail "decoded a corrupt accumulator"
  | exception Binio.Corrupt _ -> ()

let spill_props =
  [
    QCheck.Test.make ~count:500
      ~name:"accumulators roundtrip through the spill codec exactly"
      arb_members
      (fun members ->
        let acc = acc_of members in
        let buf = Buffer.create 64 in
        Acc.encode buf acc;
        let acc' = Acc.decode (Binio.reader (Buffer.contents buf)) in
        List.for_all
          (fun kind ->
            match Acc.finish acc kind, Acc.finish acc' kind with
            | Ok a, Ok b -> Stdlib.compare a b = 0
            | Error a, Error b -> a = b
            | _ -> false)
          all_kinds
        && Acc.nest_err acc = Acc.nest_err acc'
        && Acc.charged_bytes acc = Acc.charged_bytes acc');
    QCheck.Test.make ~count:300
      ~name:"every torn accumulator prefix is rejected, never misdecoded"
      arb_members
      (fun members ->
        let acc = acc_of members in
        Acc.poison_nest acc Xerror.FOAR0001 "division by zero";
        let buf = Buffer.create 64 in
        Acc.encode buf acc;
        let whole = Buffer.contents buf in
        let ok = ref true in
        for cut = 0 to String.length whole - 1 do
          (match Acc.decode (Binio.reader (String.sub whole 0 cut)) with
           | (_ : Acc.t) -> ok := false
           | exception Binio.Corrupt _ -> ())
        done;
        !ok);
  ]

let spill_unit_tests =
  [
    test "a negative count is corrupt" (fun () ->
        let buf = Buffer.create 16 in
        Binio.put_varint buf (-1);
        expect_corrupt (fun () -> Acc.decode (Binio.reader (Buffer.contents buf))));
    test "an out-of-range numeric-type tag is corrupt" (fun () ->
        let buf = Buffer.create 16 in
        Binio.put_varint buf 1;
        Binio.put_float buf 1.0;
        Binio.put_varint buf 7;
        expect_corrupt (fun () -> Acc.decode (Binio.reader (Buffer.contents buf))));
    test "an out-of-range error tag is corrupt" (fun () ->
        let buf = Buffer.create 16 in
        Binio.put_varint buf 1;
        Binio.put_float buf 1.0;
        Binio.put_varint buf 0;
        (* num_err present, with a tag the codec never writes *)
        Binio.put_varint buf 1;
        Binio.put_varint buf 9;
        expect_corrupt (fun () -> Acc.decode (Binio.reader (Buffer.contents buf))));
    test "an unknown nest-error code is corrupt" (fun () ->
        let acc = acc_of [ [ Item.Atomic (Atomic.Int 1) ] ] in
        Acc.poison_nest acc Xerror.FOAR0001 "division by zero";
        let buf = Buffer.create 64 in
        Acc.encode buf acc;
        let whole = Buffer.contents buf in
        (* the encoded code string "FOAR0001" holds the only 'F' in the
           frame; flip it to something code_of_string cannot resolve *)
        let mangled = String.map (function 'F' -> 'Z' | c -> c) whole in
        expect_corrupt (fun () -> Acc.decode (Binio.reader mangled)));
    test "spilled corrupt frames fail closed as XQENG0006 end-to-end"
      (fun () ->
        (* the group layer converts Binio.Corrupt from any spill codec
           into a spill trip; the accumulator codec rides that path *)
        check_bool "resource error" true (Xerror.is_resource Xerror.XQENG0006);
        match Governor.spill_trip "spill decode failed: probe" with
        | () -> Alcotest.fail "expected XQENG0006"
        | exception Xerror.Error (Xerror.XQENG0006, msg) ->
          check_bool "message carries the decode reason" true
            (contains_sub msg "decode"));
  ]

(* --- EXPLAIN surfacing ----------------------------------------------------- *)

let lineitems_doc () =
  Xq_xml.Xml_parse.parse
    {|<orders>
  <order><lineitem><sku>A1</sku><qty>2</qty></lineitem>
         <lineitem><sku>B7</sku><qty>3</qty></lineitem></order>
  <order><lineitem><sku>A1</sku><qty>5</qty></lineitem></order>
</orders>|}

let explain_tests =
  [
    test "EXPLAIN ANALYZE announces the pushdown, and only then" (fun () ->
        let doc = lineitems_doc () in
        let analyze enabled =
          Xq_rewrite.Explain.analyze_query ~timings:false
            ~config:(pushdown enabled) ~strategy:Optimizer.Hash ~parallel:1
            ~context_node:doc (Xq.parse agg_query)
        in
        let pushed = analyze true in
        check_bool "rewrite line" true
          (contains_sub pushed "rewrite: agg-pushdown=5");
        check_bool "agg annotation on the group op" true
          (contains_sub pushed " agg=[$v:count,sum,avg,min,max]");
        let off = analyze false in
        check_bool "silent when disabled" false
          (contains_sub off "agg-pushdown"));
    test "the kill switch really reaches the planner" (fun () ->
        let doc = lineitems_doc () in
        let pushed enabled =
          match
            Exec.analyze_query ~config:(pushdown enabled)
              ~strategy:Optimizer.Hash ~context_node:doc (Xq.parse agg_query)
          with
          | [ Exec.Analyzed_plan (plan, _, _) ] ->
            Optimizer.agg_pushdown_count plan
          | _ -> Alcotest.fail "expected one analyzed plan"
        in
        check_int "disabled: nothing pushed" 0 (pushed false);
        check_int "enabled: pushed" 5 (pushed true));
    test "--rewrite EXPLAIN ANALYZE announces the implicit-grouping \
          rewrite on the paper's Q idiom" (fun () ->
        let source =
          "for $sku in distinct-values(//order/lineitem/sku) \
           let $grp := for $i in //order/lineitem where $i/sku = $sku \
           return $i return <r>{$sku, count($grp)}</r>"
        in
        let report =
          Pipeline.run
            ~knobs:
              { Pipeline.default_knobs with Pipeline.k_rewrite = true }
            ~explain_analyze:true ~source
            ~load_doc:(fun () -> lineitems_doc ())
            ()
        in
        check_bool "implicit-grouping line" true
          (contains_sub report.Pipeline.r_output
             "rewrite: implicit-grouping=1");
        (* the count is recorded at compile time, so a compiled query
           reused across runs (the server's plan cache) reports it on
           every one of them *)
        let compiled = Pipeline.compile ~rewrite:true source in
        List.iter
          (fun run ->
            let cached =
              Pipeline.run
                ~knobs:
                  { Pipeline.default_knobs with Pipeline.k_rewrite = true }
                ~explain_analyze:true ~compiled
                ~load_doc:(fun () -> lineitems_doc ())
                ()
            in
            check_bool
              (Printf.sprintf "implicit-grouping line, cached run %d" run)
              true
              (contains_sub cached.Pipeline.r_output
                 "rewrite: implicit-grouping=1"))
          [ 1; 2 ];
        (* without --rewrite the line must not appear *)
        let plain =
          Pipeline.run ~explain_analyze:true ~source
            ~load_doc:(fun () -> lineitems_doc ())
            ()
        in
        check_bool "silent without --rewrite" false
          (contains_sub plain.Pipeline.r_output "implicit-grouping"));
    test "--rewrite produces the same output as the unrewritten Q idiom"
      (fun () ->
        let source =
          "for $sku in distinct-values(//order/lineitem/sku) \
           let $grp := for $i in //order/lineitem where $i/sku = $sku \
           return $i return <r>{$sku, count($grp)}</r>"
        in
        let out rewrite =
          (Pipeline.run
             ~knobs:
               { Pipeline.default_knobs with Pipeline.k_rewrite = rewrite }
             ~source
             ~load_doc:(fun () -> lineitems_doc ())
             ())
            .Pipeline.r_output
        in
        Alcotest.(check string) "same output" (out false) (out true));
  ]

let suites =
  [
    ( "agg",
      acc_unit_tests
      @ List.map to_alcotest acc_props
      @ differential_tests
      @ List.map to_alcotest spill_props
      @ spill_unit_tests @ explain_tests );
  ]
