(* Streaming ingestion: projection verdicts, the streaming scan, and
   streamed-vs-materialized differential checks (spill composition,
   read-fault sweep, bounded-memory smoke). *)

open Xq_lang
module Stream = Xq_xml.Xml_stream
module Xml_parse = Xq_xml.Xml_parse
module Projection = Xq_rewrite.Projection
module Governor = Xq_governor.Governor
module Xerror = Xq_xdm.Xerror
module Pipeline = Xq_pipeline.Pipeline
module Optimizer = Xq_algebra.Optimizer

let test = Helpers.test
let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let analyze src = Projection.analyze (Parser.parse_query src)

let path_of src =
  match analyze src with
  | Projection.Streamable { path; _ } -> path
  | Projection.Materialize reason ->
    Alcotest.failf "expected streamable, got: %s" reason

let materialize_reason src =
  match analyze src with
  | Projection.Materialize reason -> reason
  | Projection.Streamable _ -> Alcotest.failf "expected materialize: %s" src

(* --- projection verdicts ------------------------------------------------- *)

let verdict_streamable () =
  (match analyze "for $o in /orders/order return $o/id" with
  | Projection.Streamable { path; var; positional } ->
    check_string "path" "/orders/order" (Stream.path_to_string path);
    check_string "var" "o" var;
    check_bool "no positional" true (positional = None)
  | Projection.Materialize r -> Alcotest.failf "materialize: %s" r);
  check_string "descendant step" "/orders//item"
    (Stream.path_to_string
       (path_of "for $i in /orders//item return $i/price"));
  check_string "leading //" "//item"
    (Stream.path_to_string (path_of "for $i in //item return $i/price"));
  match analyze "for $o at $p in /orders/order return $p" with
  | Projection.Streamable { positional = Some p; _ } ->
    check_string "positional var" "p" p
  | _ -> Alcotest.fail "positional binding should be streamable"

let verdict_group_by () =
  let q =
    {|for $o in /orders/order
      group by $o/cust into $k nest $o into $os
      order by $k
      return <r>{$k, count($os)}</r>|}
  in
  match analyze q with
  | Projection.Streamable { var = "o"; _ } -> ()
  | Projection.Streamable _ -> Alcotest.fail "wrong binding"
  | Projection.Materialize r -> Alcotest.failf "materialize: %s" r

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let assert_reason src fragment =
  let r = materialize_reason src in
  check_bool
    (Printf.sprintf "reason for %S mentions %S (got %S)" src fragment r)
    true (contains r fragment)

let verdict_materialize_reasons () =
  assert_reason "1 + 2" "FLWOR";
  assert_reason "for $o in /orders/order return /orders" "document root";
  assert_reason "for $o in /orders/order return count(//x)" "document root";
  assert_reason "for $o in /orders/order return $o/.." "escapes";
  assert_reason "for $o in /orders/order return doc('x')" "doc";
  assert_reason "for $o in /orders/order return count(.)" "context item";
  (* a predicate on the first binding's path is not a pure projection *)
  ignore (materialize_reason "for $o in /orders/order[1] return $o")

let verdict_to_string () =
  check_string "rendering" "streamable: $o <- scan /orders/order"
    (Projection.to_string (analyze "for $o in /orders/order return $o"))

(* --- the streaming scan --------------------------------------------------- *)

let serialize_nodes nodes =
  Xq_xml.Serialize.sequence (List.map (fun n -> Xq_xdm.Item.Node n) nodes)

let scan_path = path_of "for $x in /a/b return $x"

let scan_basic () =
  let doc = "<a><b>1</b><c>skip</c><b>2</b></a>" in
  let nodes = Stream.collect ~path:scan_path (`String doc) in
  check_int "two matches" 2 (List.length nodes);
  check_string "projected subtrees" "<b>1</b><b>2</b>" (serialize_nodes nodes)

let scan_nested_descendant () =
  let path = path_of "for $x in //b return $x" in
  let doc = "<a><b>x<b>y</b></b><b>z</b></a>" in
  let nodes = Stream.collect ~path (`String doc) in
  check_int "outer, nested and sibling matches" 3 (List.length nodes);
  check_string "document order, nested emitted too"
    "<b>x<b>y</b></b><b>y</b><b>z</b>" (serialize_nodes nodes)

let scan_lexical_parity () =
  (* entities, character references, CDATA and whitespace handling must
     match the materializing parser byte for byte *)
  let doc =
    "<a>\n  <b at=\"v&amp;w\">x &lt; &#65; <![CDATA[raw <markup> &amp;]]> \
     tail</b>\n  <b>&quot;q&quot;</b>\n</a>"
  in
  let streamed = serialize_nodes (Stream.collect ~path:scan_path (`String doc)) in
  let materialized = Helpers.run_xml ~data:doc "for $x in /a/b return $x" in
  check_string "streamed = materialized" materialized streamed

let scan_file_source () =
  let doc = "<a><b>one</b><b>two</b></a>" in
  let path_tmp = Filename.temp_file "xq_stream" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path_tmp)
    (fun () ->
      let oc = open_out_bin path_tmp in
      output_string oc doc;
      close_out oc;
      check_string "file source = string source"
        (serialize_nodes (Stream.collect ~path:scan_path (`String doc)))
        (serialize_nodes (Stream.collect ~path:scan_path (`File path_tmp))))

let scan_limits () =
  let deep = "<a><b><c><d><e>x</e></d></c></b></a>" in
  (match Stream.collect ~max_depth:3 ~path:scan_path (`String deep) with
  | _ -> Alcotest.fail "depth cap did not trip"
  | exception Xml_parse.Parse_error _ -> ());
  let doc = "<a><b>0123456789</b></a>" in
  match Stream.collect ~max_bytes:10 ~path:scan_path (`String doc) with
  | _ -> Alcotest.fail "byte cap did not trip"
  | exception Xml_parse.Parse_error { message; _ } ->
    check_bool "byte-cap message" true (contains message "10-byte limit")

let scan_malformed () =
  let cases =
    [
      "<a><b>unclosed</a>";
      "<a><b attr></b></a>";
      "<a><b>&unknown;</b></a>";
      "<a><b>text";
    ]
  in
  List.iter
    (fun doc ->
      match Stream.collect ~path:scan_path (`String doc) with
      | _ -> Alcotest.failf "accepted malformed %S" doc
      | exception Xml_parse.Parse_error _ -> ())
    cases

(* --- streamed vs materialized execution ----------------------------------- *)

let orders_doc n =
  let b = Buffer.create (n * 64) in
  Buffer.add_string b "<orders>";
  for i = 1 to n do
    Buffer.add_string b
      (Printf.sprintf "<order><cust>c%d</cust><amt>%d</amt></order>"
         (i mod 7) i)
  done;
  Buffer.add_string b "</orders>";
  Buffer.contents b

let group_q =
  {|for $o in /orders/order
    group by $o/cust into $k nest $o into $os
    order by $k
    return <r><k>{$k}</k><n>{count($os)}</n><s>{sum($os/amt)}</s></r>|}

(* The scan the projection verdict derives for [query] over [doc]. *)
let scan_of query doc =
  match Projection.analyze query with
  | Projection.Streamable { path; var; positional } ->
    { Xq_algebra.Exec.source = `String doc; path; var; positional }
  | Projection.Materialize r -> Alcotest.failf "not streamable: %s" r

let streamed_result ?(strategy = Optimizer.Hash) q doc =
  let query = Parser.parse_query q in
  Pipeline.render
    (Xq_algebra.Exec.eval_query ~strategy ~scan:(scan_of query doc)
       ~context_node:(Xq_xdm.Node.document ()) query)

let materialized_result ?(strategy = Optimizer.Hash) q doc =
  let query = Parser.parse_query q in
  Static.check_query query;
  Pipeline.render
    (Pipeline.eval ~strategy ~parallel:1 ~doc:(Xml_parse.parse doc)
       (Pipeline.of_query query))

let exec_byte_identity () =
  let doc = orders_doc 200 in
  let expected = materialized_result group_q doc in
  check_string "hash strategy" expected (streamed_result group_q doc);
  check_string "sort strategy" expected
    (streamed_result ~strategy:Optimizer.Sort group_q doc);
  check_bool "non-trivial result" true (String.length expected > 50)

let exec_spill_composition () =
  (* a tiny watermark forces the hash group to spill while the scan is
     still feeding it — the bounded-memory composition the tentpole
     claims: ingestion charges subtree estimates, grouping detaches
     retained subtrees to disk, and the output stays byte-identical.
     (A partition flushes once its live charge clears the 64 KB flush
     floor, so the document must carry a few thousand members.) *)
  let doc = orders_doc 4000 in
  let expected = materialized_result group_q doc in
  let g = Governor.create ~spill_watermark_bytes:4096 ~max_mem_mb:512 () in
  let streamed = Governor.with_governor g (fun () -> streamed_result group_q doc) in
  check_string "spilled streamed output" expected streamed;
  let st = Governor.stats g in
  check_bool "grouping actually spilled" true (st.Governor.s_spilled_bytes > 0)

let exec_bounded_memory () =
  (* a document an order of magnitude past the watermark completes with
     a far smaller memory peak than the materializing path: the scan
     never builds the full tree, and the spilling group releases the
     retained subtrees. Peaks are Gc-delta estimates, so the assertion
     is comparative rather than an absolute byte bound. *)
  let doc = orders_doc 40_000 in
  let watermark = 8 * 1024 in
  check_bool "doc is >10x the watermark" true
    (String.length doc > 10 * watermark);
  let gm = Governor.create ~spill_watermark_bytes:watermark ~max_mem_mb:512 () in
  let expected =
    Governor.with_governor gm (fun () -> materialized_result group_q doc)
  in
  let gs = Governor.create ~spill_watermark_bytes:watermark ~max_mem_mb:512 () in
  let streamed = Governor.with_governor gs (fun () -> streamed_result group_q doc) in
  check_string "output unchanged" expected streamed;
  let peak_m = (Governor.stats gm).Governor.s_peak_mem_bytes in
  let peak_s = (Governor.stats gs).Governor.s_peak_mem_bytes in
  check_bool "streamed run spilled" true
    ((Governor.stats gs).Governor.s_spilled_bytes > 0);
  check_bool
    (Printf.sprintf "streamed peak (%d) well under materialized peak (%d)"
       peak_s peak_m)
    true
    (peak_s * 2 < peak_m)

let space_overhead () = (Gc.get ()).Gc.space_overhead

let exec_tight_gc_counted () =
  (* scan A tightens, scan B joins, A finishes first, then B: the
     pacing stays tight until the last one leaves and is then restored
     to what it was before A — never to B's tightened snapshot *)
  let original = space_overhead () in
  let step = Atomic.make 0 in
  let wait_for n =
    let give_up = Unix.gettimeofday () +. 30.0 in
    while Atomic.get step < n do
      if Unix.gettimeofday () > give_up then failwith "interleaving timed out";
      Domain.cpu_relax ()
    done
  in
  let a =
    Domain.spawn (fun () ->
        Xq_algebra.Exec.with_tight_gc (fun () ->
            Atomic.set step 1;
            wait_for 2);
        Atomic.set step 3)
  in
  let b =
    Domain.spawn (fun () ->
        wait_for 1;
        Xq_algebra.Exec.with_tight_gc (fun () ->
            Atomic.set step 2;
            wait_for 3;
            space_overhead ()))
  in
  Domain.join a;
  check_int "still tight after the first scan left"
    Xq_algebra.Exec.tight_space_overhead (Domain.join b);
  check_int "restored after the last scan" original (space_overhead ())

let exec_overlapping_bounded_streams () =
  (* two governed streamed runs on two domains: the short one starts
     first, the long one joins once the first has tightened the pacing,
     so the first usually ends while the second still runs — output
     stays identical, and the pacing they shared is restored *)
  let small = orders_doc 4000 and large = orders_doc 40_000 in
  let original = space_overhead () in
  let run doc () =
    let g = Governor.create ~spill_watermark_bytes:8192 ~max_mem_mb:512 () in
    Governor.with_governor g (fun () -> streamed_result group_q doc)
  in
  let a = Domain.spawn (run small) in
  let give_up = Unix.gettimeofday () +. 10.0 in
  while
    space_overhead () <> Xq_algebra.Exec.tight_space_overhead
    && Unix.gettimeofday () < give_up
  do
    Domain.cpu_relax ()
  done;
  let b = Domain.spawn (run large) in
  check_string "first scan" (materialized_result group_q small) (Domain.join a);
  check_string "second scan" (materialized_result group_q large)
    (Domain.join b);
  check_int "GC pacing back to its original value" original (space_overhead ())

let exec_parse_ahead_capped () =
  (* no watermark, default batch: the vector handed downstream is still
     bounded by the fixed parse-ahead cap in subtree-estimate bytes *)
  let n = 10_000 in
  let doc = orders_doc n in
  let cap = Xq_algebra.Exec.stream_ahead_bytes in
  let vectors = ref [] in
  Xq_algebra.Exec.scan_vectors ~batch:4096
    ~path:(path_of "for $o in /orders/order return $o")
    (`String doc)
    (fun ~bytes vec -> vectors := (bytes, Array.length vec) :: !vectors);
  let vectors = List.rev !vectors in
  (match vectors with
   | (bytes, len) :: _ ->
     check_bool
       (Printf.sprintf "first vector's estimates (%d B) within the cap (%d B)"
          bytes cap)
       true (bytes <= cap);
     check_bool
       (Printf.sprintf "the cap, not the batch, ended it (%d subtrees)" len)
       true (len < 4096)
   | [] -> Alcotest.fail "nothing scanned");
  check_bool "every vector within the cap" true
    (List.for_all (fun (bytes, _) -> bytes <= cap) vectors);
  check_int "every subtree handed downstream once" n
    (List.fold_left (fun acc (_, len) -> acc + len) 0 vectors)

let exec_fault_sweep () =
  (* >=20 seeds of injected read-I/O faults: every run either fails with
     a clean structured error or produces byte-identical output — never
     partial or divergent data *)
  let doc = orders_doc 4000 in
  let expected = materialized_result group_q doc in
  let clean = ref 0 and tripped = ref 0 and truncated = ref 0 in
  for seed = 0 to 24 do
    Governor.set_faults ~seed ~rate:0.4;
    Fun.protect ~finally:Governor.clear_faults (fun () ->
        let g = Governor.create () in
        match Governor.with_governor g (fun () -> streamed_result group_q doc) with
        | out ->
          incr clean;
          check_string (Printf.sprintf "seed %d output" seed) expected out
        | exception Xerror.Error (code, _) ->
          (* usually the injected read fault's XQENG0008, but arming
             XQ_FAULTS also arms the allocation-pressure stream, so any
             engine resource trip is an acceptable clean failure *)
          incr tripped;
          let c = Xerror.code_to_string code in
          check_bool
            (Printf.sprintf "seed %d trips an engine code (got %s)" seed c)
            true
            (String.length c >= 5 && String.sub c 0 5 = "XQENG")
        | exception Xml_parse.Parse_error _ ->
          (* an injected truncation surfaces as the parser's ordinary
             unexpected-end error *)
          incr truncated)
  done;
  check_int "every seed accounted for" 25 (!clean + !tripped + !truncated);
  check_bool
    (Printf.sprintf "faults actually fired (clean %d, trip %d, trunc %d)"
       !clean !tripped !truncated)
    true
    (!tripped + !truncated > 0)

(* --- EXPLAIN ANALYZE over the streamed chain ------------------------------ *)

let analyze ?scan ~context_node q =
  Xq_rewrite.Explain.analyze_query ~timings:false ~strategy:Optimizer.Hash
    ?scan ~context_node (Parser.parse_query q)

let explain_streamed_identical () =
  (* the scan is only the leading FOR-EXPAND's source: the analyzed
     chain, its rows and its groups are those of the parsed document *)
  let doc = orders_doc 150 in
  let materialized = analyze ~context_node:(Xml_parse.parse doc) group_q in
  let streamed =
    analyze
      ~scan:(scan_of (Parser.parse_query group_q) doc)
      ~context_node:(Xq_xdm.Node.document ()) group_q
  in
  check_string "same analyzed chain" materialized streamed;
  check_bool "FOR-EXPAND counts the scanned subtrees" true
    (contains streamed
       "FOR-EXPAND $o <- /child::orders/child::order  [in=1 out=150]");
  check_bool "UNIT seeds it" true (contains streamed "UNIT  [in=0 out=1]");
  check_bool "HASH-GROUP groups the scanned rows" true
    (contains streamed "[in=150 out=7 groups=7 ")

(* every member is kept ([$os[1]] is no aggregate), so the hash build
   holds the detached subtrees and has real state to spill *)
let retained_q =
  {|for $o in /orders/order
    group by $o/cust into $k nest $o into $os
    order by $k
    return <r><k>{$k}</k>{$os[1]/amt}<n>{count($os)}</n></r>|}

let exec_detached_spill_by_value () =
  (* a streamed group's members are detached subtrees, so its spill
     frames carry them by value (flushing then releases them) and charge
     their real size, where the parsed document's members spill as
     registry references: the same query under the same watermark
     spills several times the bytes *)
  let doc = orders_doc 20_000 in
  let spilled run =
    let g =
      Governor.create ~spill_watermark_bytes:(1 lsl 20) ~max_mem_mb:512 ()
    in
    let out = Governor.with_governor g run in
    (out, (Governor.stats g).Governor.s_spilled_bytes)
  in
  let m_out, m = spilled (fun () -> materialized_result retained_q doc) in
  let s_out, s = spilled (fun () -> streamed_result retained_q doc) in
  check_string "output unchanged" m_out s_out;
  check_bool
    (Printf.sprintf "streamed by value (%d B) > 4x by reference (%d B)" s m)
    true
    (s > 4 * max m 1)

(* The [spilled=NB] figures of the operator rows (not the governor's
   summary line), summed. *)
let operator_spilled text =
  let key = " spilled=" in
  let rec index_of line i =
    if i + String.length key > String.length line then None
    else if String.sub line i (String.length key) = key then Some i
    else index_of line (i + 1)
  in
  List.fold_left
    (fun acc line ->
      match index_of line 0 with
      | Some i when not (contains line "governor:") ->
        let start = i + String.length key in
        let stop = String.index_from line start 'B' in
        acc + int_of_string (String.sub line start (stop - start))
      | _ -> acc)
    0
    (String.split_on_char '\n' text)

let explain_streamed_spill_figures () =
  let doc = orders_doc 10_000 in
  let g =
    Governor.create ~spill_watermark_bytes:(1 lsl 20) ~max_mem_mb:512 ()
  in
  let text =
    Governor.with_governor g (fun () ->
        analyze
          ~scan:(scan_of (Parser.parse_query retained_q) doc)
          ~context_node:(Xq_xdm.Node.document ()) retained_q)
  in
  let spilled = (Governor.stats g).Governor.s_spilled_bytes in
  check_bool "the streamed run spilled" true (spilled > 0);
  check_int "operator spilled= figures are the governor's" spilled
    (operator_spilled text)

(* [xq profile] decides through [Pipeline.plan_load], as [run] does:
   with a file input a streamable query streams, and the operator rows
   it prints are the [--no-stream] rows, self times aside. *)
let cli_exe = Filename.concat ".." (Filename.concat "bin" "xq_cli.exe")

let profile_rows args =
  let ic = Unix.open_process_args_in cli_exe (Array.of_list (cli_exe :: args)) in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
   | Unix.WEXITED 0 -> ()
   | _ -> Alcotest.failf "xq %s failed" (String.concat " " args));
  (* every table row without its last column, the wall-clock self ms;
     the column is right-aligned, so the padding before it varies with
     its width and is trimmed too *)
  let cut line =
    let n = ref (String.rindex line ' ') in
    while !n > 0 && line.[!n - 1] = ' ' do
      decr n
    done;
    String.sub line 0 !n
  in
  let rec rows in_table = function
    | [] -> []
    | line :: rest when String.length line >= 8 && String.sub line 0 8 = "operator" ->
      line :: rows true rest
    | "" :: rest -> "" :: rows false rest
    | line :: rest when in_table ->
      cut line :: rows true rest
    | line :: rest -> line :: rows false rest
  in
  String.concat "\n" (rows false (String.split_on_char '\n' out))

let profile_streams () =
  let query = Lazy.from_val (Parser.parse_query group_q) in
  let verdict config =
    Pipeline.scan_of (Pipeline.plan_load ~config query (`File "doc.xml"))
  in
  check_bool "a streamable query streams" true
    (verdict Xq_governor.Config.default <> None);
  check_bool "--no-stream materializes" true
    (verdict (Xq_governor.Config.resolve ~base:Xq_governor.Config.default ~stream:false ())
     = None);
  let tmp ext contents =
    let f = Filename.temp_file "xq_profile" ext in
    Out_channel.with_open_bin f (fun oc -> output_string oc contents);
    f
  in
  let doc = tmp ".xml" (orders_doc 300) and q = tmp ".xq" group_q in
  Fun.protect
    ~finally:(fun () -> Sys.remove doc; Sys.remove q)
    (fun () ->
      let streamed = profile_rows [ "profile"; q; "-i"; doc ] in
      check_bool "FOR-EXPAND row counts the orders" true
        (contains streamed "FOR-EXPAND $o                     1        300");
      check_string "streamed rows = --no-stream rows"
        (profile_rows [ "profile"; q; "-i"; doc; "--no-stream" ])
        streamed)

(* A nested group-by per streamed order, in a [let] (a pool task at
   degree > 1: it constructs no nodes) and in the return clause: the
   nested chains run in contexts derived from the streamed run's, so
   they see its detached input too. *)
let nested_q =
  {|for $o in /orders/order
    let $sums :=
      for $l in $o/lineitem
      group by $l/shipmode into $m nest $l/quantity into $q
      order by $m
      return sum($q)
    return <o n="{count($sums)}">{
      for $l in $o/lineitem
      group by $l/tax into $t nest $l into $ls
      order by $t
      return <t rate="{$t}" n="{count($ls)}">{$ls[1]/quantity}</t>
    }</o>|}

let exec_nested_flwor () =
  let doc =
    Xq_xml.Serialize.node
      (Xq_workload.Orders.generate
         (Xq_workload.Orders.with_lineitems 2000
            { Xq_workload.Orders.default with seed = 11 }))
  in
  ignore (scan_of (Parser.parse_query nested_q) doc);
  List.iter
    (fun parallel ->
      let knobs =
        {
          Pipeline.default_knobs with
          Pipeline.k_strategy = Some Optimizer.Hash;
          k_parallel = Some parallel;
          k_spill_at_mb = Some 1;
        }
      in
      let streamed =
        Pipeline.run ~knobs ~source:nested_q ~stream_source:(`String doc) ()
      in
      let materialized =
        Pipeline.run ~knobs ~source:nested_q
          ~load_doc:(fun () -> Xml_parse.parse doc)
          ()
      in
      check_string
        (Printf.sprintf "parallel %d: streamed = materialized" parallel)
        materialized.Pipeline.r_output streamed.Pipeline.r_output;
      check_bool "non-trivial result" true
        (String.length streamed.Pipeline.r_output > 1000))
    [ 1; 4 ]

(* --- the pipeline front end ------------------------------------------------ *)

let knobs_plan =
  { Pipeline.default_knobs with Pipeline.k_strategy = Some Optimizer.Hash }

let pipeline_stream_identity () =
  let doc = orders_doc 150 in
  let streamed =
    Pipeline.run ~knobs:knobs_plan ~source:group_q
      ~stream_source:(`String doc) ()
  in
  let materialized =
    Pipeline.run ~knobs:knobs_plan ~source:group_q
      ~load_doc:(fun () -> Xml_parse.parse doc)
      ()
  in
  check_string "front-end byte identity" materialized.Pipeline.r_output
    streamed.Pipeline.r_output;
  check_int "same cardinality" materialized.Pipeline.r_items
    streamed.Pipeline.r_items

let pipeline_fallback () =
  (* a non-streamable query through the stream front end degrades to
     materializing with identical output *)
  let doc = orders_doc 20 in
  let q = "for $o in /orders/order return count(//order)" in
  let streamed =
    Pipeline.run ~knobs:knobs_plan ~source:q ~stream_source:(`String doc) ()
  in
  let materialized =
    Pipeline.run ~knobs:knobs_plan ~source:q
      ~load_doc:(fun () -> Xml_parse.parse doc)
      ()
  in
  check_string "fallback byte identity" materialized.Pipeline.r_output
    streamed.Pipeline.r_output

let pipeline_kill_switch () =
  let doc = orders_doc 20 in
  Unix.putenv "XQ_NO_STREAM" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "XQ_NO_STREAM" "0")
    (fun () ->
      let r =
        Pipeline.run ~knobs:knobs_plan ~source:group_q
          ~stream_source:(`String doc) ()
      in
      let expected =
        Pipeline.run ~knobs:knobs_plan ~source:group_q
          ~load_doc:(fun () -> Xml_parse.parse doc)
          ()
      in
      check_string "kill switch output" expected.Pipeline.r_output
        r.Pipeline.r_output)

let pipeline_explain_verdict () =
  let doc = orders_doc 5 in
  let r =
    Pipeline.run ~knobs:knobs_plan ~explain_analyze:true ~source:group_q
      ~stream_source:(`String doc) ()
  in
  check_bool "EXPLAIN carries the stream verdict" true
    (contains r.Pipeline.r_output "stream: streamable: $o <- scan /orders/order")

let suites =
  [
    ( "stream-projection",
      [
        test "streamable verdicts" verdict_streamable;
        test "group-by is streamable" verdict_group_by;
        test "materialize reasons" verdict_materialize_reasons;
        test "verdict rendering" verdict_to_string;
      ] );
    ( "stream-scan",
      [
        test "projected subtrees only" scan_basic;
        test "nested descendant matches" scan_nested_descendant;
        test "lexical parity with the parser" scan_lexical_parity;
        test "file source" scan_file_source;
        test "depth and byte caps" scan_limits;
        test "malformed input is rejected" scan_malformed;
      ] );
    ( "stream-exec",
      [
        test "byte-identical to materialized" exec_byte_identity;
        test "composes with hash-group spill" exec_spill_composition;
        test "bounded memory past the watermark" exec_bounded_memory;
        test "read-fault sweep: clean error or identical" exec_fault_sweep;
        test "overlapping bounded scans: counted GC pacing"
          exec_tight_gc_counted;
        test "overlapping bounded streams restore GC pacing"
          exec_overlapping_bounded_streams;
        test "parse-ahead capped in bytes without a watermark"
          exec_parse_ahead_capped;
        test "nested group-by under a watermark, parallel 1 and 4"
          exec_nested_flwor;
        test "detached members spill by value" exec_detached_spill_by_value;
      ] );
    ( "stream-explain",
      [
        test "streamed EXPLAIN ANALYZE = materialized"
          explain_streamed_identical;
        test "streamed spill figures are the governor's"
          explain_streamed_spill_figures;
        test "xq profile streams" profile_streams;
      ] );
    ( "stream-pipeline",
      [
        test "front-end byte identity" pipeline_stream_identity;
        test "unstreamable query degrades" pipeline_fallback;
        test "XQ_NO_STREAM kill switch" pipeline_kill_switch;
        test "EXPLAIN stream verdict" pipeline_explain_verdict;
      ] );
  ]
