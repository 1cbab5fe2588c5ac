(* Query-server battery: plan-cache and doc-store unit tests, admission
   control, a concurrent differential replay of test/corpus through a
   live socket server, a short Qgen fuzz sweep through the server path,
   and seeded connection-fault injection.

   The concurrency tests start a real [Server_core.serve_unix] daemon on
   a Unix socket under [Filename.get_temp_dir_name] and talk the wire
   protocol from client threads, so they exercise the same accept loop,
   per-connection threads and per-query worker domains production
   uses. *)

module Governor = Xq_governor.Governor
module Pipeline = Xq_pipeline.Pipeline
module Plan_cache = Xq_server.Plan_cache
module Doc_store = Xq_server.Doc_store
module Protocol = Xq_server.Protocol
module Server = Xq_server.Server_core

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let orders_xml n =
  let b = Buffer.create (n * 64) in
  Buffer.add_string b "<orders>";
  for i = 1 to n do
    Buffer.add_string b
      (Printf.sprintf "<order><cust>c%d</cust><amt>%d</amt></order>"
         (i mod 5) i)
  done;
  Buffer.add_string b "</orders>";
  Buffer.contents b

let orders_q =
  "for $o in /orders/order group by $o/cust into $k nest $o into $os \
   order by $k return <r>{$k, count($os), sum($os/amt)}</r>"

(* --- plan cache --------------------------------------------------------- *)

let compile_counting count source =
  fun () ->
    incr count;
    Pipeline.compile source

let knobs = Pipeline.default_knobs
let config = Pipeline.resolve knobs

let test_plan_lru_eviction () =
  let t = Plan_cache.create ~capacity:2 () in
  let count = ref 0 in
  let key n = Pipeline.cache_key ~config (Printf.sprintf "%d + %d" n n) in
  let get n =
    Plan_cache.find_or_add t (key n)
      (compile_counting count (Printf.sprintf "%d + %d" n n))
  in
  ignore (get 1);
  ignore (get 2);
  (* touch 1 so 2 becomes the LRU victim *)
  ignore (get 1);
  ignore (get 3);
  let s = Plan_cache.stats t in
  Alcotest.(check int) "capacity held" 2 s.Plan_cache.p_entries;
  Alcotest.(check int) "one eviction" 1 s.Plan_cache.p_evictions;
  (* 1 and 3 resident, 2 evicted: only 2 recompiles *)
  ignore (get 1);
  ignore (get 3);
  Alcotest.(check int) "no recompile for resident" 3 !count;
  ignore (get 2);
  Alcotest.(check int) "evicted key recompiles" 4 !count

(* Run [f] with [name] set to [value] in the environment, restoring it
   (an unset variable comes back empty, which every knob reads as
   unset). *)
let with_env name value f =
  let saved = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv name (Option.value saved ~default:""))
    f

let test_plan_cache_keying () =
  (* the key covers what compilation reads — the source and the rewrite
     flag — and no knob that only steers execution, whether it comes
     from a header or from the environment *)
  let source = "for $x in /a/b return $x" in
  let key knobs = Pipeline.cache_key ~config:(Pipeline.resolve knobs) source in
  let k_direct = key knobs in
  List.iter
    (fun s ->
      Alcotest.(check string)
        ("STRATEGY " ^ Xq_algebra.Optimizer.strategy_to_string s
       ^ " keeps the key")
        k_direct
        (key { knobs with Pipeline.k_strategy = Some s }))
    Xq_algebra.Optimizer.[ Hash; Sort; Auto ];
  with_env "XQ_GROUP_STRATEGY" "sort" (fun () ->
      Alcotest.(check string) "env strategy keeps the key" k_direct
        (key knobs));
  Alcotest.(check bool) "rewrite changes the key" true
    (key { knobs with Pipeline.k_rewrite = true } <> k_direct);
  (* and the key is injective against crafted query text: a query whose
     text embeds another key's rendering must not collide *)
  let k_sneaky = Pipeline.cache_key ~config k_direct in
  Alcotest.(check bool) "length-prefixing defeats embedding" true
    (k_sneaky <> k_direct);
  (* one cached entry serves a STRATEGY sort request and a header-less
     one, and each runs under its own strategy *)
  let q =
    "for $o in /orders/order group by $o/cust into $k nest $o into $os \
     return <r>{$k, count($os)}</r>"
  in
  let xml = orders_xml 40 in
  let t = Server.create () in
  let serve knobs =
    match
      Server.handle t
        (Protocol.Run
           {
             Protocol.rq_source = q;
             rq_doc = Protocol.Doc_inline xml;
             rq_knobs = knobs;
             rq_indent = false;
           })
    with
    | Protocol.Payload p -> p
    | Protocol.Error { message; _ } -> Alcotest.failf "rejected: %s" message
  in
  let sort = { knobs with Pipeline.k_strategy = Some Xq_algebra.Optimizer.Sort } in
  Alcotest.(check string) "same payload under either strategy" (serve sort)
    (serve knobs);
  let s = Plan_cache.stats (Server.plans t) in
  Alcotest.(check int) "one entry" 1 s.Plan_cache.p_entries;
  Alcotest.(check int) "compiled once" 1 s.Plan_cache.p_misses;
  Alcotest.(check int) "served from the cache" 1 s.Plan_cache.p_hits;
  let compiled =
    Plan_cache.find_or_add (Server.plans t)
      (Pipeline.cache_key ~config q)
      (fun () -> Alcotest.fail "the shared entry is not cached")
  in
  let explain knobs =
    (Pipeline.run ~knobs ~compiled ~explain_analyze:true
       ~load_doc:(fun () -> Xq_xml.Xml_parse.parse xml)
       ())
      .Pipeline.r_output
  in
  let sorted = explain sort and headerless = explain knobs in
  Alcotest.(check bool) "STRATEGY sort runs SORT-GROUP" true
    (contains sorted "SORT-GROUP" && not (contains sorted "HASH-GROUP"));
  let own =
    match Xq_algebra.Optimizer.strategy_from_env () with
    | Xq_algebra.Optimizer.Sort -> "SORT-GROUP"
    | Hash | Auto -> "HASH-GROUP"
  in
  Alcotest.(check bool) ("header-less runs " ^ own) true (contains headerless own)

let test_plan_cache_counters () =
  let house = Governor.create () in
  let t = Plan_cache.create ~capacity:4 ~account:house () in
  let count = ref 0 in
  let key = Pipeline.cache_key ~config "1 + 2" in
  ignore (Plan_cache.find_or_add t key (compile_counting count "1 + 2"));
  ignore (Plan_cache.find_or_add t key (compile_counting count "1 + 2"));
  ignore (Plan_cache.find_or_add t key (compile_counting count "1 + 2"));
  let s = Plan_cache.stats t in
  Alcotest.(check int) "hits" 2 s.Plan_cache.p_hits;
  Alcotest.(check int) "misses" 1 s.Plan_cache.p_misses;
  Alcotest.(check int) "compiled once" 1 !count;
  Alcotest.(check bool) "bytes charged on the account" true
    (Governor.charged_on house > 0);
  Alcotest.(check int) "stats agree with account" (Governor.charged_on house)
    s.Plan_cache.p_bytes;
  Plan_cache.clear t;
  Alcotest.(check int) "clear uncharges" 0 (Governor.charged_on house);
  (* a failing compile counts a miss and caches nothing *)
  (match
     Plan_cache.find_or_add t
       (Pipeline.cache_key ~config "for $")
       (fun () -> Pipeline.compile "for $")
   with
   | _ -> Alcotest.fail "bad query compiled"
   | exception _ -> ());
  Alcotest.(check int) "failure cached nothing" 0
    (Plan_cache.stats t).Plan_cache.p_entries

(* --- doc store ---------------------------------------------------------- *)

let temp_xml contents =
  let path = Filename.temp_file "xq-doc" ".xml" in
  write_file path contents;
  path

let test_doc_store_sharing_and_invalidation () =
  let t = Doc_store.create () in
  let path = temp_xml "<a><b>1</b></a>" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let d1 = Doc_store.load t path in
      let d2 = Doc_store.load t path in
      Alcotest.(check bool) "identical node shared" true (d1 == d2);
      let s = Doc_store.stats t in
      Alcotest.(check int) "one miss" 1 s.Doc_store.d_misses;
      Alcotest.(check int) "one hit" 1 s.Doc_store.d_hits;
      (* rewrite with different bytes; force the mtime to move in case
         the filesystem clock is too coarse to see the rewrite *)
      write_file path "<a><b>2</b><c/></a>";
      let past = Unix.time () +. 5.0 in
      Unix.utimes path past past;
      let d3 = Doc_store.load t path in
      Alcotest.(check bool) "changed file reparsed" true (d1 != d3);
      let s = Doc_store.stats t in
      Alcotest.(check int) "invalidation recorded" 1 s.Doc_store.d_invalidations;
      Alcotest.(check int) "still one entry" 1 s.Doc_store.d_entries;
      let got =
        Xq_xml.Serialize.sequence
          (Xq_algebra.Exec.eval_query ~context_node:d3
             (Xq_lang.Parser.parse_query "fn:count(/a/*)"))
      in
      Alcotest.(check string) "fresh content served" "2" got)

let test_doc_store_rename_swap () =
  (* a rename-swap of a same-length variant preserves mtime and size
     (rename(2) keeps the source file's timestamps) — only the inode
     betrays it. Regression: the store used to key on (mtime, size) and
     served the stale tree forever after such a swap. *)
  let t = Doc_store.create () in
  let path = temp_xml "<a><b>1</b></a>" in
  let alt = temp_xml "<a><b>2</b></a>" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; alt ])
    (fun () ->
      (* pin both files to one past mtime so the swap is invisible to
         an (mtime, size) check no matter the filesystem's precision *)
      let past = Unix.time () -. 60.0 in
      Unix.utimes path past past;
      Unix.utimes alt past past;
      let d1 = Doc_store.load t path in
      Sys.rename alt path;
      Unix.utimes path past past;
      let d2 = Doc_store.load t path in
      Alcotest.(check bool) "swap reparsed" true (d1 != d2);
      let got =
        Xq_xml.Serialize.sequence
          (Xq_algebra.Exec.eval_query ~context_node:d2
             (Xq_lang.Parser.parse_query "string(/a/b)"))
      in
      Alcotest.(check string) "swapped content served" "2" got;
      let s = Doc_store.stats t in
      Alcotest.(check int) "swap counted as invalidation" 1
        s.Doc_store.d_invalidations)

let test_doc_store_capacity_eviction () =
  let house = Governor.create () in
  let body = String.make 200 'x' in
  let xml = "<d>" ^ body ^ "</d>" in
  (* room for two resident documents, not three *)
  let cap = 2 * Doc_store.tree_bytes (Xq_xml.Xml_parse.parse xml) + 64 in
  let t = Doc_store.create ~capacity_bytes:cap ~account:house () in
  let p1 = temp_xml xml and p2 = temp_xml xml and p3 = temp_xml xml in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ p1; p2; p3 ])
    (fun () ->
      ignore (Doc_store.load t p1);
      ignore (Doc_store.load t p2);
      (* touch p1 so p2 is the LRU victim *)
      ignore (Doc_store.load t p1);
      ignore (Doc_store.load t p3);
      let s = Doc_store.stats t in
      Alcotest.(check int) "two resident" 2 s.Doc_store.d_entries;
      Alcotest.(check int) "one eviction" 1 s.Doc_store.d_evictions;
      Alcotest.(check int) "account tracks residents"
        (Governor.charged_on house) s.Doc_store.d_resident_bytes;
      (* p1 survived (recency), p2 did not *)
      let d1 = Doc_store.load t p1 in
      let d1' = Doc_store.load t p1 in
      Alcotest.(check bool) "survivor still shared" true (d1 == d1');
      ignore (Doc_store.load t p2);
      let s = Doc_store.stats t in
      Alcotest.(check int) "victim reloaded as a miss" 4 s.Doc_store.d_misses)

(* The admission gauge charges what the trees really hold: the resident
   bytes of the seeded workload documents match the live heap they add,
   within 20%. *)
let test_doc_store_resident_bytes_measured () =
  let serialize = Xq_xml.Serialize.node in
  let docs =
    [
      serialize
        (Xq_workload.Orders.generate
           Xq_workload.Orders.(with_lineitems 2000 { default with seed = 42 }));
      serialize
        (Xq_workload.Sales.generate { Xq_workload.Sales.default with seed = 42 });
      serialize
        (Xq_workload.Bibliography.generate
           { Xq_workload.Bibliography.default with seed = 42 });
    ]
  in
  let paths = List.map temp_xml docs in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove paths)
    (fun () ->
      let t = Doc_store.create () in
      Gc.compact ();
      let w0 = (Gc.stat ()).Gc.live_words in
      List.iter (fun p -> ignore (Doc_store.load t p)) paths;
      Gc.compact ();
      let live = ((Gc.stat ()).Gc.live_words - w0) * (Sys.word_size / 8) in
      let resident = (Doc_store.stats t).Doc_store.d_resident_bytes in
      let ratio = float resident /. float live in
      if ratio < 0.8 || ratio > 1.2 then
        Alcotest.failf "resident_bytes %d vs %d live bytes (ratio %.2f)"
          resident live ratio)

(* --- admission control -------------------------------------------------- *)

let run_cmd ?(doc = Protocol.Doc_none) source =
  Protocol.Run
    {
      Protocol.rq_source = source;
      rq_doc = doc;
      rq_knobs = Pipeline.default_knobs;
      rq_indent = false;
    }

let test_admission_watermark () =
  let config =
    { Server.default_config with Server.c_admission_watermark_mb = Some 64 }
  in
  let t = Server.create ~config () in
  (match Server.handle t (run_cmd "1 + 1") with
   | Protocol.Payload p -> Alcotest.(check string) "admitted before" "2\n" p
   | Protocol.Error { message; _ } -> Alcotest.failf "rejected: %s" message);
  (* saturate the gauge far past the 64 MB watermark *)
  let hot = 512 * 1024 * 1024 in
  Governor.charge_on (Server.house t) hot;
  (match Server.handle t (run_cmd "1 + 1") with
   | Protocol.Payload _ -> Alcotest.fail "admitted while hot"
   | Protocol.Error { code; exit; _ } ->
     Alcotest.(check string) "rejects with XQENG0007" "XQENG0007" code;
     Alcotest.(check int) "resource exit family" 4 exit);
  (* drain: the same server serves again, nothing was poisoned *)
  Governor.uncharge_on (Server.house t) hot;
  (match Server.handle t (run_cmd "1 + 1") with
   | Protocol.Payload p -> Alcotest.(check string) "drains back" "2\n" p
   | Protocol.Error { message; _ } ->
     Alcotest.failf "still rejecting after drain: %s" message);
  let stats = Server.stats_text t in
  Alcotest.(check bool) "reject counted" true
    (List.mem "admission_rejects 1" (String.split_on_char '\n' stats))

(* --- per-query configuration ---------------------------------------------- *)

(* A grouping query with parallelizable operators (HASH-GROUP, SORT):
   EXPLAIN ANALYZE shows [par=N] on them whenever the query runs at a
   degree above 1. *)
let degree_q =
  "for $o in /orders/order group by $o/cust into $k nest $o into $os \
   order by $k return <r>{$k, count($os)}</r>"

let degree_doc () = Xq_xml.Xml_parse.parse (orders_xml 60)

(* Every [par=N] figure in an EXPLAIN ANALYZE, in order. *)
let pars text =
  let n = String.length text in
  let rec go i acc =
    if i + 4 > n then List.rev acc
    else if String.sub text i 4 = "par=" then begin
      let j = ref (i + 4) in
      while !j < n && text.[!j] >= '0' && text.[!j] <= '9' do incr j done;
      go !j (String.sub text i (!j - i) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

(* A header-less EXPLAIN ANALYZE through the pipeline. *)
let explain_headerless () =
  (Pipeline.run ~explain_analyze:true ~source:degree_q
     ~load_doc:degree_doc ())
    .Pipeline.r_output

let environment_degree () =
  (Xq_governor.Config.resolve ()).Xq_governor.Config.parallel

(* A request degree distinct from the environment's (CI sweeps run with
   XQ_PARALLEL=4) and from [avoid]. *)
let request_degree ?(avoid = 0) preferred =
  let env = environment_degree () in
  List.find (fun d -> d <> env && d <> avoid) [ preferred; 5; 6; 7 ]

(* One-shot latches the rendezvous below open and wait on; a wait gives
   up after 30 s so a broken interleaving fails instead of hanging. *)
let open_latch l = Atomic.set l true

let await l =
  let give_up = Unix.gettimeofday () +. 30. in
  while not (Atomic.get l) do
    if Unix.gettimeofday () > give_up then failwith "rendezvous timed out";
    Unix.sleepf 0.001
  done

let run_at ?load_doc degree =
  (Pipeline.run
     ~knobs:{ Pipeline.default_knobs with Pipeline.k_parallel = Some degree }
     ~source:degree_q ?load_doc ())
    .Pipeline.r_output

(* A request's PARALLEL header scopes to that request: neither it nor a
   later header-less request changes the degree header-less queries run
   at. *)
let test_parallel_header_restored () =
  let alone = pars (explain_headerless ()) in
  let t = Server.create () in
  let run knobs =
    match
      Server.handle t
        (Protocol.Run
           {
             Protocol.rq_source = "count((1, 2, 3))";
             rq_doc = Protocol.Doc_none;
             rq_knobs = knobs;
             rq_indent = false;
           })
    with
    | Protocol.Payload p -> Alcotest.(check string) "result" "3\n" p
    | Protocol.Error { message; _ } -> Alcotest.failf "rejected: %s" message
  in
  run
    { Pipeline.default_knobs with
      Pipeline.k_parallel = Some (request_degree 4) };
  Alcotest.(check (list string)) "restored after PARALLEL" alone
    (pars (explain_headerless ()));
  run Pipeline.default_knobs;
  Alcotest.(check (list string)) "header-less request keeps it" alone
    (pars (explain_headerless ()))

(* A header-less EXPLAIN ANALYZE that runs while a PARALLEL request is in
   flight (parked in its document load) shows the environment's degree,
   never the request's. *)
let test_headerless_during_parallel () =
  let alone = explain_headerless () in
  let d = request_degree 3 in
  let in_flight = Atomic.make false and released = Atomic.make false in
  let other =
    Domain.spawn (fun () ->
        run_at d ~load_doc:(fun () ->
            open_latch in_flight;
            await released;
            degree_doc ()))
  in
  await in_flight;
  let during =
    Fun.protect ~finally:(fun () -> open_latch released) explain_headerless
  in
  let result = Domain.join other in
  Alcotest.(check string) "the PARALLEL request's result"
    (run_at 1 ~load_doc:degree_doc) result;
  Alcotest.(check (list string)) "the environment's degrees" (pars alone)
    (pars during);
  Alcotest.(check bool)
    (Printf.sprintf "no par=%d" d)
    false
    (List.mem (Printf.sprintf "par=%d" d) (pars during));
  if environment_degree () = 1 then
    Alcotest.(check (list string)) "no par= at degree 1" [] (pars during)

(* Two PARALLEL requests overlap and finish out of order (the first to
   start finishes first); a later header-less request still runs at the
   environment's degree. *)
let test_overlapping_parallel_requests () =
  let alone = pars (explain_headerless ()) in
  let d1 = request_degree 3 in
  let d2 = request_degree ~avoid:d1 2 in
  let a_in = Atomic.make false
  and b_in = Atomic.make false
  and a_done = Atomic.make false in
  let a =
    Domain.spawn (fun () ->
        run_at d1 ~load_doc:(fun () ->
            open_latch a_in;
            await b_in;
            degree_doc ()))
  in
  let b =
    Domain.spawn (fun () ->
        await a_in;
        run_at d2 ~load_doc:(fun () ->
            open_latch b_in;
            await a_done;
            degree_doc ()))
  in
  let ra = Fun.protect ~finally:(fun () -> open_latch a_done) (fun () -> Domain.join a) in
  let rb = Domain.join b in
  Alcotest.(check string) "both results agree" ra rb;
  let after = pars (explain_headerless ()) in
  Alcotest.(check (list string)) "the environment's degrees" alone after;
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "no par=%d" d)
        false
        (List.mem (Printf.sprintf "par=%d" d) after))
    [ d1; d2 ]

(* Concurrent queries with every knob varied at once — batch size,
   aggregate pushdown, the key dictionary, strategy, degree — each
   produce exactly what the same query produces alone. The document is
   big enough that batched builds intern their node keys. *)
let test_mixed_knob_concurrency () =
  let module C = Xq_governor.Config in
  let xml =
    let b = Buffer.create 65536 in
    Buffer.add_string b "<r>";
    for i = 1 to 600 do
      Buffer.add_string b
        (Printf.sprintf "<i><k><n>%d</n></k><v>%d</v></i>" (i mod 37) i)
    done;
    Buffer.add_string b "</r>";
    Buffer.contents b
  in
  let q =
    "for $i in //i group by $i/k into $k nest $i/v into $vs \
     order by number($k) return <g>{string($k), count($vs), sum($vs)}</g>"
  in
  let specs =
    (* batch, agg pushdown, dictionary, strategy, degree *)
    C.
      [
        (1, true, true, Hash, 1);
        (4096, false, false, Sort, 4);
        (4096, true, false, Auto, 1);
        (1, true, true, Sort, 4);
        (4096, false, true, Hash, 4);
        (1, false, false, Auto, 4);
        (4096, true, true, Sort, 1);
        (1, false, false, Hash, 1);
        (4096, true, true, Auto, 4);
      ]
  in
  let run ?load_doc (batch, agg_pushdown, dict, strategy, parallel) =
    (Pipeline.run
       ~config:(C.resolve ~agg_pushdown ~dict ())
       ~knobs:
         {
           Pipeline.default_knobs with
           Pipeline.k_batch = Some batch;
           k_strategy = Some strategy;
           k_parallel = Some parallel;
         }
       ~source:q
       ~load_doc:
         (Option.value load_doc ~default:(fun () -> Xq_xml.Xml_parse.parse xml))
       ())
      .Pipeline.r_output
  in
  let alone = List.map (fun spec -> run spec) specs in
  (* every query parks in its document load until all are in flight *)
  let arrived = Atomic.make 0 and all_in = Atomic.make false in
  let n = List.length specs in
  let load_doc () =
    if Atomic.fetch_and_add arrived 1 + 1 = n then open_latch all_in;
    await all_in;
    Xq_xml.Xml_parse.parse xml
  in
  let domains =
    List.map (fun spec -> Domain.spawn (fun () -> run ~load_doc spec)) specs
  in
  let together = List.map Domain.join domains in
  List.iteri
    (fun i (a, c) ->
      Alcotest.(check string) (Printf.sprintf "query %d byte-identical" i) a c)
    (List.combine alone together);
  Alcotest.(check bool) "non-trivial output" true
    (String.length (List.hd alone) > 100)

(* STATS reports the batch size of the server's own configuration. *)
let test_stats_batch_size () =
  let config =
    {
      Server.default_config with
      Server.c_knobs = { Pipeline.default_knobs with Pipeline.k_batch = Some 7 };
    }
  in
  let t = Server.create ~config () in
  match Server.handle t Protocol.Stats with
  | Protocol.Payload p ->
    Alcotest.(check bool) "batch_size 7" true
      (List.mem "batch_size 7" (String.split_on_char '\n' p))
  | Protocol.Error { message; _ } -> Alcotest.failf "STATS failed: %s" message

(* --- live-socket helpers ------------------------------------------------ *)

let sock_counter = ref 0

let with_server ?config f =
  let t = Server.create ?config () in
  incr sock_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "xq-test-%d-%d.sock" (Unix.getpid ()) !sock_counter)
  in
  let stop = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        ignore
          (Server.serve_unix t ~path ~stop:(fun () -> Atomic.get stop) ()))
      ()
  in
  let rec wait n =
    if n = 0 then Alcotest.fail "server socket never appeared";
    if not (Sys.file_exists path) then begin
      Thread.delay 0.01;
      wait (n - 1)
    end
  in
  wait 500;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join th)
    (fun () -> f t path)

let connect path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX path);
  (sock, Unix.in_channel_of_descr sock, Unix.out_channel_of_descr sock)

let request path cmd =
  let sock, ic, oc = connect path in
  Fun.protect
    ~finally:(fun () ->
      (* one fd behind both channels: flush, close exactly once — a
         double close(2) races concurrent connects that reuse the fd *)
      (try flush oc with Sys_error _ -> ());
      try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Protocol.write_command oc cmd;
      Protocol.read_response ic)

(* --- streamed requests and oversized documents --------------------------- *)

let stream_cmd ~doc source =
  Protocol.Run
    {
      Protocol.rq_source = source;
      rq_doc = doc;
      rq_knobs = { Pipeline.default_knobs with Pipeline.k_stream = Some true };
      rq_indent = false;
    }

let test_streamed_request_identity () =
  (* the STREAM header bypasses the doc store and pulls the document
     through the streaming scan; the payload must be byte-identical to
     the materialized answer for both path and inline documents *)
  let xml = orders_xml 100 in
  let doc_path = temp_xml xml in
  Fun.protect
    ~finally:(fun () -> Sys.remove doc_path)
    (fun () ->
      with_server (fun _t sock ->
          let payload label = function
            | Protocol.Payload p -> p
            | Protocol.Error { message; _ } ->
              Alcotest.failf "%s failed: %s" label message
          in
          let mat =
            payload "materialized"
              (request sock (run_cmd ~doc:(Protocol.Doc_path doc_path) orders_q))
          in
          Alcotest.(check bool) "non-trivial payload" true
            (String.length mat > 20);
          Alcotest.(check string) "streamed path doc" mat
            (payload "streamed path"
               (request sock
                  (stream_cmd ~doc:(Protocol.Doc_path doc_path) orders_q)));
          Alcotest.(check string) "streamed inline doc" mat
            (payload "streamed inline"
               (request sock
                  (stream_cmd ~doc:(Protocol.Doc_inline xml) orders_q)))))

let test_oversized_inline_doc () =
  (* a DOCINLINE past --max-request-bytes is refused at the framing
     layer — a clean usage error, no payload bytes, and the server keeps
     serving — on both the materialized and the streamed path *)
  let config =
    { Server.default_config with Server.c_max_request_bytes = 4096 }
  in
  with_server ~config (fun _t sock ->
      let big = "<a>" ^ String.make 8192 'x' ^ "</a>" in
      let check_reject label cmd =
        match request sock cmd with
        | Protocol.Payload p ->
          Alcotest.failf "%s: oversize accepted (%d payload bytes)" label
            (String.length p)
        | Protocol.Error { exit; message; _ } ->
          Alcotest.(check int) (label ^ ": usage exit") 1 exit;
          Alcotest.(check bool)
            (label ^ ": names the cap")
            true (contains message "4096")
      in
      check_reject "materialized" (run_cmd ~doc:(Protocol.Doc_inline big) "1");
      check_reject "streamed" (stream_cmd ~doc:(Protocol.Doc_inline big) "1");
      match request sock (run_cmd "1 + 1") with
      | Protocol.Payload p -> Alcotest.(check string) "still serving" "2\n" p
      | Protocol.Error { message; _ } ->
        Alcotest.failf "server wedged after oversize: %s" message)

(* --- concurrent corpus replay ------------------------------------------- *)

let corpus_dir =
  let beside = Filename.concat (Filename.dirname Sys.executable_name) "corpus" in
  if Sys.file_exists beside && Sys.is_directory beside then beside else "corpus"

let corpus_entries =
  if Sys.file_exists corpus_dir && Sys.is_directory corpus_dir then
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xq")
    |> List.map Filename.remove_extension
    |> List.sort compare
  else []

(* [clients] threads replay the corpus [rounds] times each through the
   server at [path], every request carrying [knobs]; returns every
   divergence from [expected name]. *)
let replay_corpus ?(knobs = Pipeline.default_knobs) ~clients ~rounds ~expected
    path =
  let failures = ref [] in
  let fail_lock = Mutex.create () in
  let note f =
    Mutex.lock fail_lock;
    failures := f :: !failures;
    Mutex.unlock fail_lock
  in
  let worker tid =
    (* each thread starts at a different corpus offset so the plan
       cache sees interleaved, not phased, access *)
    let n = List.length corpus_entries in
    for round = 0 to rounds - 1 do
      List.iteri
        (fun i _ ->
          let name = List.nth corpus_entries ((i + tid + round) mod n) in
          let base = Filename.concat corpus_dir name in
          let doc = Protocol.Doc_inline (read_file (base ^ ".xml")) in
          let cmd =
            Protocol.Run
              {
                Protocol.rq_source = read_file (base ^ ".xq");
                rq_doc = doc;
                rq_knobs = knobs;
                rq_indent = false;
              }
          in
          match request path cmd with
          | Protocol.Payload got when got = expected name -> ()
          | Protocol.Payload got ->
            note
              (Printf.sprintf "%s: %S <> expected %S" name got (expected name))
          | Protocol.Error { message; _ } ->
            note (Printf.sprintf "%s: ERR %s" name message))
        corpus_entries
    done
  in
  let threads = List.init clients (fun tid -> Thread.create worker tid) in
  List.iter Thread.join threads;
  !failures

let check_no_divergence = function
  | [] -> ()
  | f :: _ as failures ->
    Alcotest.failf "%d divergence(s), first: %s" (List.length failures) f

let stat t key =
  String.split_on_char '\n' (Server.stats_text t)
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | [ k; v ] when k = key -> int_of_string_opt v
         | _ -> None)

let test_concurrent_corpus_replay () =
  Alcotest.(check bool) "corpus present" true (corpus_entries <> []);
  with_server (fun t path ->
      let clients = 4 and rounds = 2 in
      check_no_divergence
        (replay_corpus ~clients ~rounds path ~expected:(fun name ->
             read_file (Filename.concat corpus_dir name ^ ".expected")));
      let total = clients * rounds * List.length corpus_entries in
      Alcotest.(check int) "all served" total
        ((Plan_cache.stats (Server.plans t)).Plan_cache.p_hits
        + (Plan_cache.stats (Server.plans t)).Plan_cache.p_misses);
      Alcotest.(check bool) "plans shared across clients" true
        ((Plan_cache.stats (Server.plans t)).Plan_cache.p_hits > 0);
      (* the replay ran on the long-lived pool: never more workers than
         cores, nothing left queued *)
      let cores = Domain.recommended_domain_count () in
      (match stat t "pool_workers" with
       | Some w ->
         Alcotest.(check bool)
           (Printf.sprintf "pool_workers %d <= %d cores" w cores)
           true
           (w >= 1 && w <= cores)
       | None -> Alcotest.fail "STATS lacks pool_workers");
      Alcotest.(check (option int))
        "pool_queued" (Some 0) (stat t "pool_queued"))

let test_parallel_clients_match_degree_one () =
  (* four clients at PARALLEL 4 fork-join inside pooled requests that
     already occupy the workers; every answer must equal the isolated
     degree-1 run of the same query *)
  let isolated name =
    let base = Filename.concat corpus_dir name in
    let xml = read_file (base ^ ".xml") in
    let r =
      Pipeline.run
        ~knobs:{ Pipeline.default_knobs with Pipeline.k_parallel = Some 1 }
        ~source:(read_file (base ^ ".xq"))
        ~load_doc:(fun () -> Xq_xml.Xml_parse.parse xml)
        ()
    in
    r.Pipeline.r_output ^ "\n"
  in
  let expected =
    let table = Hashtbl.create 64 in
    List.iter (fun n -> Hashtbl.replace table n (isolated n)) corpus_entries;
    Hashtbl.find table
  in
  with_server (fun t path ->
      check_no_divergence
        (replay_corpus
           ~knobs:{ Pipeline.default_knobs with Pipeline.k_parallel = Some 4 }
           ~clients:4 ~rounds:1 ~expected path);
      match stat t "pool_workers" with
      | Some w ->
        Alcotest.(check bool) "pool_workers within the core count" true
          (w <= Domain.recommended_domain_count ())
      | None -> Alcotest.fail "STATS lacks pool_workers")

(* --- qgen sweep through the server path --------------------------------- *)

let test_qgen_server_sweep () =
  with_server (fun _t path ->
      for seed = 1 to 12 do
        let case = Xq_qgen.Qgen.generate seed in
        let source = Xq_qgen.Qgen.query_text case.Xq_qgen.Qgen.query in
        let doc_xml = case.Xq_qgen.Qgen.doc in
        (* single-shot reference: the same pipeline the CLI runs *)
        let reference =
          match
            Pipeline.run ~source
              ~load_doc:(fun () -> Xq_xml.Xml_parse.parse doc_xml)
              ()
          with
          | r -> Ok (r.Pipeline.r_output ^ "\n")
          | exception Xq_xdm.Xerror.Error (code, _) ->
            Error (Xq_xdm.Xerror.code_to_string code)
        in
        let served =
          match
            request path (run_cmd ~doc:(Protocol.Doc_inline doc_xml) source)
          with
          | Protocol.Payload p -> Ok p
          | Protocol.Error { code; _ } -> Error code
        in
        if served <> reference then
          Alcotest.failf "seed %d: server diverged from single-shot (%s)" seed
            source
      done)

(* --- fault injection ----------------------------------------------------- *)

let test_killed_client_mid_query () =
  with_server (fun t path ->
      let base = Filename.concat corpus_dir (List.hd corpus_entries) in
      let doc = Protocol.Doc_inline (read_file (base ^ ".xml")) in
      let source = read_file (base ^ ".xq") in
      let expected = read_file (base ^ ".expected") in
      (* several clients fire a query and vanish without reading the
         response; SIGPIPE is ignored, so the write fails as EPIPE and
         the connection is dropped, not the server *)
      for _ = 1 to 5 do
        let sock, _ic, oc = connect path in
        Protocol.write_command oc (run_cmd ~doc source);
        (* close abruptly: no QUIT, response never read *)
        Unix.close sock
      done;
      (* give the per-connection threads a beat to hit the dead pipes *)
      Thread.delay 0.2;
      (* the server must still be fully serviceable and the caches
         uncorrupted: the same query answers byte-identically *)
      match request path (run_cmd ~doc source) with
      | Protocol.Payload got ->
        Alcotest.(check string) "server survives vanished clients" expected got;
        Alcotest.(check bool) "no queries left active" true (Server.active t = 0)
      | Protocol.Error { message; _ } ->
        Alcotest.failf "server wedged after client kills: %s" message)

let test_injected_connection_faults () =
  (* a seeded connection-fault stream drops connections at read/write
     boundaries; the server must stay serviceable throughout and the
     error taxonomy must stay consistent in STATS *)
  with_server (fun t path ->
      let base = Filename.concat corpus_dir (List.hd corpus_entries) in
      let doc = Protocol.Doc_inline (read_file (base ^ ".xml")) in
      let source = read_file (base ^ ".xq") in
      let expected = read_file (base ^ ".expected") in
      Governor.set_faults ~seed:7 ~rate:0.3;
      Fun.protect ~finally:Governor.clear_faults (fun () ->
          let served = ref 0 and dropped = ref 0 and tripped = ref 0 in
          for _ = 1 to 40 do
            match request path (run_cmd ~doc source) with
            | Protocol.Payload got ->
              if got <> expected then
                Alcotest.fail "fault run corrupted an answer";
              incr served
            | Protocol.Error { code; exit; _ }
              when String.length code >= 5 && String.sub code 0 5 = "XQENG" ->
              (* XQ_FAULTS also arms the allocation/spawn streams, so a
                 query can trip an injected resource fault — that must
                 arrive as a well-formed resource error, exit family 4 *)
              Alcotest.(check int) "resource exit family under faults" 4 exit;
              incr tripped
            | Protocol.Error { message; _ } ->
              Alcotest.failf "unexpected server error under faults: %s" message
            | exception (End_of_file | Sys_error _) ->
              (* the injected connection fault killed this exchange *)
              incr dropped
          done;
          Alcotest.(check bool) "some requests survived" true (!served > 0));
      (* faults off: the same server still answers correctly *)
      match request path (run_cmd ~doc source) with
      | Protocol.Payload got ->
        Alcotest.(check string) "serviceable after fault storm" expected got;
        Alcotest.(check int) "nothing left active" 0 (Server.active t);
        (* drops were recorded in the taxonomy *)
        let stats = Server.stats_text t in
        let find key =
          String.split_on_char '\n' stats
          |> List.find_map (fun line ->
                 match String.split_on_char ' ' line with
                 | [ k; v ] when k = key -> int_of_string_opt v
                 | _ -> None)
        in
        (match find "conn_drops" with
         | Some n -> Alcotest.(check bool) "conn drops counted" true (n >= 0)
         | None -> Alcotest.fail "conn_drops missing from STATS")
      | Protocol.Error { message; _ } ->
        Alcotest.failf "server wedged after faults: %s" message)

(* --- protocol round trip ------------------------------------------------- *)

let test_protocol_roundtrip () =
  (* write_command → read_command is the identity on a knob-rich
     request, embedded newlines and all *)
  let rq =
    {
      Protocol.rq_source = "for $x in /a\nreturn $x";
      rq_doc = Protocol.Doc_inline "<a>\n<b/>\n</a>";
      rq_knobs =
        {
          Pipeline.default_knobs with
          Pipeline.k_strategy = Some Xq_algebra.Optimizer.Sort;
          k_parallel = Some 2;
          k_timeout_ms = Some 500;
          k_rewrite = true;
        };
      rq_indent = true;
    }
  in
  let tmp = Filename.temp_file "xq-proto" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out_bin tmp in
      Protocol.write_command oc (Protocol.Run rq);
      close_out oc;
      let ic = open_in_bin tmp in
      let got = Protocol.read_command ic in
      close_in ic;
      (match got with
       | Some (Protocol.Run rq') ->
         Alcotest.(check bool) "round trip" true (rq = rq')
       | _ -> Alcotest.fail "did not parse back as Run");
      (* the retired INDEX header is an unknown header: a USAGE error *)
      let oc = open_out_bin tmp in
      output_string oc "QUERY 1\n1\nINDEX\nRUN\n";
      close_out oc;
      let ic = open_in_bin tmp in
      let got =
        match Protocol.read_command ic with
        | _ -> None
        | exception Protocol.Protocol_error m -> Some m
      in
      close_in ic;
      Alcotest.(check (option string))
        "unknown header" (Some "unknown header \"INDEX\"") got;
      (* and a server answers it with the USAGE error *)
      let out = Filename.temp_file "xq-proto" ".out" in
      Fun.protect
        ~finally:(fun () -> Sys.remove out)
        (fun () ->
          let ic = open_in_bin tmp and oc = open_out_bin out in
          Server.serve_connection (Server.create ()) ic oc;
          close_in ic;
          close_out oc;
          let ic = open_in_bin out in
          let first = input_line ic in
          close_in ic;
          Alcotest.(check string) "USAGE response" "ERR USAGE 1"
            (String.sub first 0 (min 11 (String.length first)))))

let suites =
  [
    ( "server-plan-cache",
      [
        Alcotest.test_case "LRU eviction order" `Quick test_plan_lru_eviction;
        Alcotest.test_case "keying on strategy and env" `Quick
          test_plan_cache_keying;
        Alcotest.test_case "hit/miss counters and accounting" `Quick
          test_plan_cache_counters;
      ] );
    ( "server-doc-store",
      [
        Alcotest.test_case "sharing and mtime/size invalidation" `Quick
          test_doc_store_sharing_and_invalidation;
        Alcotest.test_case "rename-swap caught by inode" `Quick
          test_doc_store_rename_swap;
        Alcotest.test_case "capacity eviction" `Quick
          test_doc_store_capacity_eviction;
        Alcotest.test_case "resident bytes match the live heap" `Quick
          test_doc_store_resident_bytes_measured;
      ] );
    ( "server-streaming",
      [
        Alcotest.test_case "STREAM requests byte-identical" `Quick
          test_streamed_request_identity;
        Alcotest.test_case "oversized DOCINLINE refused cleanly" `Quick
          test_oversized_inline_doc;
      ] );
    ( "server-admission",
      [
        Alcotest.test_case "hot watermark rejects XQENG0007, drains back"
          `Quick test_admission_watermark;
        Alcotest.test_case "PARALLEL header does not outlive its request"
          `Quick test_parallel_header_restored;
      ] );
    ( "server-config",
      [
        Alcotest.test_case "header-less EXPLAIN during a PARALLEL request"
          `Quick test_headerless_during_parallel;
        Alcotest.test_case "overlapping PARALLEL requests finish out of order"
          `Quick test_overlapping_parallel_requests;
        Alcotest.test_case "mixed-knob queries concurrently = alone" `Quick
          test_mixed_knob_concurrency;
        Alcotest.test_case "STATS batch_size is the server's own" `Quick
          test_stats_batch_size;
      ] );
    ( "server-protocol",
      [ Alcotest.test_case "command round trip" `Quick test_protocol_roundtrip ]
    );
    ( "server-concurrency",
      [
        Alcotest.test_case "4-client corpus replay byte-identical" `Quick
          test_concurrent_corpus_replay;
        Alcotest.test_case "4 PARALLEL 4 clients = isolated degree 1" `Quick
          test_parallel_clients_match_degree_one;
        Alcotest.test_case "qgen sweep through the server" `Quick
          test_qgen_server_sweep;
      ] );
    ( "server-faults",
      [
        Alcotest.test_case "killed-mid-query clients" `Quick
          test_killed_client_mid_query;
        Alcotest.test_case "seeded connection-fault storm" `Quick
          test_injected_connection_faults;
      ] );
  ]
