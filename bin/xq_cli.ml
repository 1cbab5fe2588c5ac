(* xq — command-line front end for the engine.

     xq run query.xq --input data.xml [--rewrite] [--indent] [--time]
     xq eval 'for $x in (1,2) return $x * 2'
     xq check query.xq
     xq plan query.xq [--rewrite]
     xq gen orders --size 8000 > orders.xml
*)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Exit-code taxonomy: 0 ok, 1 usage, 2 static error, 3 dynamic error,
   4 resource limit. Structured errors carry their class
   (Xerror.exit_code); a malformed input document is a dynamic error. *)
let with_errors f =
  match f () with
  | () -> 0
  | exception Xq.Xdm.Xerror.Error (code, msg) ->
    Printf.eprintf "error %s\n"
      (Xq.Xdm.Xerror.to_message code msg);
    Xq.Xdm.Xerror.exit_code code
  | exception (Xq.Xml.Xml_parse.Parse_error _ as e) -> begin
    match Xq.Xml.Xml_parse.error_to_string e with
    | Some m -> Printf.eprintf "%s\n" m; 3
    | None -> raise e
  end

(* The flags [Pipeline.knobs] does not carry, as the configuration the
   knobs then override. Flag-less, each falls back to the environment. *)
let base_config ~spill_dir ~no_spill ~no_agg_pushdown =
  Xq.Config.resolve ?spill_dir
    ?spill:(if no_spill then Some false else None)
    ?agg_pushdown:(if no_agg_pushdown then Some false else None)
    ()

(* One stderr line when the query actually spilled, so operators see the
   degraded mode without turning on profiling. *)
let report_spill_stats = function
  | None -> ()
  | Some s ->
    if s.Xq.Governor.s_spill_files > 0 then
      Printf.eprintf "xq: spilled %d bytes across %d file(s)%s\n"
        s.Xq.Governor.s_spilled_bytes s.Xq.Governor.s_spill_files
        (if s.Xq.Governor.s_repartitions > 0 then
           Printf.sprintf " (%d repartition pass(es))"
             s.Xq.Governor.s_repartitions
         else "")

(* --- arguments -------------------------------------------------------- *)

let query_file =
  let doc = "File containing the XQuery expression." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"QUERY" ~doc)

let query_string =
  let doc = "The XQuery expression itself." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPR" ~doc)

let input_file =
  let doc = "XML document to query (default: an empty document)." in
  Arg.(value & opt (some file) None & info [ "i"; "input" ] ~docv:"FILE" ~doc)

let rewrite_flag =
  let doc = "Apply the implicit-group-by rewrite before evaluation." in
  Arg.(value & flag & info [ "rewrite" ] ~doc)

let no_agg_pushdown_flag =
  let doc =
    "Disable the eager-aggregation pushdown (groups materialize member \
     lists even when nest variables are only aggregated). Results are \
     byte-identical either way; this is the ablation/kill switch. \
     $(b,XQ_NO_AGG_PUSHDOWN=1) is the environment equivalent."
  in
  Arg.(value & flag & info [ "no-agg-pushdown" ] ~doc)

let indent_flag =
  let doc = "Pretty-print the XML output." in
  Arg.(value & flag & info [ "indent" ] ~doc)

let time_flag =
  let doc = "Report evaluation wall-clock time on stderr." in
  Arg.(value & flag & info [ "time" ] ~doc)

let explain_analyze_flag =
  let doc =
    "EXPLAIN ANALYZE: execute the query through the plan algebra and \
     print the executed operator tree annotated with per-operator rows \
     in/out, groups built, comparator calls and wall-clock self time, \
     instead of the query result."
  in
  Arg.(value & flag & info [ "explain-analyze" ] ~doc)

let strategy_opt =
  let doc =
    "Grouping strategy for the plan algebra: $(b,hash) (one-pass hash), \
     $(b,sort) (sort-based grouping) or $(b,auto) (sort when a \
     downstream order-by on the group keys can be fused). Defaults to \
     the $(b,XQ_GROUP_STRATEGY) environment variable, else hash."
  in
  Arg.(
    value
    & opt
        (some
           (enum
              [ ("hash", Xq.Algebra.Optimizer.Hash);
                ("sort", Xq.Algebra.Optimizer.Sort);
                ("auto", Xq.Algebra.Optimizer.Auto) ]))
        None
    & info [ "strategy" ] ~docv:"STRATEGY" ~doc)

let parallel_opt =
  let doc =
    "Domain-pool degree for grouping and sorting (stdlib multicore \
     domains). 1 (the default) is the sequential code path; any degree \
     produces byte-identical output. Defaults to the $(b,XQ_PARALLEL) \
     environment variable, else 1."
  in
  Arg.(value & opt (some int) None & info [ "parallel" ] ~docv:"N" ~doc)

(* Limit values must be positive; a bad value is a usage error (exit 1). *)
let pos_int what =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "%s must be a positive integer, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let batch_opt =
  let doc =
    "Executor batch size: tuples flow between plan operators in vectors \
     of $(docv) (default: $(b,XQ_BATCH) or 4096). $(b,--batch 1) is \
     item-at-a-time execution; output is byte-identical at any size."
  in
  Arg.(
    value
    & opt (some (pos_int "--batch")) None
    & info [ "batch" ] ~docv:"N" ~env:(Cmd.Env.info "XQ_BATCH") ~doc)

let timeout_opt =
  let doc =
    "Abort the query after $(docv) milliseconds of wall-clock time \
     (error XQENG0001, exit code 4)."
  in
  Arg.(
    value
    & opt (some (pos_int "--timeout")) None
    & info [ "timeout" ] ~docv:"MS" ~env:(Cmd.Env.info "XQ_TIMEOUT") ~doc)

let max_groups_opt =
  let doc =
    "Abort when grouping materializes more than $(docv) groups (error \
     XQENG0003, exit code 4)."
  in
  Arg.(
    value
    & opt (some (pos_int "--max-groups")) None
    & info [ "max-groups" ] ~docv:"N" ~env:(Cmd.Env.info "XQ_MAX_GROUPS") ~doc)

let max_mem_opt =
  let doc =
    "Abort when the query's approximate memory footprint (GC heap growth \
     plus materialized key bytes) exceeds $(docv) megabytes (error \
     XQENG0002, exit code 4)."
  in
  Arg.(
    value
    & opt (some (pos_int "--max-mem")) None
    & info [ "max-mem" ] ~docv:"MB" ~env:(Cmd.Env.info "XQ_MAX_MEM") ~doc)

let spill_at_opt =
  let doc =
    "Soft memory watermark in megabytes: when grouping's charged bytes \
     cross it, in-memory groups spill to disk and the query keeps \
     running instead of tripping XQENG0002. Defaults to half of \
     $(b,--max-mem) when that is set; spilling is off otherwise."
  in
  Arg.(
    value
    & opt (some (pos_int "--spill-at")) None
    & info [ "spill-at" ] ~docv:"MB" ~env:(Cmd.Env.info "XQ_SPILL_AT") ~doc)

let spill_dir_opt =
  let doc =
    "Directory for spill files (default: $(b,TMPDIR), else /tmp). Files \
     are unlinked at creation where possible, so a crash leaves nothing \
     behind."
  in
  Arg.(
    value
    & opt (some dir) None
    & info [ "spill-dir" ] ~docv:"DIR" ~env:(Cmd.Env.info "XQ_SPILL_DIR") ~doc)

let no_spill_flag =
  let doc =
    "Disable spilling: memory pressure trips XQENG0002 (exit 4) as it \
     would with no spill directory."
  in
  Arg.(value & flag & info [ "no-spill" ] ~doc)

let stream_flag =
  let on =
    let doc =
      "Require streamed ingestion of $(b,--input): the document is \
       scanned with projection pushdown and only query-relevant \
       subtrees are materialized, so memory is bounded by the matched \
       working set instead of the document size. Streaming is on by \
       default whenever the query is streamable; this flag additionally \
       prints a notice when it is not (and the run falls back to a \
       projected load). $(b,XQ_NO_STREAM=1) disables streaming and \
       projection globally."
    in
    (Some true, Arg.info [ "stream" ] ~doc)
  in
  let off =
    let doc =
      "Load the whole input document before evaluating: neither stream \
       it nor project it to the paths the query reads."
    in
    (Some false, Arg.info [ "no-stream" ] ~doc)
  in
  Arg.(value & vflag None [ on; off ])

(* All evaluation flows through the shared pipeline — the same
   compile-and-run path the REPL, fuzzer and query server use — so the
   front ends cannot drift apart. The CLI keeps only presentation:
   printing, --time, and the spill report. *)
let run_common ~source ~input ~rewrite ~indent ~time ~explain_analyze ~strategy
    ~parallel ~batch ~timeout ~max_groups ~max_mem ~spill_at ~spill_dir
    ~no_spill ~stream ~no_agg_pushdown =
  with_errors (fun () ->
      let config = base_config ~spill_dir ~no_spill ~no_agg_pushdown in
      let knobs =
        Xq.Pipeline.
          {
            k_strategy = strategy;
            k_parallel = parallel;
            k_batch = batch;
            k_rewrite = rewrite;
            k_timeout_ms = timeout;
            k_max_groups = max_groups;
            k_max_mem_mb = max_mem;
            k_spill_at_mb = spill_at;
            k_stream = stream;
          }
      in
      (* a file input goes to the pipeline as a source (it decides,
         from the query's path set and the knobs, whether to stream it,
         project it or load it whole); input-less runs keep the empty
         doc *)
      let report =
        Xq.Pipeline.run ~config ~knobs ~indent ~explain_analyze ~source
          ?stream_source:(Option.map (fun p -> `File p) input)
          ()
      in
      if explain_analyze then print_string report.Xq.Pipeline.r_output
      else begin
        print_endline report.Xq.Pipeline.r_output;
        if time then
          Printf.eprintf "evaluated in %.1f ms (%d items)\n"
            report.Xq.Pipeline.r_elapsed_ms report.Xq.Pipeline.r_items
      end;
      report_spill_stats report.Xq.Pipeline.r_stats;
      (* machine-checkable resource line (CI soak asserts the peak
         estimate stays under the spill watermark) *)
      match (Sys.getenv_opt "XQ_GOV_SUMMARY", report.Xq.Pipeline.r_stats) with
      | Some "1", Some s ->
        Printf.eprintf "xq: peak-mem=%dB spilled=%dB spill-files=%d\n"
          s.Xq.Governor.s_peak_mem_bytes s.Xq.Governor.s_spilled_bytes
          s.Xq.Governor.s_spill_files
      | _ -> ())

(* --- commands ----------------------------------------------------------- *)

let run_cmd =
  let action qf input rewrite indent time explain_analyze strategy parallel
      batch timeout max_groups max_mem spill_at spill_dir no_spill stream
      no_agg_pushdown =
    run_common ~source:(read_file qf) ~input ~rewrite ~indent ~time
      ~explain_analyze ~strategy ~parallel ~batch ~timeout ~max_groups
      ~max_mem ~spill_at ~spill_dir ~no_spill ~stream ~no_agg_pushdown
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a query file against an XML document.")
    Term.(
      const action $ query_file $ input_file $ rewrite_flag $ indent_flag
      $ time_flag $ explain_analyze_flag $ strategy_opt $ parallel_opt
      $ batch_opt $ timeout_opt $ max_groups_opt $ max_mem_opt $ spill_at_opt
      $ spill_dir_opt $ no_spill_flag $ stream_flag $ no_agg_pushdown_flag)

let eval_cmd =
  let action expr input rewrite indent time explain_analyze strategy parallel
      batch timeout max_groups max_mem spill_at spill_dir no_spill stream
      no_agg_pushdown =
    run_common ~source:expr ~input ~rewrite ~indent ~time ~explain_analyze
      ~strategy ~parallel ~batch ~timeout ~max_groups ~max_mem ~spill_at
      ~spill_dir ~no_spill ~stream ~no_agg_pushdown
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate a query given on the command line.")
    Term.(
      const action $ query_string $ input_file $ rewrite_flag $ indent_flag
      $ time_flag $ explain_analyze_flag $ strategy_opt $ parallel_opt
      $ batch_opt $ timeout_opt $ max_groups_opt $ max_mem_opt $ spill_at_opt
      $ spill_dir_opt $ no_spill_flag $ stream_flag $ no_agg_pushdown_flag)

let check_cmd =
  let action qf =
    with_errors (fun () ->
        Xq.check (Xq.parse (read_file qf));
        print_endline "ok")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse and statically check a query file.")
    Term.(const action $ query_file)

let explain_flag =
  let doc = "Print the evaluation plan instead of the query text." in
  Arg.(value & flag & info [ "explain" ] ~doc)

let plan_cmd =
  let action qf rewrite explain =
    with_errors (fun () ->
        let query = Xq.parse (read_file qf) in
        Xq.check query;
        let query =
          if rewrite then Xq.Rewrite.Rewrite.rewrite_query query else query
        in
        if explain then print_string (Xq.Rewrite.Explain.query query)
        else print_endline (Xq.Lang.Pretty.query query))
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Print the parsed (optionally rewritten) query back as XQuery, \
             or its evaluation plan with --explain.")
    Term.(const action $ query_file $ rewrite_flag $ explain_flag)

let plan_optimize_flag =
  let doc = "Run the logical plan optimizer before executing." in
  Arg.(value & flag & info [ "optimize" ] ~doc)

let profile_cmd =
  let action qf input optimize strategy parallel batch timeout max_groups
      max_mem spill_at spill_dir no_spill stream =
    with_errors (fun () ->
      let config =
        Xq.Config.resolve
          ~base:(base_config ~spill_dir ~no_spill ~no_agg_pushdown:false)
          ?strategy ?parallel ?batch ?timeout_ms:timeout ?max_groups
          ?max_mem_mb:max_mem ?spill_at_mb:spill_at ?stream ()
      in
      let governed f =
        match Xq.Governor.of_config config with
        | None -> f None
        | Some g -> Xq.Governor.with_governor g (fun () -> f (Some g))
      in
      governed (fun gov ->
        let query = Xq.parse (read_file qf) in
        Xq.check query;
        (* a file input loads as [run] loads it — streamed, projected
           or whole — and the analyzed chain is then the one [run]
           executes *)
        let scan, doc =
          match input with
          | Some path ->
            let load, doc =
              Xq.Pipeline.load ~config (Lazy.from_val query) (`File path)
            in
            (Xq.Pipeline.scan_of load, doc)
          | None -> (None, Xq.load_string "<empty/>")
        in
        (match gov with
         | Some g -> Xq.Governor.rebaseline g
         | None -> ());
        match
          match query.Xq.Lang.Ast.body with
          | Xq.Lang.Ast.Flwor _ ->
            Xq.Algebra.Exec.analyze_query ~config ~optimize ?scan
              ~context_node:doc query
          | _ -> []
        with
        | [ Xq.Algebra.Exec.Analyzed_plan (plan, result, stats) ] ->
          print_string (Xq.Algebra.Plan.to_string plan);
          Printf.printf "\n%-24s %10s %10s %10s %10s %10s %8s %8s %5s %12s\n"
            "operator" "rows in" "rows out" "groups" "cmp" "walks" "dict"
            "batches" "par" "self ms";
          List.iter
            (fun (s : Xq.Algebra.Exec.Stats.entry) ->
              Printf.printf "%-24s %10d %10d %10s %10d %10d %8d %8d %5d %12.2f\n"
                s.Xq.Algebra.Exec.Stats.label s.Xq.Algebra.Exec.Stats.rows_in
                s.Xq.Algebra.Exec.Stats.rows_out
                (match s.Xq.Algebra.Exec.Stats.groups_built with
                 | Some g -> string_of_int g
                 | None -> "-")
                s.Xq.Algebra.Exec.Stats.cmp_calls
                s.Xq.Algebra.Exec.Stats.key_walks
                s.Xq.Algebra.Exec.Stats.dict_interns
                s.Xq.Algebra.Exec.Stats.batches s.Xq.Algebra.Exec.Stats.par
                s.Xq.Algebra.Exec.Stats.elapsed_ms)
            stats;
          Printf.printf "\nresult: %d item(s)\n" (Xq.length result);
          (match gov with
           | Some g -> Printf.printf "%s\n" (Xq.Governor.summary g)
           | None -> ())
        | _ ->
          Printf.eprintf "profile: the query body must be a FLWOR expression\n"))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Compile the query to a plan, execute it and report per-operator \
             row counts, comparator calls and wall-clock self time, counted \
             on the chain a normal run executes, over $(b,--input) loaded \
             as $(b,run) loads it: streamed, projected or whole.")
    Term.(
      const action $ query_file $ input_file $ plan_optimize_flag
      $ strategy_opt $ parallel_opt $ batch_opt $ timeout_opt
      $ max_groups_opt $ max_mem_opt $ spill_at_opt $ spill_dir_opt
      $ no_spill_flag $ stream_flag)

let gen_cmd =
  let workload =
    let doc = "Workload: orders, sales, bibliography or auction." in
    Arg.(
      required
      & pos 0 (some (enum [ ("orders", `Orders); ("sales", `Sales);
                            ("bibliography", `Bib); ("auction", `Auction) ])) None
      & info [] ~docv:"WORKLOAD" ~doc)
  in
  let size =
    let doc = "Collection size: lineitems (orders), sales, books or items (auction)." in
    Arg.(value & opt int 1000 & info [ "n"; "size" ] ~docv:"N" ~doc)
  in
  let seed =
    let doc = "PRNG seed." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let action which size seed =
    let node =
      match which with
      | `Orders ->
        Xq_workload.Orders.(generate { (with_lineitems size default) with seed })
      | `Sales -> Xq_workload.Sales.(generate { default with sales = size; seed })
      | `Bib ->
        Xq_workload.Bibliography.(
          generate { default with books = size; with_categories = true; seed })
      | `Auction -> Xq_workload.Auction.(generate { default with items = size; seed })
    in
    print_endline (Xq.Xml.Serialize.node node);
    0
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic workload document on stdout.")
    Term.(const action $ workload $ size $ seed)

let () =
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"on success.";
      Cmd.Exit.info 1 ~doc:"on usage errors (bad command line or option value).";
      Cmd.Exit.info 2 ~doc:"on static query errors (XPST*, XQST*).";
      Cmd.Exit.info 3
        ~doc:"on dynamic errors (type errors, malformed input documents).";
      Cmd.Exit.info 4
        ~doc:
          "on resource-limit trips (XQENG* errors from --timeout, \
           --max-groups, --max-mem, cancellation, input limits or \
           spill-file I/O failures).";
    ]
  in
  let info =
    Cmd.info "xq" ~version:"1.0.0" ~exits
      ~doc:
        "An XQuery engine with the SIGMOD 2005 analytics extensions \
         (group by / nest / using / return at)."
  in
  let cmd =
    Cmd.group info
      [ run_cmd; eval_cmd; check_cmd; plan_cmd; profile_cmd; gen_cmd ]
  in
  (* Map cmdliner's own failures onto the documented taxonomy: anything
     wrong with the command line itself is a usage error. *)
  exit
    (match Cmd.eval_value cmd with
     | Ok (`Ok code) -> code
     | Ok (`Help | `Version) -> 0
     | Error (`Parse | `Term | `Exn) -> 1)
