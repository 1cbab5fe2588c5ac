(* The shared compile-and-run pipeline. See pipeline.mli. *)

module Governor = Xq_governor.Governor
module Clock = Xq_governor.Clock
module Config = Xq_governor.Config
module Optimizer = Xq_algebra.Optimizer

type knobs = {
  k_strategy : Optimizer.group_strategy option;
  k_parallel : int option;
  k_batch : int option;
  k_rewrite : bool;
  k_timeout_ms : int option;
  k_max_groups : int option;
  k_max_mem_mb : int option;
  k_spill_at_mb : int option;
  k_stream : bool option;
}

let default_knobs =
  {
    k_strategy = None;
    k_parallel = None;
    k_batch = None;
    k_rewrite = false;
    k_timeout_ms = None;
    k_max_groups = None;
    k_max_mem_mb = None;
    k_spill_at_mb = None;
    k_stream = None;
  }

(* The knobs are a query's flags or headers: each one set beats [base]
   (else the environment). *)
let resolve ?base k =
  Config.resolve ?base ?strategy:k.k_strategy ?parallel:k.k_parallel
    ?batch:k.k_batch
    ?rewrite:(if k.k_rewrite then Some true else None)
    ?timeout_ms:k.k_timeout_ms ?max_groups:k.k_max_groups
    ?max_mem_mb:k.k_max_mem_mb ?spill_at_mb:k.k_spill_at_mb
    ?stream:k.k_stream ()

type compiled = {
  c_query : Xq_lang.Ast.query;
  c_rewrites : int;  (* implicit-grouping rewrites [compile] applied *)
}

let compile ?(rewrite = false) source =
  let q = Xq_lang.Parser.parse_query source in
  Xq_lang.Static.check_query q;
  if rewrite then
    {
      c_query = Xq_rewrite.Rewrite.rewrite_query q;
      c_rewrites = Xq_rewrite.Rewrite.count_rewrites q.Xq_lang.Ast.body;
    }
  else { c_query = q; c_rewrites = 0 }

let of_query q = { c_query = q; c_rewrites = 0 }
let query c = c.c_query

(* Length-prefixed fields make the key injective: no choice of query
   text can collide with the rewrite flag. *)
let cache_key ~(config : Config.t) source =
  let field s = Printf.sprintf "%d:%s" (String.length s) s in
  field (if config.rewrite then "rw" else "") ^ field source

let eval ?config ?strategy ?parallel ?scan ~doc c =
  Xq_algebra.Exec.eval_query ~check:false ?config ?strategy ?parallel ?scan
    ~context_node:doc c.c_query

let render ?indent seq = Xq_xml.Serialize.sequence ?indent seq

type report = {
  r_output : string;
  r_items : int;
  r_elapsed_ms : float;
  r_stats : Governor.stats option;
}

type load =
  | Streamed of Xq_algebra.Exec.scan
  | Projected of Xq_xml.Xml_stream.path_set * Xq_xml.Xml_stream.automaton
  | Whole_document of string

let empty_doc () = Xq_xml.Xml_parse.parse "<empty/>"

let plan_load ~(config : Config.t) query source =
  if config.no_stream then Whole_document "streaming is off (XQ_NO_STREAM=1)"
  else if config.stream = Some false then
    Whole_document "streaming is off (--no-stream)"
  else
    let module P = Xq_rewrite.Projection in
    let a = P.analyze_paths (Lazy.force query) in
    match (a.P.verdict, a.P.paths) with
    | P.Streamable { path; var; positional }, _ ->
      Streamed { Xq_algebra.Exec.source; path; var; positional }
    | P.Materialize reason, paths ->
      let load =
        match paths with
        | Error r -> Whole_document r
        | Ok ps -> (
          match Xq_xml.Xml_stream.compile ps with
          | Ok a -> Projected (ps, a)
          | Error r -> Whole_document r)
      in
      (* one quiet line, only when streaming was asked for by name —
         the silent default must not get noisy *)
      if config.stream = Some true then
        Printf.eprintf "xq: streaming requested but not possible (%s); %s\n%!"
          reason
          (match load with
           | Projected _ -> "loading a projected document"
           | _ -> "loading the whole document");
      load

let load ~config query (source : Xq_xml.Xml_stream.source) =
  let l = plan_load ~config query source in
  let doc =
    match (l, source) with
    | Streamed _, _ -> empty_doc ()
    | Projected (_, a), _ -> Xq_xml.Xml_stream.load_compiled a source
    | Whole_document _, `File p -> Xq_xml.Xml_parse.parse_file p
    | Whole_document _, `String s -> Xq_xml.Xml_parse.parse s
  in
  (l, doc)

let scan_of = function Streamed scan -> Some scan | _ -> None

let load_to_string = function
  | Streamed scan ->
    Xq_rewrite.Projection.to_string
      (Xq_rewrite.Projection.Streamable
         {
           path = scan.Xq_algebra.Exec.path;
           var = scan.Xq_algebra.Exec.var;
           positional = scan.Xq_algebra.Exec.positional;
         })
  | Projected (ps, _) -> "projected: " ^ Xq_xml.Xml_stream.path_set_to_string ps
  | Whole_document reason -> "whole document: " ^ reason

let run ?(force_governor = false) ?on_governor ?config
    ?(knobs = default_knobs) ?(indent = false) ?(explain_analyze = false)
    ?compiled ?source ?load_doc ?stream_source () =
  (* the query's one configuration: everything below reads it *)
  let config = resolve ?base:config knobs in
  let governed f =
    (* the server forces an (unlimited) governor on every query so
       drain-time cooperative cancellation has something to reach;
       ungoverned front ends keep paying nothing *)
    match Governor.of_config ~force:force_governor config with
    | None -> f None
    | Some g ->
      Governor.with_governor g (fun () ->
          (match on_governor with Some cb -> cb g | None -> ());
          f (Some g))
  in
  governed (fun gov ->
      let compiled_memo = ref compiled in
      let get_compiled () =
        match !compiled_memo with
        | Some c -> c
        | None ->
          let c =
            match source with
            | Some src -> compile ~rewrite:config.rewrite src
            | None -> invalid_arg "Pipeline.run: no compiled and no source"
          in
          compiled_memo := Some c;
          c
      in
      (* The one load decision: a supplied source streams when the
         projection verdict allows, else loads the projected tree the
         query's path set names, else — streaming switched off, or a
         path set that falls back — the whole document. The decision
         needs the checked query, so compilation precedes the document
         here (both are governed either way, and the document loads
         inside the governed region so XQ_MAX_INPUT / XQ_MAX_DEPTH
         apply). A scanned query never reads its focus, so an empty
         document stands in. *)
      let load, doc =
        match stream_source with
        | Some source ->
          let l, doc = load ~config (lazy (get_compiled ()).c_query) source in
          (Some l, doc)
        | None ->
          (None, match load_doc with Some f -> f () | None -> empty_doc ())
      in
      let scan = Option.bind load scan_of in
      (* budget the query's own work, not the document (streamed input
         is charged as parse-ahead instead) *)
      (match gov with Some g -> Governor.rebaseline g | None -> ());
      let compiled = get_compiled () in
      let t0 = Clock.now_ns () in
      let result =
        if explain_analyze then
          `Analyzed
            (Xq_rewrite.Explain.analyze_query ?scan ~config ~context_node:doc
               compiled.c_query)
        else `Items (eval ?scan ~config ~doc compiled)
      in
      let elapsed = float_of_int (Clock.now_ns () - t0) /. 1e6 in
      let output, items =
        match result with
        | `Items items ->
          (* serialize fully before anything is written, so a trip
             mid-query never leaves partial output anywhere *)
          (render ~indent items, List.length items)
        | `Analyzed text ->
          (* when --rewrite recognized the implicit-grouping idiom at
             compile time, say so — the analyzed plan only shows the
             resulting group by, not where it came from; with a
             source in play, also report the load the run used —
             streamed, projected or whole, and why *)
          let rewrites =
            if compiled.c_rewrites = 0 then ""
            else
              Printf.sprintf "rewrite: implicit-grouping=%d\n"
                compiled.c_rewrites
          in
          let verdict =
            match load with
            | None -> ""
            | Some l -> "stream: " ^ load_to_string l ^ "\n"
          in
          (rewrites ^ text ^ verdict, 0)
      in
      {
        r_output = output;
        r_items = items;
        r_elapsed_ms = elapsed;
        r_stats = Option.map Governor.stats gov;
      })
