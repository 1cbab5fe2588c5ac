(** Interpreter for {!Plan} operator trees. Expression evaluation is
    delegated to [Xq_engine.Eval]; tuple-stream mechanics (expansion,
    selection, sorting, grouping, numbering) run here over the explicit
    operators, so a plan is exactly what executes. {!run} is the one way
    a plan executes, for resident and streamed input alike: a streamed
    run hands it a {!scan}, which becomes the source of the plan's
    leading [for] instead of a path over a resident tree. {!eval_query}
    and {!analyze_query} build the same chain over the same input, so
    EXPLAIN ANALYZE counts what a normal run executes, streamed or
    not. *)

open Xq_xdm

(** {1 Statistics}

    What EXPLAIN ANALYZE and [profile] render: one entry per operator of
    an executed chain, counted by a wrapper around that operator's sink
    while the chain runs (see {!run}). *)

module Stats : sig
  type entry = {
    label : string;        (** e.g. ["HASH-GROUP"], ["FOR-EXPAND $x"] *)
    rows_in : int;         (** cardinality of the operator's input stream *)
    rows_out : int;        (** cardinality of its output stream *)
    groups_built : int option;
        (** groups emitted, for grouping operators only *)
    cmp_calls : int;
        (** comparator work: key equality tests and sort comparisons *)
    key_walks : int;
        (** key node subtrees materialized (canonicalization walks) —
            grouping walks each key node exactly once, comparisons none *)
    spilled_bytes : int;
        (** bytes this operator wrote to spill files (0 when grouping
            stayed in memory or no governor is installed) *)
    spill_files : int;   (** spill files this operator created *)
    repartitions : int;
        (** recursive repartition passes over oversized spill files *)
    dict_interns : int;
        (** node keys this operator interned into the key dictionary
            (0 for non-grouping operators and for small inputs) *)
    dict_entries : int;
        (** size of the process key dictionary when the run finished *)
    batches : int;
        (** input vectors the operator consumed (1 for small inputs;
            0 for sources) *)
    batch : int;         (** the query's batch size ([Config.batch]) *)
    par : int;
        (** domain-pool degree available to this operator (1 when the
            operator cannot parallelize) *)
    elapsed_ms : float;
        (** wall-clock time on the monotonic clock spent in this
            operator itself: time inside its sink minus time inside the
            operators downstream of it *)
  }

  (** Innermost operator first, the return clause last — execution
      order. *)
  type t = entry list
end

(** A streamed document: the byte [source], the projection [path] whose
    matches it yields, and the streamed binding's [var] and [positional]
    name, as the projection analysis derives them. *)
type scan = {
  source : Xq_xml.Xml_stream.source;
  path : Xq_xml.Xml_stream.path;
  var : string;
  positional : string option;
}

(** Execute a plan in a dynamic context (as built by the engine) as a
    pipelined chain of sinks, at the context's batch size and degree
    ({!Xq_engine.Context.config}); output is byte-identical at any
    setting. With [stats], each operator's sink and
    the return clause's are wrapped in counters and [stats] is set to
    their figures when the run finishes (time, key walks, interns and
    spill figures are self deltas: the operator's own minus those of the
    operators downstream). Without it the chain carries no counters.

    With [scan], the plan's leading [FOR-EXPAND $var] takes its items
    from the byte scan ({!scan_vectors}) while parsing proceeds, under
    {!with_tight_gc} when bounded, and the context is marked
    {!Xq_engine.Context.detached}, so grouping anywhere in the run
    spills members by value and memory stays bounded by the watermark.
    Raises [Invalid_argument] unless the plan starts with [UNIT] and a
    [for] over [var]. *)
val run :
  ?stats:Stats.t ref -> ?scan:scan -> Xq_engine.Context.t -> Plan.plan ->
  Xseq.t

(** {1 Queries}

    Every FLWOR of a query — top-level, nested inside another expression,
    in a global variable or in a function body — executes as a {!Plan}
    operator chain: the context a query runs in carries a FLWOR runner
    ({!Xq_engine.Context.run_flwor}) that {!query_context} installs. *)

(** The one place a FLWOR becomes a plan: {!Plan.of_flwor}, then
    {!Optimizer.apply_strategy} of [config]'s strategy,
    {!Optimizer.push_aggregates} when [config] allows it and, when
    [optimize] is set, {!Optimizer.optimize}. *)
val plan_flwor :
  ?optimize:bool -> config:Xq_governor.Config.t -> Xq_lang.Ast.flwor ->
  Plan.plan

(** Build the dynamic context a query executes in: prolog functions, the
    [fn:doc]/[fn:collection] registry ([documents], [collections],
    [default_collection]), the FLWOR runner, the focus on
    [context_node], the prolog's global variables, and the query's
    configuration, resolved here once: [strategy] and [parallel]
    override [config], which defaults to the environment — [strategy]
    to [XQ_GROUP_STRATEGY], else hash; [parallel] to [XQ_PARALLEL], else
    1. Results are byte-identical at any setting. *)
val query_context :
  ?config:Xq_governor.Config.t ->
  ?optimize:bool ->
  ?strategy:Optimizer.group_strategy ->
  ?parallel:int ->
  ?documents:(string * Node.t) list ->
  ?collections:(string * Node.t list) list ->
  ?default_collection:Node.t list ->
  context_node:Node.t ->
  Xq_lang.Ast.query ->
  Xq_engine.Context.t

(** Check (unless [check] is [false]), build the {!query_context} and
    evaluate the body against the context node. With [scan] the body
    must be a streamable FLWOR: it runs through {!run} with the scan as
    its leading binding's source, and output is byte-identical to the
    run over the materialized document for every query the projection
    analysis accepts (the focus never escapes into such a query, so
    [context_node] is only a placeholder). Raises whatever the streamed
    parse raises ([Xml_parse.Parse_error], [XQENG0005], [XQENG0008]). *)
val eval_query :
  ?check:bool ->
  ?config:Xq_governor.Config.t ->
  ?optimize:bool ->
  ?strategy:Optimizer.group_strategy ->
  ?parallel:int ->
  ?documents:(string * Node.t) list ->
  ?collections:(string * Node.t list) list ->
  ?default_collection:Node.t list ->
  ?scan:scan ->
  context_node:Node.t ->
  Xq_lang.Ast.query ->
  Xseq.t

(** Parse, check and execute. *)
val run_string :
  ?config:Xq_governor.Config.t ->
  ?optimize:bool ->
  ?strategy:Optimizer.group_strategy ->
  ?parallel:int ->
  context_node:Node.t ->
  string ->
  Xseq.t

(** One top-level part of an analyzed query body. *)
type analyzed =
  | Analyzed_plan of Plan.plan * Xseq.t * Stats.t
      (** a top-level FLWOR (or member of a top-level sequence), run
          through {!run} with statistics: its plan, result and
          statistics *)
  | Analyzed_expr of Xseq.t  (** any other top-level expression *)

(** Execute the query body for EXPLAIN ANALYZE and [profile]: each
    top-level FLWOR runs through {!run} with statistics, under the
    configuration of {!query_context}. FLWORs nested inside it run through
    the context's runner as usual, and their cost counts toward the
    operator that evaluated them. Body order; static checking is the
    caller's. [scan] streams the input exactly as in {!eval_query}. *)
val analyze_query :
  ?config:Xq_governor.Config.t ->
  ?optimize:bool ->
  ?strategy:Optimizer.group_strategy ->
  ?parallel:int ->
  ?scan:scan ->
  context_node:Node.t ->
  Xq_lang.Ast.query ->
  analyzed list

(** [eval_query ~scan:{source; path; var; positional}] with a
    placeholder context node: an alias kept for the perfbench harness. *)
val eval_query_stream :
  ?check:bool ->
  ?config:Xq_governor.Config.t ->
  ?optimize:bool ->
  ?strategy:Optimizer.group_strategy ->
  ?parallel:int ->
  source:Xq_xml.Xml_stream.source ->
  path:Xq_xml.Xml_stream.path ->
  var:string ->
  positional:string option ->
  Xq_lang.Ast.query ->
  Xseq.t

(** The collector's [space_overhead] while a bounded (watermarked)
    streamed scan runs. *)
val tight_space_overhead : int

(** [with_tight_gc f] runs [f] with the collector's [space_overhead]
    tightened to {!tight_space_overhead}, as a bounded streamed scan does.
    Process-wide and counted: overlapping calls, on any domains, share
    one tightening — the first to enter saves the setting and the last
    to leave restores it. *)
val with_tight_gc : (unit -> 'a) -> 'a

(** The parse-ahead cap of a streamed scan, in subtree-estimate bytes:
    a governed scan caps at the smaller of this and a slice of its
    watermark, an ungoverned one at this. *)
val stream_ahead_bytes : int

(** The streamed scan a {!run} with [scan] feeds its chain with:
    [scan_vectors ~batch ~path source down] scans [source] and hands
    the subtrees matched by [path] to [down] in document order, in
    vectors of at most [batch] subtrees whose summed heap-cost
    estimates ([bytes]) stay within the parse-ahead cap (a single
    larger subtree goes alone). Each subtree is charged against the
    installed governor from its emission until [down] has consumed its
    vector. *)
val scan_vectors :
  batch:int ->
  path:Xq_xml.Xml_stream.path ->
  Xq_xml.Xml_stream.source ->
  (bytes:int -> Node.t array -> unit) ->
  unit
