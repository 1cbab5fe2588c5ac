(** The one compile-and-run pipeline behind every front end.

    The CLI, the REPL, the differential fuzzer and the query server all
    execute queries through this module, so they share one code path
    byte for byte: parse → static check → optional implicit-group-by
    rewrite ({!compile}), then execution on the plan executor ({!eval}),
    then full serialization before anything is
    written ({!render} — a trip mid-query can never leave partial
    output). {!run} wraps the whole thing in a governor built from the
    query's configuration ({!resolve}), installed on the calling
    domain — so concurrent queries on different domains (the server's
    pool workers) never see each other's budgets.

    {!compile}'s result is the server's plan-cache artifact: the
    setup cost a resident process amortizes is parsing, static
    checking and rewriting (plus document parsing, cached separately);
    building the operator tree from a checked AST is linear in query
    size and happens inside {!eval} exactly as it always has. *)

open Xq_xdm

(** A query's flags or protocol headers. An unset field leaves the knob
    to the [XQ_*] environment (see {!resolve}): a [None] strategy takes
    the [XQ_GROUP_STRATEGY] default, else hash. *)
type knobs = {
  k_strategy : Xq_algebra.Optimizer.group_strategy option;
  k_parallel : int option;  (** domain-pool degree *)
  k_batch : int option;
      (** executor batch size ([1] = item-at-a-time; default
          [XQ_BATCH] or 4096). Output is byte-identical at any size. *)
  k_rewrite : bool;  (** implicit-group-by rewrite before evaluation *)
  k_timeout_ms : int option;
  k_max_groups : int option;
  k_max_mem_mb : int option;
  k_spill_at_mb : int option;
  k_stream : bool option;
      (** streamed or projected ingestion when a [stream_source] is
          supplied ({!plan_load}): [None] = stream when the projection
          verdict allows, else load the projected tree (the default),
          [Some true] = streaming requested by name (a one-line stderr
          notice when the query is not streamable), [Some false] = load
          the whole document. The [XQ_NO_STREAM=1] environment kill
          switch beats all three. *)
}

(** No strategy (the environment default), no explicit limits, no
    rewrite. *)
val default_knobs : knobs

(** The configuration a query with these knobs runs under: each knob
    set, else [base]'s (a server's own configuration), else the
    environment's. *)
val resolve : ?base:Xq_governor.Config.t -> knobs -> Xq_governor.Config.t

(** A parsed, statically checked, optionally rewritten query — the
    artifact the server's plan cache holds and every front end
    executes. *)
type compiled

(** Parse + static check + (when [rewrite]) the implicit-group-by
    rewrite, recording how many FLWORs it rewrote (EXPLAIN ANALYZE's
    [rewrite: implicit-grouping=N] line, so a cached compile reports
    it too). Raises [Xerror.Error] with a static code on bad input. *)
val compile : ?rewrite:bool -> string -> compiled

(** Wrap an already-checked query (the fuzzer's generated ASTs). *)
val of_query : Xq_lang.Ast.query -> compiled

val query : compiled -> Xq_lang.Ast.query

(** The plan-cache key for [source] under [config]: what {!compile}
    reads — query text × rewrite flag — so requests differing only in
    execution settings share one entry. Injective per component
    (length-prefixed fields). *)
val cache_key : config:Xq_governor.Config.t -> string -> string

(** Execute a compiled query against a context document through
    [Exec.eval_query]: every FLWOR, nested ones included, runs on the
    plan executor's operator chain, under [config] (default: the
    environment). With [scan] the body's leading binding reads the
    streamed document instead ([doc] is then only a placeholder focus).
    No governor management here. *)
val eval :
  ?config:Xq_governor.Config.t ->
  ?strategy:Xq_algebra.Optimizer.group_strategy ->
  ?parallel:int ->
  ?scan:Xq_algebra.Exec.scan ->
  doc:Node.t ->
  compiled ->
  Xseq.t

(** How a per-query document is loaded. *)
type load =
  | Streamed of Xq_algebra.Exec.scan
      (** scanned: matched subtrees feed the plan's leading [for] *)
  | Projected of Xq_xml.Xml_stream.path_set * Xq_xml.Xml_stream.automaton
      (** a projected tree holding only the paths the query reads, and
          their compiled automaton *)
  | Whole_document of string  (** the whole tree, and why *)

(** The one load decision for a per-query document: stream when the
    projection verdict allows, else the projected tree of the query's
    path set; the whole document only when [config] switches streaming
    off ([--no-stream], [XQ_NO_STREAM=1], [k_stream = Some false]) or
    the path set falls back or does not compile (compiled once, here).
    When streaming was asked for by name and is not possible, a
    one-line notice goes to stderr. [query] is forced only when
    streaming is on, so under [--no-stream] a malformed document is
    reported before a bad query. *)
val plan_load :
  config:Xq_governor.Config.t ->
  Xq_lang.Ast.query Lazy.t ->
  Xq_xml.Xml_stream.source ->
  load

(** [plan_load], then the context document it loads: an empty stand-in
    when streamed. {!run} and the CLI's [profile] load through this. *)
val load :
  config:Xq_governor.Config.t ->
  Xq_lang.Ast.query Lazy.t ->
  Xq_xml.Xml_stream.source ->
  load * Node.t

(** The scan of a streamed load. *)
val scan_of : load -> Xq_algebra.Exec.scan option

(** EXPLAIN ANALYZE's [stream:] line, without the key: e.g.
    ["streamable: $o <- scan /orders/order"],
    ["projected: //order/lineitem, //order/lineitem/shipmode (whole)"]
    or ["whole document: streaming is off (--no-stream)"]. *)
val load_to_string : load -> string

(** Serialize a full result sequence (never partial). *)
val render : ?indent:bool -> Xseq.t -> string

type report = {
  r_output : string;
      (** the rendered result — or the EXPLAIN ANALYZE text *)
  r_items : int;  (** result cardinality (0 in explain mode) *)
  r_elapsed_ms : float;
      (** evaluation wall-clock time (monotonic clock), excluding
          document load and serialization; a streamed run's includes
          its scan *)
  r_stats : Xq_governor.Governor.stats option;
      (** the governor's stats when one was installed *)
}

(** The full governed pipeline: resolve the query's configuration
    ([resolve ?base:config knobs]), build its governor, install it on
    the calling domain ({!Xq_governor.Governor.with_governor}; the
    query's parallel tasks inherit it), load the document inside the governed region (input limits apply),
    rebaseline so memory budgets cover the query's own work, compile
    [source] (or reuse [compiled]), evaluate, and serialize fully.
    [explain_analyze] renders the executed operator tree instead of
    the result. Raises [Xerror.Error] exactly as the engine does.

    [force_governor] installs an unlimited governor even when [knobs]
    and the environment set no limit, so the caller can reach the query
    with cooperative cancellation (the server's drain path);
    [on_governor] is called with the installed governor, after
    installation and before any work — the server registers it in its
    in-flight table there.

    [stream_source] supplies the document as a source instead of
    [load_doc], loaded through {!load}: a streamable query scans it
    with projection pushdown, matched subtrees feeding the plan's
    leading [for] as parsing proceeds, so memory stays bounded by the
    matched working set (and the spill watermark) rather than the
    document size; any other query runs over the projected tree of its
    path set; with streaming switched off, over the whole document.
    Output is byte-identical either way. Then one branch follows:
    rebaseline, then execute ([explain_analyze]: the analyzed run,
    streamed when the result would be, plus a [stream:] line naming the
    load used, {!load_to_string}) and render. *)
val run :
  ?force_governor:bool ->
  ?on_governor:(Xq_governor.Governor.t -> unit) ->
  ?config:Xq_governor.Config.t ->
  ?knobs:knobs ->
  ?indent:bool ->
  ?explain_analyze:bool ->
  ?compiled:compiled ->
  ?source:string ->
  ?load_doc:(unit -> Node.t) ->
  ?stream_source:Xq_xml.Xml_stream.source ->
  unit ->
  report
